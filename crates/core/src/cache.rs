//! The on-disk, content-addressed design cache.
//!
//! Workload-suite runs spend real time just *producing* their inputs:
//! generating family netlists and re-synthesising ingested SNL files.
//! Both are pure functions of `(family, generator config + seed,
//! library)`, so [`DesignCache`] memoises them on disk, keyed by the
//! config fingerprint (e.g. `FamilyConfig::fingerprint` in
//! `smt-circuits`) and the [`Library::fingerprint`] — any change to a
//! cell or a corner derate changes the key and the stale entry is
//! swept out.
//!
//! Entries are stored as SNL text ([`snl::write`]) and read back
//! through the *structural* loader ([`snl::load`]) — no AIG round trip,
//! so a cached design keeps the generator's structure instead of
//! drifting to the mapper's normal form. The cache still
//! **canonicalises once**: on a miss the produced netlist is serialised
//! and the netlist handed back is the `load` of that serialisation —
//! exactly what every warm hit will load from disk. Cold-with-cache and
//! warm runs therefore use bit-identical netlists and produce
//! bit-identical suite reports. (`load(write(n))` differs from `n` only
//! in instance names and one alias buffer per output port exposed on an
//! internally-named net; the independent equivalence check guards the
//! function either way.)
//!
//! File layout: one `<family>-<config_fp>-<library_fp>.snl` per entry,
//! flat in the cache directory, written via a temp-file rename so
//! concurrent shard processes cannot observe torn entries.
//!
//! Designs are the only thing cached on disk. Placement reuse lives in
//! the flow's checkpoints: a session places its design once, and every
//! fork of its prefix or finals checkpoint inherits that `Placer`.

use smt_cells::library::Library;
use smt_netlist::netlist::Netlist;
use smt_synth::snl;
use std::fmt;
use std::path::{Path, PathBuf};

/// Default cache directory of the `suite` batch-driver CLI (under
/// `target/` so `cargo clean` sweeps it).
pub const DEFAULT_DIR: &str = "target/suite-cache";

/// Hit/miss/invalidation counters for one cache session; surfaced in
/// `SuiteReport` and printed by the `suite` bin on exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from disk.
    pub hits: usize,
    /// Entries produced and stored.
    pub misses: usize,
    /// Stale entries swept: same design key under an outdated library
    /// fingerprint, or entries that no longer parse.
    pub invalidated: usize,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }

    /// Field-wise sum (used by `SuiteReport::merge`).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidated: self.invalidated + other.invalidated,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rate = if self.lookups() == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / self.lookups() as f64
        };
        write!(
            f,
            "{} hits, {} misses, {} invalidated ({rate:.0}% hit rate)",
            self.hits, self.misses, self.invalidated
        )
    }
}

/// Why a cache operation failed.
#[derive(Debug, Clone)]
pub enum CacheError {
    /// Filesystem trouble (directory creation, entry read/write).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        message: String,
    },
    /// The producer closure failed (generator / ingestion error).
    Produce {
        /// The design being produced.
        name: String,
        /// The producer's error.
        message: String,
    },
    /// The produced netlist could not be serialised to SNL (it is not a
    /// pre-flow netlist) or its serialisation did not parse back — the
    /// entry is not cacheable.
    Encode {
        /// The design being stored.
        name: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, message } => write!(f, "design cache: {path}: {message}"),
            CacheError::Produce { name, message } => {
                write!(f, "design cache: producing `{name}`: {message}")
            }
            CacheError::Encode { name, message } => {
                write!(f, "design cache: encoding `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// A directory of SNL-serialised pre-flow netlists keyed by
/// `(family, config fingerprint, library fingerprint)`. See the
/// [module docs](self) for the canonicalisation contract.
#[derive(Debug)]
pub struct DesignCache {
    dir: PathBuf,
    lib_fp: u64,
    stats: CacheStats,
}

impl DesignCache {
    /// Opens (creating if needed) a cache directory bound to one
    /// library: every lookup through this handle keys on
    /// `lib.fingerprint()`.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, lib: &Library) -> Result<Self, CacheError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CacheError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(DesignCache {
            dir,
            lib_fp: lib.fingerprint(),
            stats: CacheStats::default(),
        })
    }

    /// Counters accumulated by this handle.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, family: &str, config_fp: u64) -> PathBuf {
        self.dir.join(format!(
            "{family}-{config_fp:016x}-{:016x}.snl",
            self.lib_fp
        ))
    }

    /// Returns the cached netlist for `(family, config_fp, library)`,
    /// producing, canonicalising and storing it on a miss. `name` is
    /// only used in error messages. The producer's netlist must be
    /// pre-flow (SNL-serialisable); what comes back is its SNL normal
    /// form — identical to what every later hit will return.
    ///
    /// Stale entries (same design key, different library fingerprint)
    /// found while storing are deleted and counted as invalidated, as
    /// are existing entries that fail to parse.
    ///
    /// # Errors
    ///
    /// [`CacheError`] on producer failure, non-cacheable netlists, or
    /// filesystem trouble. A *corrupt existing entry* is not an error:
    /// it is invalidated and re-produced.
    pub fn get_or_insert(
        &mut self,
        name: &str,
        family: &str,
        config_fp: u64,
        lib: &Library,
        produce: impl FnOnce() -> Result<Netlist, String>,
    ) -> Result<Netlist, CacheError> {
        let path = self.entry_path(family, config_fp);
        if let Ok(text) = std::fs::read_to_string(&path) {
            match snl::load(&text, lib) {
                Ok(netlist) => {
                    self.stats.hits += 1;
                    return Ok(netlist);
                }
                Err(_) => {
                    // Corrupt/truncated entry: sweep and fall through to
                    // the miss path.
                    self.stats.invalidated += 1;
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        self.sweep_stale(family, config_fp, &path);
        let produced = produce().map_err(|message| CacheError::Produce {
            name: name.to_owned(),
            message,
        })?;
        let text = snl::write(&produced, lib).map_err(|e| CacheError::Encode {
            name: name.to_owned(),
            message: e.to_string(),
        })?;
        // Canonicalise: hand back the structural load of the stored
        // text, exactly what a warm hit will see.
        let canonical = snl::load(&text, lib).map_err(|e| CacheError::Encode {
            name: name.to_owned(),
            message: format!("serialised entry does not load back: {e}"),
        })?;
        self.store(&path, &text)?;
        self.stats.misses += 1;
        Ok(canonical)
    }

    /// Removes entries for the same `(family, config_fp)` under a
    /// *different* library fingerprint — the definition of an
    /// invalidated design.
    fn sweep_stale(&mut self, family: &str, config_fp: u64, keep: &Path) {
        let prefix = format!("{family}-{config_fp:016x}-");
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path == keep {
                continue;
            }
            let stale = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".snl"));
            if stale && std::fs::remove_file(&path).is_ok() {
                self.stats.invalidated += 1;
            }
        }
    }

    /// Temp-file + rename store, so concurrent shard processes never
    /// observe a torn entry.
    fn store(&self, path: &Path, text: &str) -> Result<(), CacheError> {
        let io_err = |p: &Path, e: std::io::Error| CacheError::Io {
            path: p.display().to_string(),
            message: e.to_string(),
        };
        let tmp = path.with_extension(format!("snl.tmp{}", std::process::id()));
        std::fs::write(&tmp, text).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
    }
}

/// Fingerprint for ingested-SNL cache keys: the raw file text (the
/// config of an ingestion is its content).
pub fn snl_text_fingerprint(text: &str) -> u64 {
    smt_base::fingerprint::fingerprint_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_cells::library::LibraryConfig;
    use smt_cells::tech::Technology;
    use smt_circuits::families::{generate, standard_suite, FamilyConfig, SuiteScale};

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smt-design-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn produce(l: &Library, config: &FamilyConfig) -> Result<Netlist, String> {
        generate(l, config).map_err(|e| e.to_string())
    }

    #[test]
    fn miss_then_hit_returns_identical_netlists() {
        let l = lib();
        let dir = temp_dir("hit");
        let w = standard_suite(SuiteScale::Smoke)
            .into_iter()
            .next()
            .expect("smoke suite is non-empty");
        let fp = w.config.fingerprint();

        let mut cache = DesignCache::open(&dir, &l).expect("open cache");
        let first = cache
            .get_or_insert(&w.name, w.config.family(), fp, &l, || {
                produce(&l, &w.config)
            })
            .expect("cold insert");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        // A fresh handle (fresh process, in spirit) must hit.
        let mut warm = DesignCache::open(&dir, &l).expect("reopen cache");
        let second = warm
            .get_or_insert(&w.name, w.config.family(), fp, &l, || {
                panic!("warm lookup must not re-produce {}", w.name)
            })
            .expect("warm hit");
        assert_eq!(warm.stats().hits, 1);
        assert_eq!(warm.stats().misses, 0);

        // Bit-identical structure, instance by instance.
        assert_eq!(first.num_instances(), second.num_instances());
        assert_eq!(first.num_nets(), second.num_nets());
        for (id, inst) in first.instances() {
            assert_eq!(inst, second.inst(id), "instance {id}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn library_change_invalidates_entries() {
        let l = lib();
        let dir = temp_dir("invalidate");
        let w = standard_suite(SuiteScale::Smoke)
            .into_iter()
            .next()
            .expect("smoke suite is non-empty");
        let fp = w.config.fingerprint();

        let mut cache = DesignCache::open(&dir, &l).expect("open cache");
        cache
            .get_or_insert(&w.name, w.config.family(), fp, &l, || {
                produce(&l, &w.config)
            })
            .expect("cold insert");

        // Re-characterised library (a cell-level knob change): the old
        // entry must not hit, and must be swept as stale.
        let tweaked = Library::generate(
            Technology::industrial_130nm(),
            LibraryConfig {
                mt_delay_penalty_vgnd: 1.04,
                ..LibraryConfig::default()
            },
        );
        assert_ne!(tweaked.fingerprint(), l.fingerprint());
        let mut cache2 = DesignCache::open(&dir, &tweaked).expect("reopen under new library");
        cache2
            .get_or_insert(&w.name, w.config.family(), fp, &tweaked, || {
                produce(&tweaked, &w.config)
            })
            .expect("insert under new library");
        assert_eq!(cache2.stats().hits, 0);
        assert_eq!(cache2.stats().misses, 1);
        assert_eq!(cache2.stats().invalidated, 1, "stale entry swept");

        // Only the new-library entry remains on disk.
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert!(
            entries[0].contains(&format!("{:016x}", tweaked.fingerprint())),
            "{entries:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_invalidated_and_reproduced() {
        let l = lib();
        let dir = temp_dir("corrupt");
        let w = standard_suite(SuiteScale::Smoke)
            .into_iter()
            .next()
            .expect("smoke suite is non-empty");
        let fp = w.config.fingerprint();

        let mut cache = DesignCache::open(&dir, &l).expect("open cache");
        cache
            .get_or_insert(&w.name, w.config.family(), fp, &l, || {
                produce(&l, &w.config)
            })
            .expect("cold insert");
        // Truncate the entry on disk.
        let entry = std::fs::read_dir(&dir)
            .expect("cache dir")
            .flatten()
            .next()
            .expect("one entry")
            .path();
        std::fs::write(&entry, ".model broken\n").expect("truncate entry");

        let mut reopened = DesignCache::open(&dir, &l).expect("reopen");
        let n = reopened
            .get_or_insert(&w.name, w.config.family(), fp, &l, || {
                produce(&l, &w.config)
            })
            .expect("re-produce");
        assert!(n.num_instances() > 0);
        assert_eq!(reopened.stats().invalidated, 1);
        assert_eq!(reopened.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn producer_errors_surface_with_the_design_name() {
        let l = lib();
        let dir = temp_dir("producer-error");
        let mut cache = DesignCache::open(&dir, &l).expect("open cache");
        let err = cache
            .get_or_insert("doomed", "pipeline", 0x42, &l, || {
                Err("stages must be at least 1".to_owned())
            })
            .expect_err("producer failure propagates");
        assert!(err.to_string().contains("doomed"), "{err}");
        assert_eq!(cache.stats().lookups(), 0, "failed produce is not a lookup");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
