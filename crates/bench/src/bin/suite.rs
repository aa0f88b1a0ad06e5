//! The workload-suite batch driver CLI: generate (or ingest) a set of
//! designs — through the on-disk design cache — fan them through the
//! flow on the worker pool, and print one report with per-design
//! signoff, per-stage profile, and equivalence verdicts. Supports
//! process-level sharding: each shard runs a deterministic slice of the
//! suite and emits a JSON report that `--merge` recombines
//! bit-identically to the unsharded run.
//!
//! ```text
//! cargo run --release -p smt-bench --bin suite -- [options]
//!
//!   --scale smoke|standard|large   generated-suite size   [smoke]
//!   --technique dual|conv|imp      flow technique         [dual]
//!   --jobs N (or --threads N)      worker-pool cap (0 = cores) [0]
//!   --corners                      sign off at slow/typ/fast PVT
//!   --equiv-cycles N               equivalence stimulus   [48]
//!   --snl FILE                     also ingest an SNL netlist (repeatable)
//!   --write-snl DIR                dump this run's generated designs as .snl
//!                                  (exactly the netlists this run executes:
//!                                  with the cache on, the canonical cached
//!                                  form; with --no-cache, the raw generator
//!                                  output)
//!   --no-generated                 run only the --snl ingested designs
//!   --shard K/N                    run only shard K of N (1-based;
//!                                  gate-balanced plan)
//!   --json FILE                    write the report as JSON
//!   --merge FILE...                merge shard JSON reports instead of running
//!   --cache-dir DIR                design-cache location [target/suite-cache]
//!   --no-cache                     regenerate every design from scratch
//! ```
//!
//! `--cache-dir` and `--no-cache` govern the design cache only: every
//! design is placed by its own flow run.
//!
//! Exits non-zero when any design fails its flow, its verification, or
//! the independent pre- vs post-flow equivalence check (and, for
//! `--merge`, when the merged report is missing shards). Shard JSON is
//! digest-verified on load — a corrupt or hand-edited report is
//! rejected rather than silently merged — and the merged digest is
//! printed, equal to the unsharded run's. The `large` scale is the
//! ROADMAP-level stress run: its pipeline design exceeds 50k gates.

use smt_cells::corner::CornerSet;
use smt_cells::library::Library;
use smt_circuits::families::{generate, standard_suite, SuiteScale, Workload};
use smt_core::cache::{snl_text_fingerprint, DesignCache, DEFAULT_DIR};
use smt_core::engine::{FlowConfig, Technique};
use smt_core::suite::{plan_shards, render_suite, suite_fingerprint, SuiteReport, WorkloadSuite};
use smt_netlist::netlist::Netlist;
use smt_synth::snl;
use smt_synth::SynthOptions;

struct Options {
    scale: SuiteScale,
    technique: Technique,
    threads: usize,
    corners: bool,
    equiv_cycles: usize,
    snl_files: Vec<String>,
    write_snl: Option<String>,
    generated: bool,
    shard: Option<(usize, usize)>,
    json: Option<String>,
    merge: Vec<String>,
    cache_dir: String,
    use_cache: bool,
}

fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let (k, n) = spec
        .split_once('/')
        .ok_or_else(|| format!("--shard wants K/N, got `{spec}`"))?;
    let k: usize = k.parse().map_err(|e| format!("--shard K: {e}"))?;
    let n: usize = n.parse().map_err(|e| format!("--shard N: {e}"))?;
    if n == 0 || k == 0 || k > n {
        return Err(format!("--shard {spec}: K must be in 1..=N"));
    }
    Ok((k, n))
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        scale: SuiteScale::Smoke,
        technique: Technique::DualVth,
        threads: 0,
        corners: false,
        equiv_cycles: 48,
        snl_files: Vec::new(),
        write_snl: None,
        generated: true,
        shard: None,
        json: None,
        merge: Vec::new(),
        cache_dir: DEFAULT_DIR.to_owned(),
        use_cache: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("`{name}` needs a value"));
        match arg.as_str() {
            "--scale" => {
                o.scale = match value("--scale")?.as_str() {
                    "smoke" => SuiteScale::Smoke,
                    "standard" => SuiteScale::Standard,
                    "large" => SuiteScale::Large,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            "--technique" => {
                o.technique = match value("--technique")?.as_str() {
                    "dual" => Technique::DualVth,
                    "conv" | "conventional" => Technique::ConventionalSmt,
                    "imp" | "improved" => Technique::ImprovedSmt,
                    other => return Err(format!("unknown technique `{other}`")),
                }
            }
            "--threads" | "--jobs" => {
                o.threads = value(&arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--equiv-cycles" => {
                o.equiv_cycles = value("--equiv-cycles")?
                    .parse()
                    .map_err(|e| format!("--equiv-cycles: {e}"))?
            }
            "--corners" => o.corners = true,
            "--snl" => o.snl_files.push(value("--snl")?),
            "--write-snl" => o.write_snl = Some(value("--write-snl")?),
            "--no-generated" => o.generated = false,
            "--shard" => o.shard = Some(parse_shard(&value("--shard")?)?),
            "--json" => o.json = Some(value("--json")?),
            "--merge" => {
                // `--merge` consumes every remaining argument as a shard
                // report file.
                o.merge = args.by_ref().collect();
                if o.merge.is_empty() {
                    return Err("`--merge` needs at least one report file".to_owned());
                }
            }
            "--cache-dir" => o.cache_dir = value("--cache-dir")?,
            "--no-cache" => o.use_cache = false,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("suite: {message}");
    std::process::exit(2);
}

/// One design the run *could* own: what is needed to weigh, key and
/// produce it, without producing anything outside this run's shard.
enum Entry {
    Generated(Workload),
    Ingested {
        name: String,
        path: String,
        text: String,
    },
}

impl Entry {
    fn name(&self) -> &str {
        match self {
            Entry::Generated(w) => &w.name,
            Entry::Ingested { name, .. } => name,
        }
    }

    /// Shard-planning weight: estimated gates for generated families,
    /// a bytes-based proxy for ingested SNL (~40 bytes per gate line).
    fn weight(&self) -> f64 {
        match self {
            Entry::Generated(w) => w.config.estimated_gates() as f64,
            Entry::Ingested { text, .. } => (text.len() as f64 / 40.0).max(1.0),
        }
    }

    /// The design-cache key `(family, config fingerprint)` — also what
    /// the full-list suite fingerprint is built from, so the two can
    /// never drift apart.
    fn key(&self) -> (&'static str, u64) {
        match self {
            Entry::Generated(w) => (w.config.family(), w.config.fingerprint()),
            Entry::Ingested { text, .. } => ("snl", snl_text_fingerprint(text)),
        }
    }

    fn produce(&self, lib: &Library) -> Result<Netlist, String> {
        match self {
            Entry::Generated(w) => generate(lib, &w.config).map_err(|e| e.to_string()),
            Entry::Ingested { path, text, .. } => {
                snl::read(text, lib, &SynthOptions::default()).map_err(|e| format!("{path}: {e}"))
            }
        }
    }

    fn realise(
        &self,
        lib: &Library,
        key: (&'static str, u64),
        cache: Option<&mut DesignCache>,
    ) -> Result<Netlist, String> {
        match cache {
            None => self.produce(lib),
            Some(cache) => cache
                .get_or_insert(self.name(), key.0, key.1, lib, || self.produce(lib))
                .map_err(|e| e.to_string()),
        }
    }
}

fn run_merge(files: &[String]) -> ! {
    let mut reports = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format_args!("reading {path}: {e}")));
        let json =
            smt_base::json::parse(&text).unwrap_or_else(|e| fail(format_args!("{path}: {e}")));
        let report =
            SuiteReport::from_json(&json).unwrap_or_else(|e| fail(format_args!("{path}: {e}")));
        eprintln!("loaded {path}: {} rows", report.rows.len());
        reports.push(report);
    }
    let merged = SuiteReport::merge(reports).unwrap_or_else(|e| fail(e));
    print!("{}", render_suite(&merged));
    println!("merged digest: {:016x}", merged.digest());
    let missing = merged.missing_ordinals();
    if !missing.is_empty() {
        println!("suite: FAIL — merged report is missing designs {missing:?}");
        std::process::exit(1);
    }
    if merged.all_passed() {
        println!("suite: PASS — every design completed and is equivalent pre- vs post-flow");
        std::process::exit(0);
    }
    println!("suite: FAIL");
    std::process::exit(1);
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => fail(e),
    };
    if !o.merge.is_empty() {
        run_merge(&o.merge);
    }
    let lib = Library::industrial_130nm();
    let mut config = FlowConfig {
        technique: o.technique,
        ..FlowConfig::default()
    };
    if o.corners {
        config.corners = CornerSet::slow_typ_fast();
    }

    // The full, deterministic design list (every shard sees the same
    // list in the same order, so ordinals agree).
    let mut entries: Vec<Entry> = Vec::new();
    if o.generated {
        entries.extend(standard_suite(o.scale).into_iter().map(Entry::Generated));
    }
    for path in &o.snl_files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format_args!("reading {path}: {e}")));
        let name = path
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".snl"))
            .unwrap_or(path)
            .to_owned();
        entries.push(Entry::Ingested {
            name,
            path: path.clone(),
            text,
        });
    }
    if entries.is_empty() {
        fail("nothing to run (use --snl or drop --no-generated)");
    }

    // Shard assignment is planned on weights alone — designs outside
    // this shard are never generated or parsed.
    let (shard_index, shard_count) = o.shard.map_or((1, 1), |(k, n)| (k, n));
    let weights: Vec<f64> = entries.iter().map(Entry::weight).collect();
    let plan = plan_shards(&weights, shard_count);
    let mine = plan.shard(shard_index - 1);

    let mut cache = if o.use_cache {
        Some(DesignCache::open(&o.cache_dir, &lib).unwrap_or_else(|e| fail(e)))
    } else {
        None
    };
    if let Some(dir) = &o.write_snl {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(format_args!("creating {dir}: {e}")));
    }

    // Cache keys, computed once per entry; the full-list suite
    // fingerprint is built from the same keys, shared by every shard
    // process (merge refuses reports whose lists differ).
    let keys: Vec<(&'static str, u64)> = entries.iter().map(Entry::key).collect();
    let suite_fp = suite_fingerprint(
        entries
            .iter()
            .zip(&keys)
            .map(|(entry, &(family, config_fp))| (entry.name(), family, config_fp)),
    );
    let mut suite = WorkloadSuite::new(config)
        .with_threads(o.threads)
        .with_equiv_cycles(o.equiv_cycles)
        .with_total_designs(entries.len())
        .with_suite_fingerprint(suite_fp);
    for &idx in mine {
        let entry = &entries[idx];
        let netlist = entry
            .realise(&lib, keys[idx], cache.as_mut())
            .unwrap_or_else(|e| fail(format_args!("producing {}: {e}", entry.name())));
        if let (Some(dir), Entry::Generated(_)) = (&o.write_snl, entry) {
            let text = snl::write(&netlist, &lib)
                .unwrap_or_else(|e| fail(format_args!("serialising {}: {e}", entry.name())));
            let path = format!("{dir}/{}.snl", entry.name());
            std::fs::write(&path, text)
                .unwrap_or_else(|e| fail(format_args!("writing {path}: {e}")));
            eprintln!("wrote {path}");
        }
        eprintln!(
            "queued #{idx:<3} {:24} {:>7} gates",
            entry.name(),
            netlist.num_instances()
        );
        suite.push_ordinal(entry.name(), idx, netlist);
    }
    if suite.is_empty() {
        // An empty shard is a valid (vacuously passing) run; still emit
        // a mergeable report.
        eprintln!("shard {shard_index}/{shard_count} owns no designs");
    }

    eprintln!(
        "running {} of {} designs under {} (shard {shard_index}/{shard_count}) ...",
        suite.len(),
        entries.len(),
        o.technique
    );
    let mut report = suite.run(&lib);
    report.cache = cache.as_ref().map(|c| c.stats());
    print!("{}", render_suite(&report));
    if let Some(stats) = &report.cache {
        eprintln!("design cache ({}): {stats}", o.cache_dir);
    }
    if let Some(path) = &o.json {
        std::fs::write(path, report.to_json().render())
            .unwrap_or_else(|e| fail(format_args!("writing {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if report.all_passed() {
        println!("suite: PASS — every design completed and is equivalent pre- vs post-flow");
    } else {
        println!("suite: FAIL");
        std::process::exit(1);
    }
}
