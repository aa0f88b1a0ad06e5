//! A minimal, dependency-free timing harness with a Criterion-like
//! surface, used by the `benches/` targets (`harness = false`).
//!
//! The container this reproduction builds in has no network access to
//! crates.io, so Criterion itself cannot be pulled in; this shim keeps the
//! bench sources idiomatic (groups, named benchmarks, closures) while
//! reporting wall-clock statistics from `std::time::Instant`.
//!
//! ```text
//! cargo bench -p smt-bench --bench flow
//! ```
//!
//! ## CI integration
//!
//! Wall-clock assertions flake on shared CI runners, so the harness does
//! not assert — it **records**. Two environment variables drive the CI
//! mode:
//!
//! * `SMT_BENCH_SAMPLES=<n>` overrides every group's sample count
//!   (CI sets `2` for a smoke run);
//! * `SMT_BENCH_JSON=<path>` makes [`Harness::finish`] write (or merge
//!   into) a JSON artifact — `BENCH_<sha>.json` in the workflow — with
//!   every bench's min/median/mean in nanoseconds plus the named scalar
//!   [`Harness::metric`]s (speedup ratios and other runner-independent
//!   quantities). The committed `benches/baseline.json` is compared
//!   against those metrics by the `bench_gate` binary.

use smt_base::json::{self, Json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded benchmark measurement.
#[derive(Debug, Clone)]
pub struct Record {
    /// Group the bench ran under.
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Wall-clock statistics.
    pub stats: Stats,
}

/// Top-level harness: owns output formatting, the default sample count,
/// and the record/metric sink for the JSON artifact.
pub struct Harness {
    samples: usize,
    /// Valid `SMT_BENCH_SAMPLES` override, when one was given — a
    /// malformed value is reported and ignored, so per-group
    /// [`Group::sample_size`] requests still apply.
    env_samples: Option<usize>,
    records: Vec<Record>,
    metrics: BTreeMap<String, f64>,
}

impl Default for Harness {
    fn default() -> Self {
        let env_samples =
            std::env::var("SMT_BENCH_SAMPLES")
                .ok()
                .and_then(|s| match s.parse::<usize>() {
                    Ok(n) if n >= 2 => Some(n),
                    _ => {
                        eprintln!(
                            "smt-bench: ignoring invalid SMT_BENCH_SAMPLES=`{s}` (need >= 2)"
                        );
                        None
                    }
                });
        Harness {
            samples: env_samples.unwrap_or(10),
            env_samples,
            records: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }
}

impl Harness {
    /// A harness with the default sample count (10, or
    /// `SMT_BENCH_SAMPLES` when set).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a named benchmark group.
    pub fn group<'h>(&'h mut self, name: &str) -> Group<'h> {
        println!("\n== {name} ==");
        let samples = self.samples;
        Group {
            harness: self,
            name: name.to_owned(),
            samples,
        }
    }

    /// Records a named scalar metric (a speedup ratio, a cost factor —
    /// anything runner-independent enough for the regression gate).
    pub fn metric(&mut self, name: &str, value: f64) {
        println!("metric {name} = {value:.4}");
        self.metrics.insert(name.to_owned(), value);
    }

    /// All records taken so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Writes the JSON artifact when `SMT_BENCH_JSON` is set (merging
    /// with an existing artifact at the same path, so several bench
    /// binaries can contribute to one `BENCH_<sha>.json`). Call once at
    /// the end of each bench `main`.
    pub fn finish(self) {
        let Ok(path) = std::env::var("SMT_BENCH_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let mut benches: BTreeMap<String, Json> = BTreeMap::new();
        let mut metrics: BTreeMap<String, Json> = BTreeMap::new();
        // Merge a pre-existing artifact (earlier bench binaries).
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(doc) = json::parse(&text) {
                if let Some(b) = doc.get("benches").and_then(Json::as_obj) {
                    benches.extend(b.clone());
                }
                if let Some(m) = doc.get("metrics").and_then(Json::as_obj) {
                    metrics.extend(m.clone());
                }
            }
        }
        for r in &self.records {
            benches.insert(
                format!("{}/{}", r.group, r.id),
                Json::Obj(BTreeMap::from([
                    (
                        "min_ns".to_owned(),
                        Json::Num(r.stats.min.as_nanos() as f64),
                    ),
                    (
                        "median_ns".to_owned(),
                        Json::Num(r.stats.median.as_nanos() as f64),
                    ),
                    (
                        "mean_ns".to_owned(),
                        Json::Num(r.stats.mean.as_nanos() as f64),
                    ),
                ])),
            );
        }
        for (k, v) in &self.metrics {
            metrics.insert(k.clone(), Json::Num(*v));
        }
        let doc = Json::Obj(BTreeMap::from([
            ("schema".to_owned(), Json::Str("smt-bench/1".to_owned())),
            ("samples".to_owned(), Json::Num(self.samples as f64)),
            ("benches".to_owned(), Json::Obj(benches)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ]));
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("smt-bench: could not write {path}: {e}");
        } else {
            println!("\nbench artifact written to {path}");
        }
    }
}

/// A named group of related benchmarks.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Overrides the number of timed samples for this group (a valid
    /// `SMT_BENCH_SAMPLES` environment override still wins).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if self.harness.env_samples.is_none() {
            self.samples = n.max(2);
        }
        self
    }

    fn record(&mut self, id: &str, stats: Stats) {
        println!(
            "{id:40} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}",
            stats.min, stats.median, stats.mean
        );
        self.harness.records.push(Record {
            group: self.name.clone(),
            id: id.to_owned(),
            stats,
        });
    }

    /// Times `f` for `samples` iterations (after one untimed warm-up) and
    /// prints min / median / mean. The closure's result is returned via
    /// `std::hint::black_box` so the computation cannot be optimised away,
    /// and dropped only after the sample is recorded — deallocating the
    /// result is not part of the computation under test.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) -> Stats {
        std::hint::black_box(f()); // warm-up
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            let out = std::hint::black_box(f());
            times.push(t0.elapsed());
            drop(out);
        }
        let stats = Stats::from_times(&mut times);
        self.record(id, stats);
        stats
    }

    /// Like [`Group::bench`] but regenerates the input with `setup` outside
    /// the timed region on every sample (Criterion's `iter_batched`). The
    /// result drops outside the timed window too; a closure that wants its
    /// *input's* deallocation untimed as well can return the input as part
    /// of its result.
    pub fn bench_batched<T, R>(
        &mut self,
        id: &str,
        mut setup: impl FnMut() -> T,
        mut f: impl FnMut(T) -> R,
    ) -> Stats {
        std::hint::black_box(f(setup())); // warm-up
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            let out = std::hint::black_box(f(input));
            times.push(t0.elapsed());
            drop(out);
        }
        let stats = Stats::from_times(&mut times);
        self.record(id, stats);
        stats
    }
}

/// Wall-clock statistics over the timed samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Fastest sample.
    pub min: Duration,
    /// Median sample: the middle one, or the mean of the two middle
    /// ones for an even sample count (so at two samples it is their
    /// mean, not the slower one).
    pub median: Duration,
    /// Mean over all samples.
    pub mean: Duration,
}

impl Stats {
    fn from_times(times: &mut [Duration]) -> Stats {
        times.sort_unstable();
        let total: Duration = times.iter().sum();
        let mid = times.len() / 2;
        let median = if times.len() % 2 == 0 {
            (times[mid - 1] + times[mid]) / 2
        } else {
            times[mid]
        };
        Stats {
            min: times[0],
            median,
            mean: total / times.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_counts_is_the_mean_of_the_middle_two() {
        let ms = Duration::from_millis;
        let stats = |times: &[u64]| {
            let mut times: Vec<Duration> = times.iter().map(|&t| ms(t)).collect();
            Stats::from_times(&mut times)
        };
        assert_eq!(
            stats(&[30, 10]),
            Stats {
                min: ms(10),
                median: ms(20),
                mean: ms(20),
            }
        );
        assert_eq!(
            stats(&[30, 10, 50]),
            Stats {
                min: ms(10),
                median: ms(30),
                mean: ms(30),
            }
        );
        assert_eq!(
            stats(&[40, 10, 100, 20]),
            Stats {
                min: ms(10),
                median: ms(30),
                mean: ms(42) + Duration::from_micros(500),
            }
        );
    }
}
