//! The workload-suite runtime: fan a set of designs through the
//! [`FlowEngine`] and collect one mergeable, shardable report.
//!
//! Where [`run_sweep`](crate::engine::run_sweep) fans **one** design
//! across many configurations, [`WorkloadSuite`] fans **many** designs
//! through one configuration — the shape of a benchmark-suite run (the
//! paper's Table 1 writ large) and the harness every future sharding or
//! caching PR is measured on. Per design it records the flow outcome,
//! the per-corner [`CornerSignoff`] rows and leakage, a per-stage
//! wall-time/WNS trace from an [`Observer`] threaded into the engine,
//! and an *independent* pre- vs post-flow functional-equivalence check
//! (a different stimulus seed than the flow's internal verification, so
//! a seed-shaped verification bug cannot hide).
//!
//! The runtime splits into three pure pieces so CI can scale it out:
//!
//! * [`WorkloadSuite::plan`] deterministically assigns designs to `N`
//!   shards, greedily balancing their gate counts;
//! * [`WorkloadSuite::run_shard`] runs one shard's designs (ordinals
//!   keep their position in the full suite);
//! * [`SuiteReport::merge`] recombines shard reports — commutative,
//!   duplicate-checked, and bit-identical in all deterministic content
//!   ([`SuiteReport::digest`]) to the unsharded run.
//!
//! Reports serialise to JSON ([`SuiteReport::to_json`] /
//! [`SuiteReport::from_json`]) so shards can run in separate processes
//! (the `suite` bin's `--shard K/N` / `--merge` flags), and carry the
//! [`DesignCache`](crate::cache::DesignCache) hit/miss statistics when
//! the driver used one. Every design is placed once, by its own flow.
//!
//! ```no_run
//! use smt_cells::library::Library;
//! use smt_circuits::families::{generate, standard_suite, SuiteScale};
//! use smt_core::engine::{FlowConfig, Technique};
//! use smt_core::suite::WorkloadSuite;
//!
//! let lib = Library::industrial_130nm();
//! let mut suite = WorkloadSuite::new(FlowConfig {
//!     technique: Technique::DualVth,
//!     ..FlowConfig::default()
//! });
//! for w in standard_suite(SuiteScale::Smoke) {
//!     let netlist = generate(&lib, &w.config)
//!         .unwrap_or_else(|e| panic!("generating workload `{}`: {e}", w.name));
//!     suite.push(&w.name, netlist);
//! }
//! let report = suite.run(&lib);
//! assert!(report.all_passed(), "{}", report.render());
//! println!("{}", smt_core::suite::render_suite(&report));
//! ```

use crate::cache::CacheStats;
use crate::engine::{
    build_corner_libs, CornerSignoff, FlowConfig, FlowEngine, FlowError, FlowResult, Observer,
    StageId, StageMetrics,
};
use smt_base::fingerprint::Fnv64;
use smt_base::json::Json;
use smt_base::par::{panic_message, parallel_map};
use smt_base::report::Table;
use smt_base::units::{Area, Current, Time, Volt};
use smt_cells::corner::Corner;
use smt_cells::library::Library;
use smt_netlist::check::DiagCounts;
use smt_netlist::netlist::{Netlist, VthCensus};
use smt_sim::check_equivalence;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One design queued in a suite.
#[derive(Debug, Clone)]
pub struct SuiteDesign {
    /// Report label.
    pub name: String,
    /// Position in the *full* suite (stable across shards; rows carry it
    /// so [`SuiteReport::merge`] can reassemble push order).
    pub ordinal: usize,
    /// The pre-flow (all-low-Vth) netlist.
    pub netlist: Netlist,
}

/// A deterministic assignment of design indices to shards. Every index
/// appears in exactly one shard; within a shard, indices are ascending
/// (suite push order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The design indices assigned to shard `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k >= num_shards()`.
    pub fn shard(&self, k: usize) -> &[usize] {
        &self.shards[k]
    }
}

/// Pure shard assignment over per-design weights (gate counts or
/// estimates): the planning half of the suite runtime, usable *before*
/// any netlist exists (the `suite` bin plans on
/// `FamilyConfig::estimated_gates` so non-shard designs are never
/// generated). Greedy longest-processing-time: designs are placed
/// largest-first onto the currently lightest shard, so a 50k-gate
/// design does not land next to another one. Deterministic (ties break
/// on the lower index / lower shard). `shards == 0` is treated as 1.
pub fn plan_shards(weights: &[f64], shards: usize) -> ShardPlan {
    let n = shards.max(1);
    let mut assign: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let mut load = vec![0.0f64; n];
    for i in order {
        let lightest = load
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(k, _)| k)
            .expect("at least one shard");
        assign[lightest].push(i);
        load[lightest] += weights[i];
    }
    for shard in &mut assign {
        shard.sort_unstable();
    }
    ShardPlan { shards: assign }
}

/// A batch of designs plus the one flow configuration they all run under.
#[derive(Debug, Clone)]
pub struct WorkloadSuite {
    designs: Vec<SuiteDesign>,
    config: FlowConfig,
    threads: usize,
    equiv_cycles: usize,
    total: Option<usize>,
    suite_fp: Option<u64>,
}

impl WorkloadSuite {
    /// An empty suite running `config` (the configured corners apply to
    /// every design; the corner libraries are characterised once and
    /// shared).
    pub fn new(config: FlowConfig) -> Self {
        WorkloadSuite {
            designs: Vec::new(),
            config,
            threads: 0,
            equiv_cycles: 48,
            total: None,
            suite_fp: None,
        }
    }

    /// Queues a design (ordinal = current queue length).
    pub fn push(&mut self, name: &str, netlist: Netlist) {
        let ordinal = self.designs.len();
        self.push_ordinal(name, ordinal, netlist);
    }

    /// Queues a design with an explicit position in the *full* suite —
    /// how a shard process queues only its own designs while keeping
    /// report ordinals global. Pair with
    /// [`WorkloadSuite::with_total_designs`].
    pub fn push_ordinal(&mut self, name: &str, ordinal: usize, netlist: Netlist) {
        self.designs.push(SuiteDesign {
            name: name.to_owned(),
            ordinal,
            netlist,
        });
    }

    /// Caps the worker pool (`0` = one per available core, the default).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Stimulus cycles for the independent equivalence check (`0`
    /// disables it; default 48).
    #[must_use]
    pub fn with_equiv_cycles(mut self, cycles: usize) -> Self {
        self.equiv_cycles = cycles;
        self
    }

    /// Declares how many designs the *full* suite holds, for shard
    /// processes that only queue a subset (defaults to the queue
    /// length). [`SuiteReport::merge`] refuses reports that disagree.
    /// Pair with [`WorkloadSuite::with_suite_fingerprint`] so the
    /// design-list identity is also shared across shard processes.
    #[must_use]
    pub fn with_total_designs(mut self, total: usize) -> Self {
        self.total = Some(total);
        self
    }

    /// Supplies the identity fingerprint of the *full* design list, for
    /// shard processes that only queue a subset. By default the suite
    /// derives it from every queued design (correct whenever the whole
    /// suite is queued, as `run`/`run_shard` in one process do); a
    /// driver that spreads one suite across processes must compute the
    /// full-list fingerprint once ([`suite_fingerprint`]) and pass it to
    /// every shard, or their reports will refuse to merge.
    #[must_use]
    pub fn with_suite_fingerprint(mut self, fingerprint: u64) -> Self {
        self.suite_fp = Some(fingerprint);
        self
    }

    /// Queued designs.
    pub fn designs(&self) -> &[SuiteDesign] {
        &self.designs
    }

    /// Number of queued designs.
    pub fn len(&self) -> usize {
        self.designs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.designs.is_empty()
    }

    /// Deterministically assigns the queued designs to `shards` shards,
    /// weighting by each design's input gate count. Pure: no flow runs,
    /// same plan for the same queue on every call and machine.
    pub fn plan(&self, shards: usize) -> ShardPlan {
        let weights: Vec<f64> = self
            .designs
            .iter()
            .map(|d| d.netlist.num_instances() as f64)
            .collect();
        plan_shards(&weights, shards)
    }

    /// Runs every queued design — the single-shard special case of
    /// [`WorkloadSuite::run_shard`].
    pub fn run(&self, lib: &Library) -> SuiteReport {
        let indices: Vec<usize> = (0..self.designs.len()).collect();
        self.run_indices(lib, &indices)
    }

    /// Runs only the designs `plan` assigns to shard `shard`. The
    /// report's rows keep their full-suite ordinals, so merging every
    /// shard's report reproduces the unsharded run
    /// ([`SuiteReport::merge`]).
    ///
    /// # Panics
    ///
    /// Panics when `shard >= plan.num_shards()`.
    pub fn run_shard(&self, lib: &Library, plan: &ShardPlan, shard: usize) -> SuiteReport {
        self.run_indices(lib, plan.shard(shard))
    }

    /// Fingerprint of everything that makes two shard reports
    /// *mergeable*: the suite size and design-list identity, the
    /// complete flow configuration (every knob, via its canonical
    /// `config_io` JSON rendering), the equivalence-check depth, and
    /// the library. Shards of the same suite under the same config
    /// agree; anything else must not merge.
    fn config_fingerprint(&self, lib: &Library) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(self.total.unwrap_or(self.designs.len()));
        // The whole FlowConfig — technique, corners, clock policy, and
        // every stage sub-config — through its canonical single-line
        // JSON form, so new knobs are covered as config_io learns them.
        h.write_str(&self.config.to_json());
        h.write_usize(self.equiv_cycles);
        h.write_u64(lib.fingerprint());
        match self.suite_fp {
            Some(fp) => h.write_u64(fp),
            // Whole suite queued in this process: derive the design-list
            // identity directly.
            None => {
                for d in &self.designs {
                    h.write_usize(d.ordinal);
                    h.write_str(&d.name);
                    h.write_usize(d.netlist.num_instances());
                }
            }
        }
        h.finish()
    }

    /// Runs the given queue indices, one design per worker thread on the
    /// shared [`parallel_map`] pool, with panics isolated per design
    /// ([`FlowError::RunPanicked`]). Rows come back in index order.
    fn run_indices(&self, lib: &Library, indices: &[usize]) -> SuiteReport {
        // One corner characterisation for the whole batch.
        let corner_libs = build_corner_libs(lib, &self.config.corners);
        let t0 = Instant::now();
        let selected: Vec<&SuiteDesign> = indices.iter().map(|&i| &self.designs[i]).collect();
        let rows: Vec<SuiteRow> = parallel_map(&selected, self.threads, |design| {
            let design: &SuiteDesign = design;
            let started = Instant::now();
            // Per-stage telemetry: the observer lives outside the
            // catch_unwind so a mid-flow panic still surfaces the stages
            // that completed.
            let trace: Rc<RefCell<Vec<StageSample>>> = Rc::new(RefCell::new(Vec::new()));
            // The whole per-design pipeline (flow *and* the equivalence
            // re-check) runs under one catch_unwind: a panic anywhere in
            // one design becomes that design's Err row instead of
            // tearing down the batch.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let r = FlowEngine::with_corner_libraries(
                    lib,
                    self.config.clone(),
                    corner_libs.clone(),
                )
                .observe(TraceObserver(trace.clone()))
                .run_netlist(design.netlist.clone())?;
                // The flow must never change logic: re-check the final
                // netlist against the *input* netlist under a stimulus
                // seed unrelated to the flow's own. A check that cannot
                // even be set up is reported as its own failure kind —
                // not disguised as a logic divergence.
                let (equivalent, equiv_error, cycles_run, truncated) = if self.equiv_cycles > 0 {
                    let mut reference = design.netlist.clone();
                    crate::verify::mirror_control_ports(&mut reference, &r.netlist);
                    match check_equivalence(
                        &reference,
                        &r.netlist,
                        lib,
                        self.equiv_cycles,
                        0xD0E5 ^ self.config.seed,
                    ) {
                        Ok(rep) => (
                            Some(rep.is_equivalent()),
                            None,
                            Some(rep.cycles),
                            Some(rep.truncated),
                        ),
                        Err(e) => (Some(false), Some(e.to_string()), None, None),
                    }
                } else {
                    (None, None, None, None)
                };
                let mut outcome = SuiteOutcome::from_flow(&r);
                outcome.equivalent = equivalent;
                outcome.equiv_error = equiv_error;
                outcome.equiv_cycles_run = cycles_run;
                outcome.equiv_truncated = truncated;
                Ok(outcome)
            }))
            .unwrap_or_else(|payload| {
                Err(FlowError::RunPanicked {
                    message: panic_message(payload),
                })
            });
            let stages = std::mem::take(&mut *trace.borrow_mut());
            SuiteRow {
                name: design.name.clone(),
                ordinal: design.ordinal,
                gates_in: design.netlist.num_instances(),
                elapsed: started.elapsed(),
                stages,
                outcome,
            }
        });
        SuiteReport {
            rows,
            total_designs: self.total.unwrap_or(self.designs.len()),
            config_fingerprint: self.config_fingerprint(lib),
            wall: t0.elapsed(),
            cache: None,
        }
    }
}

/// The identity of a full design list, which every shard of one suite
/// passes to [`WorkloadSuite::with_suite_fingerprint`]: per entry
/// `(name, family, config fingerprint)` into one [`Fnv64`]. Every
/// `suite --shard K/N` process computes it from the same full list, so
/// their reports merge.
pub fn suite_fingerprint<'a>(entries: impl IntoIterator<Item = (&'a str, &'a str, u64)>) -> u64 {
    let mut h = Fnv64::new();
    for (name, family, config_fp) in entries {
        h.write_str(name);
        h.write_str(family);
        h.write_u64(config_fp);
    }
    h.finish()
}

/// The suite's per-stage telemetry hook: records every completed
/// engine stage's identity, wall time and (where the stage ran timing)
/// WNS into the shared trace.
struct TraceObserver(Rc<RefCell<Vec<StageSample>>>);

impl Observer for TraceObserver {
    fn on_stage_end(&mut self, stage: StageId, metrics: &StageMetrics, elapsed: Duration) {
        self.0.borrow_mut().push(StageSample {
            id: stage,
            elapsed,
            wns: metrics.wns,
        });
    }
}

/// One engine stage's telemetry within one design's flow run.
#[derive(Debug, Clone)]
pub struct StageSample {
    /// Which stage.
    pub id: StageId,
    /// The stage's wall-clock time.
    pub elapsed: Duration,
    /// Setup WNS reported by the stage, when it ran timing.
    pub wns: Option<Time>,
}

/// What one successful flow run contributed to the report.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Final live cell count.
    pub cells: usize,
    /// Final cell area.
    pub area: Area,
    /// Chosen clock period.
    pub clock_period: Time,
    /// Final setup WNS at the primary corner.
    pub wns: Time,
    /// Hold violations remaining after ECO.
    pub hold_violations: usize,
    /// Standby leakage (gated-mode snapshot).
    pub standby_leakage: Current,
    /// Active-mode leakage.
    pub active_leakage: Current,
    /// Final Vth census.
    pub census: VthCensus,
    /// The flow's own verification verdict (lint + equivalence +
    /// standby-float checks).
    pub verify_passed: bool,
    /// Static-analysis severity tallies from the flow's signoff lint
    /// (zero errors on a passing run; warnings/infos are the design's
    /// structural health counters). Merge-summed across a report via
    /// [`SuiteReport::diag_totals`].
    pub diagnostics: DiagCounts,
    /// The suite's independent pre- vs post-flow equivalence check
    /// (`None` when disabled via
    /// [`WorkloadSuite::with_equiv_cycles`]`(0)`; `Some(false)` with
    /// [`SuiteOutcome::equiv_error`] set when the check could not even
    /// be constructed).
    pub equivalent: Option<bool>,
    /// Why the equivalence check failed to *run*, when it did (a port
    /// mismatch beyond the known control ports, a simulator setup
    /// failure) — distinguishes infrastructure trouble from a real
    /// logic divergence.
    pub equiv_error: Option<String>,
    /// Stimulus cycles the independent check *actually* simulated — not
    /// the requested depth. `Some(0)` means the fraig fast path proved
    /// every output without simulating a vector.
    pub equiv_cycles_run: Option<usize>,
    /// True when the independent check's mismatch cap cut the run
    /// short: the verdict rests on a prefix of the requested stimulus.
    pub equiv_truncated: Option<bool>,
    /// Per-corner signoff rows, in corner-set order.
    pub corner_signoff: Vec<CornerSignoff>,
    /// Track demand above capacity over the final global route
    /// ([`FlowResult::overflow`]).
    pub overflow: u64,
}

impl SuiteOutcome {
    /// True when the flow verified clean and the independent equivalence
    /// check (if enabled) agreed.
    pub fn passed(&self) -> bool {
        self.verify_passed && self.equivalent != Some(false)
    }

    /// The signoff view of one completed flow run, with the suite-level
    /// equivalence verdict unset ([`SuiteOutcome::equivalent`] stays
    /// `None`). This is the same projection the suite runtime records
    /// per design, so a one-shot flow and a suite row over the same
    /// design digest identically — the contract the `smtd` daemon's
    /// warm-vs-cold check rests on.
    pub fn from_flow(r: &FlowResult) -> SuiteOutcome {
        SuiteOutcome {
            cells: r.netlist.num_instances(),
            area: r.area,
            clock_period: r.clock_period,
            wns: r.timing.wns,
            hold_violations: r.hold_fix.remaining,
            standby_leakage: r.standby_leakage,
            active_leakage: r.active_leakage,
            census: r.census,
            verify_passed: r.verify.passed(),
            diagnostics: r.verify.lint.counts(),
            equivalent: None,
            equiv_error: None,
            equiv_cycles_run: None,
            equiv_truncated: None,
            corner_signoff: r.corner_signoff.clone(),
            overflow: r.overflow,
        }
    }

    /// Canonical JSON form (the same rendering used inside
    /// [`SuiteReport::to_json`] rows).
    pub fn to_json(&self) -> Json {
        outcome_to_json(self)
    }

    /// Reloads an outcome serialised by [`SuiteOutcome::to_json`];
    /// `name` only labels error messages.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn from_json(json: &Json, name: &str) -> Result<SuiteOutcome, String> {
        outcome_from_json(json, name)
    }

    /// Stable fingerprint of the outcome's canonical JSON rendering.
    /// Two runs producing bit-identical results digest equal; this is
    /// what lets a service response assert warm-path determinism
    /// without shipping the whole netlist back.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.to_json().render());
        h.finish()
    }
}

/// One design's row in the report.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// Design label.
    pub name: String,
    /// Position in the full suite (stable across shards).
    pub ordinal: usize,
    /// Input (pre-flow) gate count.
    pub gates_in: usize,
    /// Wall-clock time of this design's flow.
    pub elapsed: Duration,
    /// Per-stage telemetry, in execution order (partial when the flow
    /// failed mid-way).
    pub stages: Vec<StageSample>,
    /// The flow outcome (suites keep going when individual designs
    /// fail).
    pub outcome: Result<SuiteOutcome, FlowError>,
}

/// Why [`SuiteReport::merge`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No reports were given.
    Empty,
    /// Two reports disagree about the full suite's design count.
    TotalMismatch {
        /// The first report's total.
        expected: usize,
        /// The disagreeing report's total.
        found: usize,
    },
    /// Two reports were produced under different suite configurations
    /// (technique, corners, flow seed, equivalence depth, library, or
    /// suite size) — their rows must not recombine into one verdict.
    ConfigMismatch {
        /// The first report's configuration fingerprint.
        expected: u64,
        /// The disagreeing report's fingerprint.
        found: u64,
    },
    /// The same design ordinal appears in more than one report (a shard
    /// ran twice, or overlapping plans were merged).
    DuplicateOrdinal {
        /// The colliding ordinal.
        ordinal: usize,
        /// The design name at that ordinal.
        name: String,
    },
    /// A row's ordinal is not in `0..total_designs`.
    OrdinalOutOfRange {
        /// The offending ordinal.
        ordinal: usize,
        /// The declared suite size.
        total: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no reports to merge"),
            MergeError::TotalMismatch { expected, found } => write!(
                f,
                "reports disagree on suite size ({expected} vs {found} designs)"
            ),
            MergeError::ConfigMismatch { expected, found } => write!(
                f,
                "reports come from different suite configurations \
                 (fingerprint {expected:016x} vs {found:016x})"
            ),
            MergeError::DuplicateOrdinal { ordinal, name } => write!(
                f,
                "design #{ordinal} (`{name}`) appears in more than one report"
            ),
            MergeError::OrdinalOutOfRange { ordinal, total } => write!(
                f,
                "design ordinal {ordinal} out of range for a {total}-design suite"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Everything a suite run produced.
#[derive(Debug)]
pub struct SuiteReport {
    /// Per-design rows, in push order (full-suite ordinal order after a
    /// merge).
    pub rows: Vec<SuiteRow>,
    /// How many designs the full suite holds (== `rows.len()` for
    /// unsharded runs; larger for a single shard's report).
    pub total_designs: usize,
    /// Fingerprint of the suite configuration the rows were produced
    /// under (suite size, technique, corners, flow seed, clock policy,
    /// equivalence depth, library). [`SuiteReport::merge`] refuses
    /// reports that disagree — rows from different configurations must
    /// not recombine into one verdict.
    pub config_fingerprint: u64,
    /// Wall-clock time of the whole batch (max across shards after a
    /// merge).
    pub wall: Duration,
    /// Design-cache statistics, when the driver used one (summed across
    /// shards by [`SuiteReport::merge`]).
    pub cache: Option<CacheStats>,
}

impl SuiteReport {
    /// True when every design completed, verified clean, and passed the
    /// independent equivalence check.
    pub fn all_passed(&self) -> bool {
        self.rows
            .iter()
            .all(|r| matches!(&r.outcome, Ok(o) if o.passed()))
    }

    /// Ordinals of designs the report is missing (shards not yet
    /// merged in). Empty for a complete report.
    pub fn missing_ordinals(&self) -> Vec<usize> {
        let mut present = vec![false; self.total_designs];
        for row in &self.rows {
            if let Some(slot) = present.get_mut(row.ordinal) {
                *slot = true;
            }
        }
        present
            .iter()
            .enumerate()
            .filter(|(_, &p)| !p)
            .map(|(o, _)| o)
            .collect()
    }

    /// Total input gates across designs that completed.
    pub fn gates_completed(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(|r| r.gates_in)
            .sum()
    }

    /// Batch throughput: completed input gates per wall-clock second —
    /// the headline `suite_throughput` quantity the bench suite tracks
    /// as a parallel-vs-serial ratio.
    pub fn gates_per_second(&self) -> f64 {
        self.gates_completed() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Static-analysis tallies summed across every completed design —
    /// the suite-level structural-health counter. Merge-stable: shards
    /// sum row-wise, so merged totals equal the unsharded run's.
    pub fn diag_totals(&self) -> DiagCounts {
        let mut total = DiagCounts::default();
        for row in &self.rows {
            if let Ok(o) = &row.outcome {
                total.add(o.diagnostics);
            }
        }
        total
    }

    /// Recombines shard reports into one, in full-suite ordinal order.
    /// Commutative: any merge order yields the identical report (rows
    /// sort by ordinal, cache statistics sum, walls max — and the
    /// [`SuiteReport::digest`] of merged shards equals the unsharded
    /// run's).
    ///
    /// # Errors
    ///
    /// [`MergeError`] on an empty input, disagreeing suite sizes,
    /// duplicated ordinals, or ordinals outside the suite.
    pub fn merge(
        reports: impl IntoIterator<Item = SuiteReport>,
    ) -> Result<SuiteReport, MergeError> {
        let mut it = reports.into_iter();
        let first = it.next().ok_or(MergeError::Empty)?;
        let total = first.total_designs;
        let config_fingerprint = first.config_fingerprint;
        let mut wall = first.wall;
        let mut cache = first.cache;
        let mut rows = first.rows;
        for report in it {
            if report.total_designs != total {
                return Err(MergeError::TotalMismatch {
                    expected: total,
                    found: report.total_designs,
                });
            }
            if report.config_fingerprint != config_fingerprint {
                return Err(MergeError::ConfigMismatch {
                    expected: config_fingerprint,
                    found: report.config_fingerprint,
                });
            }
            wall = wall.max(report.wall);
            cache = match (cache, report.cache) {
                (Some(a), Some(b)) => Some(a.merged(b)),
                (a, b) => a.or(b),
            };
            rows.extend(report.rows);
        }
        rows.sort_by_key(|r| r.ordinal);
        for pair in rows.windows(2) {
            if pair[0].ordinal == pair[1].ordinal {
                return Err(MergeError::DuplicateOrdinal {
                    ordinal: pair[1].ordinal,
                    name: pair[1].name.clone(),
                });
            }
        }
        if let Some(row) = rows.iter().find(|r| r.ordinal >= total) {
            return Err(MergeError::OrdinalOutOfRange {
                ordinal: row.ordinal,
                total,
            });
        }
        Ok(SuiteReport {
            rows,
            total_designs: total,
            config_fingerprint,
            wall,
            cache,
        })
    }

    /// The per-design summary table.
    pub fn render(&self) -> Table {
        let mut t = Table::new(
            "Workload suite",
            &[
                "Design",
                "Gates in",
                "Cells",
                "Clock ps",
                "WNS ps",
                "Hold",
                "Standby uA",
                "Overflow",
                "Equiv",
                "Status",
                "Time s",
            ],
        );
        for row in &self.rows {
            match &row.outcome {
                Ok(o) => t.row_owned(vec![
                    row.name.clone(),
                    row.gates_in.to_string(),
                    o.cells.to_string(),
                    format!("{:.1}", o.clock_period.ps()),
                    format!("{:.1}", o.wns.ps()),
                    o.hold_violations.to_string(),
                    format!("{:.5}", o.standby_leakage.ua()),
                    o.overflow.to_string(),
                    match (o.equivalent, &o.equiv_error) {
                        (_, Some(_)) => "ERR".to_owned(),
                        // `0 cycles` = every output was fraig-proven.
                        (Some(true), None) if o.equiv_cycles_run == Some(0) => "proved".to_owned(),
                        (Some(true), None) => "yes".to_owned(),
                        (Some(false), None) if o.equiv_truncated == Some(true) => {
                            "NO (capped)".to_owned()
                        }
                        (Some(false), None) => "NO".to_owned(),
                        (None, None) => "-".to_owned(),
                    },
                    match (&o.equiv_error, o.passed()) {
                        (Some(e), _) => format!("FAIL (equiv check: {e})"),
                        (None, true) => "ok".to_owned(),
                        (None, false) => "FAIL".to_owned(),
                    },
                    format!("{:.2}", row.elapsed.as_secs_f64()),
                ]),
                Err(e) => t.row_owned(vec![
                    row.name.clone(),
                    row.gates_in.to_string(),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    format!("ERROR: {e}"),
                    format!("{:.2}", row.elapsed.as_secs_f64()),
                ]),
            }
        }
        t
    }

    /// The per-corner signoff table across all completed designs (one
    /// row per design × corner).
    pub fn render_corners(&self) -> Table {
        let mut t = Table::new(
            "Workload suite: per-corner signoff",
            &[
                "Design",
                "Corner",
                "WNS ps",
                "Hold viol.",
                "Standby uA",
                "Active uA",
            ],
        );
        for row in &self.rows {
            let Ok(o) = &row.outcome else { continue };
            for c in &o.corner_signoff {
                t.row_owned(vec![
                    row.name.clone(),
                    c.corner.name.clone(),
                    format!("{:.1}", c.wns.ps()),
                    c.hold_violations.to_string(),
                    format!("{:.6}", c.standby_leakage.ua()),
                    format!("{:.6}", c.active_leakage.ua()),
                ]);
            }
        }
        t
    }

    /// Aggregates the per-design stage traces into one profile —
    /// derived from the rows on demand (always in row order), so a
    /// merged report profiles identically to the unsharded run.
    pub fn stage_profile(&self) -> StageProfile {
        StageProfile::from_rows(&self.rows)
    }

    /// A stable fingerprint of the report's *deterministic* content:
    /// every row's ordinal, name, gate count, outcome (incl. census and
    /// per-corner signoff) and stage trace (stage identities and WNS
    /// values), plus the suite size. Wall-clock times and cache
    /// statistics are excluded — they legitimately differ between runs.
    /// Two runs of the same suite on the same library digest equal;
    /// merged shards digest equal to the unsharded run; a warm-cache
    /// re-run digests equal to the run that filled the cache.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.to_json_with(false).render());
        h.finish()
    }

    /// Serialises the full report (including timings and cache
    /// statistics) for cross-process shard merging.
    pub fn to_json(&self) -> Json {
        self.to_json_with(true)
    }

    fn to_json_with(&self, timing: bool) -> Json {
        let mut top = BTreeMap::new();
        top.insert("format".to_owned(), Json::Str(FORMAT_TAG.to_owned()));
        top.insert(
            "total_designs".to_owned(),
            Json::Num(self.total_designs as f64),
        );
        top.insert(
            "config_fp".to_owned(),
            Json::Str(format!("{:016x}", self.config_fingerprint)),
        );
        if timing {
            // The report's own digest rides along (outside the digested
            // content — `digest()` hashes the `timing == false` form) so
            // consumers of a shard file can verify the deterministic
            // content survived transport. `from_json` checks it on load.
            top.insert(
                "digest".to_owned(),
                Json::Str(format!("{:016x}", self.digest())),
            );
            top.insert("wall_s".to_owned(), Json::Num(self.wall.as_secs_f64()));
            if let Some(cache) = &self.cache {
                let mut c = BTreeMap::new();
                c.insert("hits".to_owned(), Json::Num(cache.hits as f64));
                c.insert("misses".to_owned(), Json::Num(cache.misses as f64));
                c.insert(
                    "invalidated".to_owned(),
                    Json::Num(cache.invalidated as f64),
                );
                top.insert("cache".to_owned(), Json::Obj(c));
            }
        }
        let rows = self.rows.iter().map(|r| row_to_json(r, timing)).collect();
        top.insert("rows".to_owned(), Json::Arr(rows));
        Json::Obj(top)
    }

    /// Reloads a report serialised by [`SuiteReport::to_json`].
    /// Structured [`FlowError`]s come back as
    /// [`FlowError::Reported`]; all deterministic content round-trips
    /// exactly ([`SuiteReport::digest`] is preserved).
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn from_json(json: &Json) -> Result<SuiteReport, String> {
        let format = json
            .get("format")
            .and_then(Json::as_str)
            .ok_or("missing `format` tag")?;
        if format != FORMAT_TAG {
            return Err(format!("unsupported report format `{format}`"));
        }
        let total_designs = json
            .get("total_designs")
            .and_then(Json::as_usize)
            .ok_or("missing `total_designs`")?;
        let config_fingerprint = json
            .get("config_fp")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("missing or malformed `config_fp`")?;
        let wall =
            Duration::try_from_secs_f64(json.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0))
                .unwrap_or(Duration::ZERO);
        let cache = json.get("cache").map(|c| {
            let n = |k: &str| c.get(k).and_then(Json::as_usize).unwrap_or(0);
            CacheStats {
                hits: n("hits"),
                misses: n("misses"),
                invalidated: n("invalidated"),
            }
        });
        let rows = json
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing `rows`")?
            .iter()
            .map(row_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        let report = SuiteReport {
            rows,
            total_designs,
            config_fingerprint,
            wall,
            cache,
        };
        // Integrity check: when the serialised form carries its digest
        // (every report written by `to_json` does), the reloaded
        // deterministic content must hash to the same value — a
        // truncated or hand-edited shard file must not merge quietly.
        if let Some(expect) = json.get("digest").and_then(Json::as_str) {
            let expect =
                u64::from_str_radix(expect, 16).map_err(|_| "malformed `digest`".to_owned())?;
            let got = report.digest();
            if got != expect {
                return Err(format!(
                    "report digest mismatch: file claims {expect:016x}, \
                     content hashes to {got:016x} (corrupt or edited report)"
                ));
            }
        }
        Ok(report)
    }
}

/// Format tag guarding [`SuiteReport::from_json`] against foreign files.
const FORMAT_TAG: &str = "smt-suite-report-v3";

fn row_to_json(row: &SuiteRow, timing: bool) -> Json {
    let mut m = BTreeMap::new();
    m.insert("name".to_owned(), Json::Str(row.name.clone()));
    m.insert("ordinal".to_owned(), Json::Num(row.ordinal as f64));
    m.insert("gates_in".to_owned(), Json::Num(row.gates_in as f64));
    if timing {
        m.insert("elapsed_s".to_owned(), Json::Num(row.elapsed.as_secs_f64()));
    }
    let stages = row
        .stages
        .iter()
        .map(|s| {
            let mut sm = BTreeMap::new();
            sm.insert("id".to_owned(), Json::Str(s.id.key().to_owned()));
            if timing {
                sm.insert("s".to_owned(), Json::Num(s.elapsed.as_secs_f64()));
            }
            sm.insert(
                "wns_ps".to_owned(),
                s.wns.map_or(Json::Null, |w| Json::Num(w.ps())),
            );
            Json::Obj(sm)
        })
        .collect();
    m.insert("stages".to_owned(), Json::Arr(stages));
    m.insert(
        "outcome".to_owned(),
        match &row.outcome {
            Ok(o) => outcome_to_json(o),
            Err(e) => {
                let mut em = BTreeMap::new();
                em.insert("error".to_owned(), Json::Str(e.to_string()));
                Json::Obj(em)
            }
        },
    );
    Json::Obj(m)
}

fn outcome_to_json(o: &SuiteOutcome) -> Json {
    let mut m = BTreeMap::new();
    m.insert("cells".to_owned(), Json::Num(o.cells as f64));
    m.insert("area_um2".to_owned(), Json::Num(o.area.um2()));
    m.insert("clock_ps".to_owned(), Json::Num(o.clock_period.ps()));
    m.insert("wns_ps".to_owned(), Json::Num(o.wns.ps()));
    m.insert(
        "hold_violations".to_owned(),
        Json::Num(o.hold_violations as f64),
    );
    m.insert("standby_ua".to_owned(), Json::Num(o.standby_leakage.ua()));
    m.insert("active_ua".to_owned(), Json::Num(o.active_leakage.ua()));
    m.insert("overflow".to_owned(), Json::Num(o.overflow as f64));
    let mut census = BTreeMap::new();
    for (k, v) in [
        ("low", o.census.low),
        ("high", o.census.high),
        ("mt_embedded", o.census.mt_embedded),
        ("mt_vgnd", o.census.mt_vgnd),
        ("switches", o.census.switches),
        ("holders", o.census.holders),
        ("ffs", o.census.ffs),
    ] {
        census.insert(k.to_owned(), Json::Num(v as f64));
    }
    m.insert("census".to_owned(), Json::Obj(census));
    m.insert("verify_passed".to_owned(), Json::Bool(o.verify_passed));
    let mut diags = BTreeMap::new();
    for (k, v) in [
        ("errors", o.diagnostics.errors),
        ("warnings", o.diagnostics.warnings),
        ("infos", o.diagnostics.infos),
    ] {
        diags.insert(k.to_owned(), Json::Num(v as f64));
    }
    m.insert("diagnostics".to_owned(), Json::Obj(diags));
    m.insert(
        "equivalent".to_owned(),
        o.equivalent.map_or(Json::Null, Json::Bool),
    );
    if let Some(err) = &o.equiv_error {
        m.insert("equiv_error".to_owned(), Json::Str(err.clone()));
    }
    if let Some(c) = o.equiv_cycles_run {
        m.insert("equiv_cycles_run".to_owned(), Json::Num(c as f64));
    }
    if let Some(t) = o.equiv_truncated {
        m.insert("equiv_truncated".to_owned(), Json::Bool(t));
    }
    let corners = o
        .corner_signoff
        .iter()
        .map(|c| {
            let mut cm = BTreeMap::new();
            cm.insert("name".to_owned(), Json::Str(c.corner.name.clone()));
            cm.insert(
                "vth_shift_v".to_owned(),
                Json::Num(c.corner.vth_shift.volts()),
            );
            cm.insert("ron_scale".to_owned(), Json::Num(c.corner.ron_scale));
            cm.insert("vdd_scale".to_owned(), Json::Num(c.corner.vdd_scale));
            cm.insert("temp_c".to_owned(), Json::Num(c.corner.temp_c));
            cm.insert("check_setup".to_owned(), Json::Bool(c.corner.check_setup));
            cm.insert("check_hold".to_owned(), Json::Bool(c.corner.check_hold));
            cm.insert("wns_ps".to_owned(), Json::Num(c.wns.ps()));
            cm.insert("tns_ps".to_owned(), Json::Num(c.tns.ps()));
            cm.insert(
                "hold_violations".to_owned(),
                Json::Num(c.hold_violations as f64),
            );
            cm.insert("standby_ua".to_owned(), Json::Num(c.standby_leakage.ua()));
            cm.insert("active_ua".to_owned(), Json::Num(c.active_leakage.ua()));
            Json::Obj(cm)
        })
        .collect();
    m.insert("corners".to_owned(), Json::Arr(corners));
    Json::Obj(m)
}

fn row_from_json(json: &Json) -> Result<SuiteRow, String> {
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or("row missing `name`")?
        .to_owned();
    let field = |key: &str| format!("row `{name}` missing `{key}`");
    let ordinal = json
        .get("ordinal")
        .and_then(Json::as_usize)
        .ok_or_else(|| field("ordinal"))?;
    let gates_in = json
        .get("gates_in")
        .and_then(Json::as_usize)
        .ok_or_else(|| field("gates_in"))?;
    let elapsed =
        Duration::try_from_secs_f64(json.get("elapsed_s").and_then(Json::as_f64).unwrap_or(0.0))
            .unwrap_or(Duration::ZERO);
    let stages = json
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or_else(|| field("stages"))?
        .iter()
        .map(|s| {
            let key = s
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| field("stages[].id"))?;
            let id = StageId::from_key(key)
                .ok_or_else(|| format!("row `{name}`: unknown stage `{key}`"))?;
            let elapsed =
                Duration::try_from_secs_f64(s.get("s").and_then(Json::as_f64).unwrap_or(0.0))
                    .unwrap_or(Duration::ZERO);
            let wns = s.get("wns_ps").and_then(Json::as_f64).map(Time::new);
            Ok(StageSample { id, elapsed, wns })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let outcome_json = json.get("outcome").ok_or_else(|| field("outcome"))?;
    let outcome = if let Some(error) = outcome_json.get("error").and_then(Json::as_str) {
        Err(FlowError::Reported {
            message: error.to_owned(),
        })
    } else {
        Ok(outcome_from_json(outcome_json, &name)?)
    };
    Ok(SuiteRow {
        name,
        ordinal,
        gates_in,
        elapsed,
        stages,
        outcome,
    })
}

fn outcome_from_json(json: &Json, name: &str) -> Result<SuiteOutcome, String> {
    let field = |key: &str| format!("row `{name}` outcome missing `{key}`");
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| field(key))
    };
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| field(key))
    };
    let census_json = json.get("census").ok_or_else(|| field("census"))?;
    let census_count = |key: &str| {
        census_json
            .get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("row `{name}` census missing `{key}`"))
    };
    let census = VthCensus {
        low: census_count("low")?,
        high: census_count("high")?,
        mt_embedded: census_count("mt_embedded")?,
        mt_vgnd: census_count("mt_vgnd")?,
        switches: census_count("switches")?,
        holders: census_count("holders")?,
        ffs: census_count("ffs")?,
    };
    let corner_signoff = json
        .get("corners")
        .and_then(Json::as_arr)
        .ok_or_else(|| field("corners"))?
        .iter()
        .map(|c| {
            let cfield = |key: &str| format!("row `{name}` corner missing `{key}`");
            let cnum = |key: &str| c.get(key).and_then(Json::as_f64).ok_or_else(|| cfield(key));
            Ok(CornerSignoff {
                corner: Corner {
                    name: c
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| cfield("name"))?
                        .to_owned(),
                    vth_shift: Volt::new(cnum("vth_shift_v")?),
                    ron_scale: cnum("ron_scale")?,
                    vdd_scale: cnum("vdd_scale")?,
                    temp_c: cnum("temp_c")?,
                    check_setup: c
                        .get("check_setup")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| cfield("check_setup"))?,
                    check_hold: c
                        .get("check_hold")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| cfield("check_hold"))?,
                },
                wns: Time::new(cnum("wns_ps")?),
                tns: Time::new(cnum("tns_ps")?),
                hold_violations: c
                    .get("hold_violations")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| cfield("hold_violations"))?,
                standby_leakage: Current::new(cnum("standby_ua")?),
                active_leakage: Current::new(cnum("active_ua")?),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SuiteOutcome {
        cells: count("cells")?,
        area: Area::new(num("area_um2")?),
        clock_period: Time::new(num("clock_ps")?),
        wns: Time::new(num("wns_ps")?),
        hold_violations: count("hold_violations")?,
        standby_leakage: Current::new(num("standby_ua")?),
        active_leakage: Current::new(num("active_ua")?),
        census,
        diagnostics: {
            let dj = json
                .get("diagnostics")
                .ok_or_else(|| field("diagnostics"))?;
            let dcount = |key: &str| {
                dj.get(key)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("row `{name}` diagnostics missing `{key}`"))
            };
            DiagCounts {
                errors: dcount("errors")?,
                warnings: dcount("warnings")?,
                infos: dcount("infos")?,
            }
        },
        verify_passed: json
            .get("verify_passed")
            .and_then(Json::as_bool)
            .ok_or_else(|| field("verify_passed"))?,
        equivalent: json.get("equivalent").and_then(Json::as_bool),
        equiv_error: json
            .get("equiv_error")
            .and_then(Json::as_str)
            .map(str::to_owned),
        equiv_cycles_run: json.get("equiv_cycles_run").and_then(Json::as_usize),
        equiv_truncated: json.get("equiv_truncated").and_then(Json::as_bool),
        corner_signoff,
        overflow: json
            .get("overflow")
            .and_then(Json::as_u64)
            .ok_or_else(|| field("overflow"))?,
    })
}

// ---------------------------------------------------------------------------
// Stage profile
// ---------------------------------------------------------------------------

/// Per-stage aggregate across every design in a report: how much wall
/// time each Fig. 4 stage consumed and how it moved WNS — the table
/// that says which stage dominates at which design scale, i.e. where
/// the next perf tentpole should aim.
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    /// One row per stage that executed, in Fig. 4 plan order.
    pub rows: Vec<StageProfileRow>,
}

/// One stage's aggregate in a [`StageProfile`].
#[derive(Debug, Clone)]
pub struct StageProfileRow {
    /// The stage.
    pub id: StageId,
    /// How many design runs executed this stage.
    pub runs: usize,
    /// Summed wall time across those runs.
    pub total: Duration,
    /// Summed WNS movement attributed to this stage: for each design,
    /// the stage's reported WNS minus the previous timing-reporting
    /// stage's (negative = this stage consumed slack).
    pub wns_delta: Time,
    /// How many design runs contributed a WNS delta.
    pub wns_runs: usize,
}

impl StageProfile {
    /// Aggregates rows' stage traces (deterministic: rows are walked in
    /// order, and per-design deltas are computed within each row).
    pub fn from_rows(rows: &[SuiteRow]) -> StageProfile {
        let mut by_stage: BTreeMap<usize, StageProfileRow> = BTreeMap::new();
        let stage_pos = |id: StageId| {
            StageId::ALL
                .iter()
                .position(|&s| s == id)
                .expect("StageId::ALL is exhaustive")
        };
        for row in rows {
            let mut prev_wns: Option<Time> = None;
            for sample in &row.stages {
                let entry =
                    by_stage
                        .entry(stage_pos(sample.id))
                        .or_insert_with(|| StageProfileRow {
                            id: sample.id,
                            runs: 0,
                            total: Duration::ZERO,
                            wns_delta: Time::ZERO,
                            wns_runs: 0,
                        });
                entry.runs += 1;
                entry.total += sample.elapsed;
                // PlaceAndClock's WNS comes from the clock-selection
                // probe (a deliberately huge period), so it is not
                // comparable to the committed-clock WNS of later stages
                // and is kept out of the delta chain.
                if sample.id == StageId::PlaceAndClock {
                    continue;
                }
                if let Some(wns) = sample.wns {
                    if let Some(prev) = prev_wns {
                        entry.wns_delta += wns - prev;
                        entry.wns_runs += 1;
                    }
                    prev_wns = Some(wns);
                }
            }
        }
        StageProfile {
            rows: by_stage.into_values().collect(),
        }
    }

    /// True when no stage executed (no designs, or all panicked before
    /// their first stage).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Summed wall time across all stages and designs.
    pub fn total(&self) -> Duration {
        self.rows.iter().map(|r| r.total).sum()
    }

    /// The stage consuming the most summed wall time.
    pub fn dominant(&self) -> Option<&StageProfileRow> {
        self.rows.iter().max_by(|a, b| a.total.cmp(&b.total))
    }

    /// The profile as a table: per stage, run count, summed time, share
    /// of the total flow time, and mean WNS movement.
    pub fn render(&self) -> Table {
        let mut t = Table::new(
            "Workload suite: stage profile",
            &["Stage", "Runs", "Total s", "Share", "Mean s", "WNS d ps"],
        );
        let overall = self.total().as_secs_f64().max(1e-12);
        for row in &self.rows {
            let secs = row.total.as_secs_f64();
            t.row_owned(vec![
                row.id.title().to_owned(),
                row.runs.to_string(),
                format!("{secs:.3}"),
                format!("{:.1}%", 100.0 * secs / overall),
                format!("{:.3}", secs / row.runs.max(1) as f64),
                if row.wns_runs > 0 {
                    format!("{:+.1}", row.wns_delta.ps() / row.wns_runs as f64)
                } else {
                    "-".to_owned()
                },
            ]);
        }
        t
    }
}

/// Renders the complete suite report: the per-design table, the
/// per-corner signoff (when corners were configured), the aggregated
/// stage profile, cache statistics (when a design cache was used), the
/// batch throughput line and the deterministic digest.
pub fn render_suite(report: &SuiteReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{}", report.render());
    let corners = report.render_corners();
    if !corners.is_empty() {
        let _ = write!(out, "\n{corners}");
    }
    let profile = report.stage_profile();
    if !profile.is_empty() {
        let _ = write!(out, "\n{}", profile.render());
        if let Some(dom) = profile.dominant() {
            let _ = writeln!(
                out,
                "dominant stage: {} ({:.1}% of flow time)",
                dom.id.title(),
                100.0 * dom.total.as_secs_f64() / profile.total().as_secs_f64().max(1e-12),
            );
        }
    }
    if let Some(cache) = &report.cache {
        let _ = writeln!(out, "design cache: {cache}");
    }
    let diags = report.diag_totals();
    if diags.total() > 0 {
        let _ = writeln!(
            out,
            "lint: {} error(s), {} warning(s), {} info(s) across completed designs",
            diags.errors, diags.warnings, diags.infos,
        );
    }
    let _ = writeln!(
        out,
        "batch: {}/{} designs, {} gates in {:.2}s  ->  {:.0} gates/s  [digest {:016x}]",
        report.rows.len(),
        report.total_designs,
        report.gates_completed(),
        report.wall.as_secs_f64(),
        report.gates_per_second(),
        report.digest(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Technique;
    use smt_circuits::families::{generate, standard_suite, SuiteScale};

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    fn smoke_suite(l: &Library, technique: Technique) -> WorkloadSuite {
        let mut suite = WorkloadSuite::new(FlowConfig {
            technique,
            ..FlowConfig::default()
        });
        // Two small designs keep the unit test quick; the full five-family
        // batch runs in tests/suite_equivalence.rs and the CI smoke step.
        for w in standard_suite(SuiteScale::Smoke).into_iter().take(2) {
            let netlist = generate(l, &w.config)
                .unwrap_or_else(|e| panic!("generating workload `{}`: {e}", w.name));
            suite.push(&w.name, netlist);
        }
        suite
    }

    fn outcome_of(row: &SuiteRow) -> &SuiteOutcome {
        row.outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("workload `{}` failed its flow: {e}", row.name))
    }

    #[test]
    fn batch_runs_all_designs_and_reports() {
        let l = lib();
        let suite = smoke_suite(&l, Technique::DualVth);
        let report = suite.run(&l);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.total_designs, 2);
        assert!(report.all_passed(), "{}", report.render());
        assert!(report.missing_ordinals().is_empty());
        for row in &report.rows {
            let o = outcome_of(row);
            assert!(o.verify_passed);
            assert_eq!(o.equivalent, Some(true), "{}", row.name);
            assert!(!o.corner_signoff.is_empty());
            // The stage trace covers the Dual-Vth plan (minus
            // Synthesize, which netlist-seeded runs skip).
            let executed: Vec<StageId> = StageId::plan(Technique::DualVth)
                .iter()
                .copied()
                .filter(|&s| s != StageId::Synthesize)
                .collect();
            assert_eq!(
                row.stages.iter().map(|s| s.id).collect::<Vec<_>>(),
                executed,
                "{}",
                row.name
            );
        }
        assert!(report.gates_per_second() > 0.0);
        let text = report.render().to_string();
        assert!(text.contains("pipeline"), "{text}");
        assert!(!report.render_corners().is_empty());
        // The derived stage profile counts both designs at every stage.
        let profile = report.stage_profile();
        assert!(!profile.is_empty());
        for row in &profile.rows {
            assert_eq!(row.runs, 2, "{}", row.id);
        }
        assert!(render_suite(&report).contains("stage profile"));
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let l = lib();
        let serial = smoke_suite(&l, Technique::DualVth).with_threads(1).run(&l);
        let parallel = smoke_suite(&l, Technique::DualVth).with_threads(2).run(&l);
        assert!(serial.all_passed() && parallel.all_passed());
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            let (oa, ob) = (outcome_of(a), outcome_of(b));
            assert_eq!(a.name, b.name);
            assert_eq!(oa.cells, ob.cells);
            assert_eq!(oa.wns, ob.wns, "{}", a.name);
            assert_eq!(oa.standby_leakage, ob.standby_leakage, "{}", a.name);
        }
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn failing_design_does_not_sink_the_batch() {
        let l = lib();
        // A combinational loop: the flow must error on this design but
        // still complete the other one.
        let mut cyclic = Netlist::new("cyclic");
        let a = cyclic.add_input("a");
        let w1 = cyclic.add_net("w1");
        let w2 = cyclic.add_net("w2");
        let g1 = cyclic.add_instance("g1", l.find_id("ND2_X1_L").unwrap(), &l);
        let g2 = cyclic.add_instance("g2", l.find_id("INV_X1_L").unwrap(), &l);
        cyclic.connect_by_name(g1, "A", a, &l).unwrap();
        cyclic.connect_by_name(g1, "B", w2, &l).unwrap();
        cyclic.connect_by_name(g1, "Z", w1, &l).unwrap();
        cyclic.connect_by_name(g2, "A", w1, &l).unwrap();
        cyclic.connect_by_name(g2, "Z", w2, &l).unwrap();
        cyclic.expose_output("z", w2);

        let mut suite = WorkloadSuite::new(FlowConfig {
            technique: Technique::DualVth,
            ..FlowConfig::default()
        });
        suite.push("cyclic", cyclic);
        let good = standard_suite(SuiteScale::Smoke)
            .into_iter()
            .next()
            .unwrap();
        let netlist = generate(&l, &good.config)
            .unwrap_or_else(|e| panic!("generating workload `{}`: {e}", good.name));
        suite.push(&good.name, netlist);
        let report = suite.run(&l);
        assert!(!report.all_passed());
        assert!(report.rows[0].outcome.is_err());
        assert!(
            matches!(&report.rows[1].outcome, Ok(o) if o.passed()),
            "good design should still complete"
        );
        // The failed row renders as an error, not a panic.
        assert!(report.render().to_string().contains("ERROR"));
        // And the report still serialises and merges.
        let json = report.to_json();
        let back = SuiteReport::from_json(&json).expect("round trip");
        assert_eq!(back.digest(), report.digest());
        assert!(matches!(
            back.rows[0].outcome,
            Err(FlowError::Reported { .. })
        ));
    }

    #[test]
    fn plans_are_deterministic_and_exhaustive() {
        let weights = [10.0, 1.0, 7.0, 1.0, 10.0, 2.0];
        for shards in [2, 3] {
            let plan = plan_shards(&weights, shards);
            assert_eq!(plan, plan_shards(&weights, shards));
            assert_eq!(plan.num_shards(), shards);
            let mut seen: Vec<usize> = (0..plan.num_shards())
                .flat_map(|k| plan.shard(k).to_vec())
                .collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..weights.len()).collect::<Vec<_>>(),
                "{shards} shards"
            );
        }
        // LPT keeps the two heavy designs apart.
        let plan = plan_shards(&weights, 2);
        let shard_of = |i: usize| (0..2).find(|&k| plan.shard(k).contains(&i)).unwrap();
        assert_ne!(shard_of(0), shard_of(4), "{plan:?}");
        // Every shard's indices are ascending.
        for k in 0..2 {
            let s = plan.shard(k);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{plan:?}");
        }
        // More shards than designs leaves the tail empty rather than
        // panicking.
        let wide = plan_shards(&[1.0], 3);
        assert_eq!(wide.num_shards(), 3);
        assert_eq!(wide.shard(0), &[0]);
        assert!(wide.shard(1).is_empty() && wide.shard(2).is_empty());
    }

    fn stub_row(ordinal: usize, name: &str) -> SuiteRow {
        SuiteRow {
            name: name.to_owned(),
            ordinal,
            gates_in: 10 * (ordinal + 1),
            elapsed: Duration::from_millis(5),
            stages: vec![StageSample {
                id: StageId::Synthesize,
                elapsed: Duration::from_millis(1),
                wns: None,
            }],
            outcome: Err(FlowError::Reported {
                message: "stub".to_owned(),
            }),
        }
    }

    fn stub_report(ordinals: &[usize], total: usize) -> SuiteReport {
        SuiteReport {
            rows: ordinals.iter().map(|&o| stub_row(o, "stub")).collect(),
            total_designs: total,
            config_fingerprint: 0xD15EA5E,
            wall: Duration::from_millis(9),
            cache: Some(CacheStats {
                hits: 1,
                misses: 2,
                invalidated: 0,
            }),
        }
    }

    #[test]
    fn merge_checks_duplicates_totals_and_range() {
        let merged = SuiteReport::merge([stub_report(&[1, 3], 4), stub_report(&[0, 2], 4)])
            .expect("disjoint shards merge");
        assert_eq!(
            merged.rows.iter().map(|r| r.ordinal).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(merged.missing_ordinals().is_empty());
        let cache = merged.cache.expect("cache stats merged");
        assert_eq!((cache.hits, cache.misses), (2, 4));

        assert!(matches!(
            SuiteReport::merge([stub_report(&[0], 2), stub_report(&[0], 2)]),
            Err(MergeError::DuplicateOrdinal { ordinal: 0, .. })
        ));
        assert!(matches!(
            SuiteReport::merge([stub_report(&[0], 2), stub_report(&[1], 3)]),
            Err(MergeError::TotalMismatch { .. })
        ));
        // Same size, different configuration (e.g. a dual-Vth shard
        // merged with an improved-SMT one): refused, not recombined.
        let mut other_config = stub_report(&[1], 2);
        other_config.config_fingerprint ^= 1;
        assert!(matches!(
            SuiteReport::merge([stub_report(&[0], 2), other_config]),
            Err(MergeError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            SuiteReport::merge([stub_report(&[5], 2)]),
            Err(MergeError::OrdinalOutOfRange { ordinal: 5, .. })
        ));
        assert!(matches!(
            SuiteReport::merge(std::iter::empty()),
            Err(MergeError::Empty)
        ));

        // A single shard merges to itself and reports what is missing.
        let partial = SuiteReport::merge([stub_report(&[1], 3)]).expect("partial merge");
        assert_eq!(partial.missing_ordinals(), vec![0, 2]);
    }

    #[test]
    fn merge_is_commutative() {
        let a = || stub_report(&[0, 3], 5);
        let b = || stub_report(&[1], 5);
        let c = || stub_report(&[2, 4], 5);
        let abc = SuiteReport::merge([a(), b(), c()]).unwrap();
        let cba = SuiteReport::merge([c(), b(), a()]).unwrap();
        assert_eq!(abc.digest(), cba.digest());
        assert_eq!(
            abc.to_json().render(),
            cba.to_json().render(),
            "full serialisation (incl. cache sums) must not depend on merge order"
        );
    }

    #[test]
    fn serialised_reports_carry_and_verify_their_digest() {
        let report = stub_report(&[0, 1], 2);
        let json = report.to_json();
        assert_eq!(
            json.get("digest").and_then(Json::as_str),
            Some(format!("{:016x}", report.digest()).as_str()),
            "to_json must surface the report digest"
        );
        assert!(
            json.get("cache").is_some(),
            "to_json must surface cache statistics"
        );
        let back = SuiteReport::from_json(&json).expect("intact report loads");
        assert_eq!(back.digest(), report.digest());
        assert_eq!(back.cache, report.cache);

        // Tampering with digested content after serialisation is caught
        // on load — this is what `suite --merge` relies on to refuse
        // corrupt shard files.
        let mut tampered = json.clone();
        if let Json::Obj(top) = &mut tampered {
            let rows = top.get_mut("rows").unwrap();
            if let Json::Arr(rows) = rows {
                if let Json::Obj(row) = &mut rows[0] {
                    row.insert("gates_in".to_owned(), Json::Num(999_999.0));
                }
            }
        }
        let err = SuiteReport::from_json(&tampered).expect_err("tampered report must not load");
        assert!(err.contains("digest mismatch"), "{err}");

        // Timing-only fields are legitimately mutable in transit (they
        // are excluded from the digest): scrubbing wall time still loads.
        let mut retimed = json;
        if let Json::Obj(top) = &mut retimed {
            top.insert("wall_s".to_owned(), Json::Num(0.0));
        }
        assert!(SuiteReport::from_json(&retimed).is_ok());
    }

    #[test]
    fn outcome_json_round_trips_and_digests_stably() {
        let outcome = SuiteOutcome {
            cells: 123,
            area: Area::new(456.5),
            clock_period: Time::new(900.0),
            wns: Time::new(12.25),
            hold_violations: 1,
            standby_leakage: Current::new(3.5),
            active_leakage: Current::new(41.0),
            census: VthCensus::default(),
            verify_passed: true,
            diagnostics: DiagCounts {
                errors: 0,
                warnings: 2,
                infos: 1,
            },
            equivalent: Some(true),
            equiv_error: None,
            equiv_cycles_run: Some(48),
            equiv_truncated: Some(false),
            corner_signoff: Vec::new(),
            overflow: 6_542,
        };
        let json = outcome.to_json();
        let back = SuiteOutcome::from_json(&json, "stub").expect("outcome round trip");
        assert_eq!(back.to_json().render(), json.render());
        assert_eq!(back.digest(), outcome.digest());
        assert_eq!(back.overflow, outcome.overflow);
        // Overflow enters the digest like every other outcome field.
        let congested = SuiteOutcome {
            overflow: outcome.overflow + 1,
            ..outcome.clone()
        };
        assert_ne!(congested.digest(), outcome.digest());
    }
}
