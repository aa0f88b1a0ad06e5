//! # smt-core
//!
//! The paper's contribution: the improved Selective Multi-Threshold CMOS
//! methodology, plus the Dual-Vth and conventional-SMT baselines it is
//! compared against in Table 1.
//!
//! * [`dualvth`] — timing-driven low→high Vth assignment (ref \[1\]);
//! * [`smtgen`] — the MT-cell replacement transforms, the paper's
//!   output-holder rule, and initial switch insertion;
//! * [`cluster`] — the CoolPower-substitute back-end optimizer: MT-cell
//!   clustering and switch sizing under voltage-bounce, VGND-wirelength
//!   and electromigration constraints;
//! * [`reopt`] — post-route switch re-optimization on extracted RC;
//! * [`eco`] — MTE-net buffering, setup recovery and hold fixing;
//! * [`mod@verify`] — structural, functional and standby-safety verification;
//! * [`engine`] — the composable Fig. 4 stage-graph: [`engine::Stage`]s
//!   over a shared [`engine::DesignState`], driven by an
//!   [`engine::FlowEngine`] with observers, checkpoints and parallel
//!   sweeps;
//! * [`flow`] — the one-shot `run_flow` compatibility wrappers over the
//!   engine;
//! * [`suite`] — the workload-suite runtime: many designs through one
//!   configuration on the shared worker pool, with per-design signoff
//!   rows, independent equivalence checks, per-stage telemetry, and
//!   deterministic sharding with mergeable JSON reports;
//! * [`cache`] — the on-disk design cache: generated/ingested netlists
//!   stored as SNL, keyed by `(family, config, seed, library
//!   fingerprint)`;
//! * [`session`] — warm what-if sessions over checkpoints (prefix
//!   forks, finals replay, corner re-signoff) and the memoised corner
//!   [`session::LibraryPool`] — the state the `smtd` daemon keeps
//!   resident.
//!
//! ```no_run
//! use smt_cells::library::Library;
//! use smt_core::engine::{FlowConfig, FlowEngine, Technique};
//! use smt_circuits::rtl::circuit_b_rtl;
//!
//! let lib = Library::industrial_130nm();
//! let result = FlowEngine::new(&lib, FlowConfig {
//!     technique: Technique::ImprovedSmt,
//!     ..FlowConfig::default()
//! })
//! .run(&circuit_b_rtl())
//! .expect("flow succeeds");
//! println!("standby leakage: {}", result.standby_leakage);
//! ```

pub mod cache;
pub mod cluster;
pub mod config_io;
pub mod crosstalk;
pub mod dualvth;
pub mod eco;
pub mod engine;
pub mod flow;
pub mod reopt;
pub mod report;
pub mod session;
pub mod smtgen;
pub mod suite;
pub mod verify;

pub use cache::{CacheStats, DesignCache};
pub use cluster::{construct_switch_structure, ClusterConfig, SwitchStructureReport};
pub use crosstalk::{analyze_crosstalk, worst_noise, CrosstalkConfig, CrosstalkReport};
pub use dualvth::{assign_dual_vth_at_corners, DualVthConfig, DualVthReport};
pub use engine::{
    lint_policy, run_sweep, Checkpoint, CornerSignoff, DesignState, FlowContext, FlowEngine,
    FlowError, Observer, Stage, StageId, StageLogger, StageMetrics, SweepOutcome, SweepRun,
};
pub use flow::{
    run_flow, run_flow_netlist, run_three_techniques, FlowConfig, FlowResult, Technique,
};
pub use report::render_signoff;
pub use session::{
    complete_flow, config_identity, finals_result, run_what_if, LibraryPool, Session,
    SessionRegistry, SessionStats, WhatIf, WhatIfRun,
};
pub use suite::{
    plan_shards, render_suite, suite_fingerprint, MergeError, ShardPlan, StageProfile, StageSample,
    SuiteOutcome, SuiteReport, SuiteRow, WorkloadSuite,
};
pub use verify::{mirror_control_ports, verify, VerifyReport};
