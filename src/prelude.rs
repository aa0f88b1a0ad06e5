//! One-line import for the common case: library + flow engine + benchmark
//! circuits.
//!
//! ```
//! use selective_mt::prelude::*;
//!
//! let lib = Library::industrial_130nm();
//! let cfg = FlowConfig { technique: Technique::DualVth, ..FlowConfig::default() };
//! let plan = FlowEngine::new(&lib, cfg).plan();
//! assert!(plan.contains(&StageId::Signoff));
//! ```

pub use smt_base::units::{Area, Cap, Current, Micron, Power, Res, Time, Volt};
pub use smt_cells::corner::{Corner, CornerLibrary, CornerSet};
pub use smt_cells::library::Library;
pub use smt_circuits::families::{generate, standard_suite, FamilyConfig, SuiteScale, Workload};
pub use smt_circuits::gen::{random_logic, GenError, RandomLogicConfig};
pub use smt_circuits::rtl::{
    circuit_a_rtl, circuit_a_rtl_lanes, circuit_b_rtl, circuit_b_rtl_sized,
};
pub use smt_core::cache::{CacheStats, DesignCache};
pub use smt_core::config_io::JsonConfig;
pub use smt_core::engine::{
    run_sweep, run_three_techniques, Checkpoint, CornerSignoff, DesignState, FlowConfig,
    FlowEngine, FlowError, FlowResult, Observer, Stage, StageId, StageLogger, StageMetrics,
    SweepOutcome, SweepRun, Technique,
};
pub use smt_core::flow::{run_flow, run_flow_netlist};
pub use smt_core::suite::{plan_shards, render_suite, ShardPlan, SuiteReport, WorkloadSuite};
