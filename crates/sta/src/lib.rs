//! # smt-sta
//!
//! Static timing analysis over gate-level netlists, supporting both points
//! where the paper's flow needs timing:
//!
//! * before routing, on estimated parasitics, to drive the Vth
//!   re-assignment ("replacing low-Vth cells by high-Vth cells & MT-cells
//!   with timing optimization");
//! * after routing, on extracted parasitics, for final verification and
//!   ECO hold fixing.
//!
//! The model is linear cell delay + per-sink wire Elmore, with optional
//! per-instance [`Derating`] that the MTCMOS clustering uses to apply the
//! VGND-bounce penalty to MT-cells.
//!
//! All analysis runs on one engine, the shared levelized
//! [`TimingGraph`] kernel (see [`graph`]): built once per netlist
//! topology, it records levelization, each instance's output net and
//! connected inputs, each net's readers, and the per-sink Elmore
//! ordinal layout in flat arrays, and runs a level-parallel forward
//! propagation followed by the required-time pass over them. It is
//! bit-identical to the retired sequential walk, kept as
//! [`analyze_baseline`], the differential-testing oracle.
//!
//! There are two ways in:
//!
//! * [`analyze`] — the one-shot report: builds the graph and its
//!   [`SinkCache`] for the current netlist and reads one library's
//!   report.
//! * [`TimingState`] (see [`state`]) — every loop that times one
//!   netlist more than once. One state times every corner library over
//!   one gather. A loop that swaps cells keeps the state across the
//!   swaps: it records each swap with [`TimingState::mark_swap`], and
//!   [`TimingState::update`] re-gathers only the rows the swaps touched
//!   and re-times only the slots whose inputs changed. A probe can then
//!   take its WNS without the full required-time pass.
//!
//! ```no_run
//! use smt_cells::library::Library;
//! use smt_netlist::netlist::Netlist;
//! use smt_place::{place, PlacerConfig};
//! use smt_route::Parasitics;
//! use smt_sta::{analyze, Derating, StaConfig};
//!
//! # fn design() -> Netlist { Netlist::new("x") }
//! let lib = Library::industrial_130nm();
//! let n = design();
//! let p = place(&n, &lib, &PlacerConfig::default());
//! let par = Parasitics::estimate(&n, &lib, &p);
//! let report = analyze(&n, &lib, &par, &StaConfig::default(), &Derating::none()).unwrap();
//! println!("WNS = {}", report.wns);
//! ```

pub mod analysis;
pub mod graph;
pub mod report;
pub mod state;

pub use analysis::{
    analyze, analyze_baseline, merge_hold_violations, worst_path, Derating, HoldViolation,
    StaConfig, TimingReport,
};
pub use graph::{SinkCache, TimingGraph};
pub use report::{render_report, worst_paths, ReportedPath};
pub use state::TimingState;
