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
//! connected inputs, and the per-sink Elmore ordinal layout in flat
//! arrays, and runs a level-parallel forward propagation followed by
//! the required-time pass over them. It is bit-identical to the
//! retired sequential walk, kept as [`analyze_baseline`], the
//! differential-testing oracle. [`analyze`] builds a fresh graph per
//! call; repeated-analysis callers build the graph once and use
//! [`analyze_with_graph`], and per-corner loops also share one
//! [`SinkCache`] through [`analyze_cached`] — across Vth swaps too,
//! when the caller marks the swapped nets and calls
//! [`SinkCache::refresh`].
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

pub use analysis::{
    analyze, analyze_baseline, analyze_cached, analyze_with_graph, merge_hold_violations,
    worst_path, Derating, HoldViolation, StaConfig, TimingReport,
};
pub use graph::{SinkCache, TimingGraph};
pub use report::{render_report, worst_paths, ReportedPath};
