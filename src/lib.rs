//! # selective-mt
//!
//! Umbrella crate for the reproduction of *"Area-Efficient Selective
//! Multi-Threshold CMOS Design Methodology for Standby Leakage Power
//! Reduction"* (Kitahara et al., DATE 2005).
//!
//! This crate re-exports the whole workspace under stable module names so a
//! downstream user can depend on one crate:
//!
//! * [`base`] — units, geometry, deterministic RNG, report tables
//! * [`cells`] — technology + standard-cell library (four Vth flavours,
//!   switches, holders), Liberty-lite I/O
//! * [`netlist`] — gate-level netlist, structural-Verilog-lite I/O, editing
//! * [`sim`] — logic simulation and equivalence checking
//! * [`synth`] — RTL-lite → AIG → technology mapping
//! * [`place`] — min-cut placement + legalization + annealing
//! * [`route`] — Steiner/maze routing, RC extraction, SPEF-lite, CTS
//! * [`sta`] — static timing analysis
//! * [`power`] — standby leakage and VGND bounce analysis
//! * [`core`] — the paper's methodology: Dual-Vth, conventional SMT,
//!   improved SMT with shared-switch clustering, and the Fig. 4 flow
//! * [`circuits`] — benchmark designs (circuit A/B substitutes and more)
//! * [`serve`] — flow-as-a-service: the resident `smtd` daemon and its
//!   line-protocol client
//!
//! ## Quickstart
//!
//! ```
//! use selective_mt::prelude::*;
//!
//! let lib = Library::industrial_130nm();
//! assert!(lib.find("ND2_X1_MV").is_some());
//! let engine = FlowEngine::new(&lib, FlowConfig::default());
//! assert_eq!(engine.plan().first(), Some(&StageId::Synthesize));
//! ```
//!
//! See `examples/quickstart.rs` for the full three-technique comparison
//! that reproduces the paper's Table 1, and [`prelude`] for the one-line
//! import covering the flow-engine API.

pub mod prelude;

pub use smt_base as base;
pub use smt_cells as cells;
pub use smt_circuits as circuits;
pub use smt_core as core;
pub use smt_netlist as netlist;
pub use smt_place as place;
pub use smt_power as power;
pub use smt_route as route;
pub use smt_serve as serve;
pub use smt_sim as sim;
pub use smt_sta as sta;
pub use smt_synth as synth;
