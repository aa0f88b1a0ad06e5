//! # smt-place
//!
//! Standard-cell placement for the Selective-MT flow ("initial netlist &
//! placement" in the paper's Fig. 4):
//!
//! * [`fm`] — Fiduccia–Mattheyses min-cut bipartitioning;
//! * [`mod@place`] — parallel recursive-bisection global placement,
//!   Tetris row legalization, and region-windowed simulated-annealing
//!   refinement (equal-footprint swaps keep the placement legal by
//!   construction; each swap is priced on cached net bounding boxes),
//!   behind the incremental [`Placer`] session type
//!   (the flow places each design once and carries the `Placer` in its
//!   checkpoints, so every later stage and what-if fork edits that
//!   placement instead of re-placing);
//! * [`def`] — DEF-lite writer and parser for placements;
//! * [`estimate`] — placement-based pre-route RC estimation, the
//!   "information about the resistance and the capacitance of each wire
//!   is estimated based on the placement information" step that the
//!   switch-clustering optimizer consumes before routing exists.
//!
//! ```no_run
//! use smt_cells::library::Library;
//! use smt_netlist::netlist::Netlist;
//! use smt_place::{place, PlacerConfig};
//!
//! # fn netlist() -> Netlist { Netlist::new("x") }
//! let lib = Library::industrial_130nm();
//! let n = netlist();
//! let placement = place(&n, &lib, &PlacerConfig::default());
//! println!("HPWL = {:.1} um", placement.hpwl(&n));
//! ```

pub mod def;
pub mod estimate;
pub mod fm;
pub mod place;

pub use def::{parse as parse_def, write as write_def, ParseDefError};
pub use estimate::{estimate_net_rc, NetRc};
pub use place::{full_place_runs, place, PlaceError, Placement, Placer, PlacerConfig};
