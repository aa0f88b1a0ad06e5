//! # smt-route
//!
//! Routing-stage substrates for the Fig. 4 flow:
//!
//! * [`steiner`] — rectilinear Steiner trees per net;
//! * [`global`] — congestion-aware grid global routing (maze search with
//!   rip-up & reroute) producing per-net routed lengths;
//! * [`router`] — the incremental routing session behind it: cached
//!   per-net base routes, fingerprint-revalidated `reroute_nets`, and a
//!   `full_route_runs()` reuse counter;
//! * [`extract`] — parasitic extraction at two fidelities: pre-route
//!   estimates from placement and post-route RC trees with per-sink
//!   Elmore delays;
//! * [`spef`] — SPEF-lite text exchange of extracted parasitics (the
//!   artifact the paper's post-route re-optimization consumes);
//! * [`cts`] — clock tree synthesis by recursive geometric clustering;
//! * [`buffering`] — high-fanout buffering, used for the MTE enable net.

pub mod buffering;
pub mod cts;
pub mod extract;
pub mod global;
pub mod router;
pub mod spef;
pub mod steiner;

pub use buffering::{buffer_net, BufferingConfig, BufferingReport};
pub use cts::{full_cts_runs, synthesize_clock_tree, CtsConfig, CtsReport, CtsSession};
pub use extract::{reextractions_avoided, NetParasitics, Parasitics};
pub use global::{route_global, GlobalRoute, RouteConfig, RouteError};
pub use router::{full_route_runs, Router};
pub use steiner::{steiner_tree, RouteTree};
