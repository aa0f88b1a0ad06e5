//! Benchmark for the multi-corner (PVT) subsystem: what extra corners
//! cost the flow (three-corner signoff vs single-corner).
//!
//! ```text
//! cargo bench -p smt-bench --bench corners
//! ```
//!
//! Records one runner-independent metric for the regression gate:
//!
//! * `per_corner_flow_cost_ratio` — wall-clock of the full improved-SMT
//!   flow at slow/typ/fast over the same flow at the single typical
//!   corner (lower is better; corner fan-out on the sweep worker pool
//!   keeps it well below the 3× a serial implementation would pay).
//!
//! Per-corner timing itself is `analyze_cached` over one shared graph
//! and sink cache; its speed is gated by `timing_kernel_speedup`
//! (`--bench timing_kernel`).

use smt_bench::harness::Harness;
use smt_cells::corner::CornerSet;
use smt_cells::library::Library;
use smt_circuits::rtl::circuit_b_rtl_sized;
use smt_core::flow::{run_flow, FlowConfig, Technique};

fn main() {
    let lib = Library::industrial_130nm();
    let mut h = Harness::new();
    let flow_ratio = {
        let mut g = h.group("flow_corner_scaling_circuit_b8");
        g.sample_size(5);
        let rtl = circuit_b_rtl_sized(8);
        let mut base = FlowConfig {
            technique: Technique::ImprovedSmt,
            period_margin: 1.35,
            ..FlowConfig::default()
        };
        base.dualvth.max_high_fraction = Some(0.7);
        let single = g.bench("improved flow, typical corner", || {
            run_flow(&rtl, &lib, &base).expect("single-corner flow")
        });
        let multi_cfg = FlowConfig {
            corners: CornerSet::slow_typ_fast(),
            ..base.clone()
        };
        let multi = g.bench("improved flow, slow/typ/fast", || {
            run_flow(&rtl, &lib, &multi_cfg).expect("multi-corner flow")
        });
        multi.median.as_secs_f64() / single.median.as_secs_f64()
    };

    h.metric("per_corner_flow_cost_ratio", flow_ratio);
    h.finish();
}
