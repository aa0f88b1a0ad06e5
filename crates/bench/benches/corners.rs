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
//!   Each timed sample runs `BATCH` pairs of the two flows, one after
//!   the other, and the ratio divides the summed wall time of every
//!   three-corner flow by that of every single-corner flow. One flow of
//!   circuit B 8 lasts 10–15 ms, and a shared runner's speed drifts
//!   over seconds: on a shared 2-vCPU host, timing the two flows as
//!   separate single-flow benches read 0.56–1.43 for one binary, the
//!   interleaved batches 1.10–1.36 (1.13–1.28 at CI's two samples).
//!
//! Every timing loop of the flow times all of its corner libraries from
//! one `TimingState`, over one graph, sink cache and gather; the
//! kernel's speed is gated by `timing_kernel_speedup`
//! (`--bench timing_kernel`).

use smt_bench::harness::Harness;
use smt_cells::corner::CornerSet;
use smt_cells::library::Library;
use smt_circuits::rtl::circuit_b_rtl_sized;
use smt_core::flow::{run_flow, FlowConfig, Technique};
use std::time::{Duration, Instant};

/// Flow pairs per timed sample: each sample lasts well over 100 ms.
const BATCH: usize = 10;

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
        let multi_cfg = FlowConfig {
            corners: CornerSet::slow_typ_fast(),
            ..base.clone()
        };
        // Wall time per corner set, summed over every flow run. The two
        // flows alternate, so a slow host phase lands on both sides;
        // timed as two separate benches, it could land on one only.
        let mut spent = [Duration::ZERO; 2];
        g.bench("10x typical + slow/typ/fast flow pairs", || {
            let mut wns = 0.0;
            for _ in 0..BATCH {
                for (cfg, t) in [&base, &multi_cfg].into_iter().zip(&mut spent) {
                    let t0 = Instant::now();
                    let r = run_flow(&rtl, &lib, cfg).expect("flow closes");
                    *t += t0.elapsed();
                    wns += r.timing.wns.ps();
                }
            }
            wns
        });
        spent[1].as_secs_f64() / spent[0].as_secs_f64()
    };

    h.metric("per_corner_flow_cost_ratio", flow_ratio);
    h.finish();
}
