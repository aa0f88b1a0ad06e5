//! Benchmarks for the shared levelized `TimingGraph` kernel: what one
//! full analysis costs on a large design, legacy sequential propagation
//! vs the kernel with a resident graph (and, for repeated-analysis
//! loops over an unchanged netlist — the per-corner probe/signoff
//! pattern — a resident sink cache too).
//!
//! ```text
//! cargo bench -p smt-bench --bench timing_kernel
//! ```
//!
//! Records two runner-independent metrics for the regression gate. Each
//! times its two sides alternately within every sample and divides
//! their summed wall times, so a host-phase change lands on both sides
//! (timed as separate benches seconds apart, `timing_kernel_speedup`
//! once read 2.97 between reads of 6.5–7.7):
//!
//! * `timing_kernel_speedup` — the repeated-analysis loop (graph +
//!   cache built once, then full analyses) vs the same loop calling the
//!   legacy `analyze_baseline` (which re-levelizes and re-scans load
//!   lists every call). Higher is better; this ratio is what keeps the
//!   Fig. 4 optimisation loops affordable when every timing query is
//!   multiplied by the corner count. The flat-array kernel reads about
//!   5.8–7.2× on 2 vCPUs; the gate (baseline 6.0, 20 % tolerance)
//!   trips below 4.8×, so a kernel that falls back to per-instance
//!   netlist and library lookups (3.7–4.4× when timed as two separate
//!   benches) fails it.
//! * `wns_probe_speedup` — the time of one full analysis (a fresh
//!   one-library `TimingState` over the resident graph and cache, read
//!   out as a report) over the time of one single-cell-swap probe on a
//!   resident `TimingState` (swap, update and WNS, swap back), cycling
//!   through the logic cells of the same design: the Dual-Vth peephole
//!   pattern. Higher is better. The resident state re-times forward
//!   only the cone a swap touches, then runs the required-time pass
//!   over the output ports' fan-out cone, which on this design covers
//!   93 % of the slots; it read 4.6–4.8 over 7 runs on 2 vCPUs. A probe
//!   that re-times the whole design (a fresh sink cache and
//!   `TimingState` per probe) reads 0.60–0.63. The gate (baseline 1.2,
//!   20 % tolerance) trips below 0.96, so a fallback to full
//!   re-analysis fails it.

use smt_bench::harness::Harness;
use smt_cells::cell::VthClass;
use smt_cells::library::Library;
use smt_circuits::rtl::circuit_b_rtl_sized;
use smt_place::{place, PlacerConfig};
use smt_route::Parasitics;
use smt_sta::{analyze_baseline, Derating, SinkCache, StaConfig, TimingGraph, TimingState};
use smt_synth::{synthesize, SynthOptions};
use std::time::{Duration, Instant};

fn main() {
    let lib = Library::industrial_130nm();
    let mut h = Harness::new();

    // A large flat-datapath design: circuit B widened to a 256-bit
    // accumulator (~5.2k instances, ~5.5k nets, multi-hundred-fanout
    // control nets).
    let n = synthesize(&circuit_b_rtl_sized(256), &lib, &SynthOptions::default())
        .expect("circuit B synthesizes");
    let p = place(&n, &lib, &PlacerConfig::default());
    let par = Parasitics::estimate(&n, &lib, &p);
    let cfg = StaConfig::default();
    let der = Derating::none();

    // A batch of analyses per timed iteration keeps the ratio stable
    // even in 2-sample CI smoke runs.
    const BATCH: usize = 4;
    // One full analysis over a resident graph and cache: a fresh
    // one-library state read out as a report, as `analyze` does.
    let libs = [&lib];
    let full_wns = |graph: &TimingGraph, cache: &SinkCache| {
        TimingState::new(graph, cache, &n, &libs, &par, &cfg, &der)
            .report(0, cache, &n, &der)
            .wns
            .ps()
    };

    let speedup = {
        let mut g = h.group("timing_kernel_circuit_b256");
        g.sample_size(20);
        g.bench("TimingGraph build", || {
            TimingGraph::build(&n, &lib).expect("acyclic")
        });
        let graph = TimingGraph::build(&n, &lib).expect("acyclic");
        g.bench("4x kernel analyze (fresh cache)", || {
            let mut wns = 0.0;
            for _ in 0..BATCH {
                wns += full_wns(&graph, &graph.build_cache(&n));
            }
            wns
        });

        // Legacy and kernel analyses alternate within each sample, so a
        // slow host phase lands on both sides; the ratio divides their
        // summed wall times.
        let cache = graph.build_cache(&n);
        let (mut legacy, mut kernel) = (Duration::ZERO, Duration::ZERO);
        g.bench("4x legacy + resident-cache kernel analyze pairs", || {
            let mut wns = 0.0;
            for _ in 0..BATCH {
                let t0 = Instant::now();
                wns += analyze_baseline(&n, &lib, &par, &cfg, &der)
                    .expect("acyclic")
                    .wns
                    .ps();
                let t1 = Instant::now();
                wns += full_wns(&graph, &cache);
                legacy += t1 - t0;
                kernel += t1.elapsed();
            }
            wns
        });
        legacy.as_secs_f64() / kernel.as_secs_f64()
    };
    println!("\nrepeated-analysis speedup (legacy / kernel): {speedup:.2}x");
    h.metric("timing_kernel_speedup", speedup);

    let probe_speedup = {
        let mut g = h.group("wns_probe_circuit_b256");
        g.sample_size(20);
        let graph = TimingGraph::build(&n, &lib).expect("acyclic");
        let cache = graph.build_cache(&n);

        // Every logic cell with a high-Vth variant, probed in id order.
        let swaps: Vec<_> = n
            .instances()
            .filter(|(_, inst)| lib.cell(inst.cell).is_logic())
            .filter_map(|(id, inst)| {
                let high = lib.variant_id(inst.cell, VthClass::High)?;
                Some((id, inst.cell, high))
            })
            .collect();
        let mut m = n.clone();
        let mut probe_cache = graph.build_cache(&m);
        let mut state = TimingState::new(&graph, &probe_cache, &m, &libs, &par, &cfg, &der);
        let mut next = 0usize;
        const PROBES: usize = 64;
        // Each sample alternates one full analysis with a quarter of
        // the probes, `BATCH` times, so a slow host phase lands on both
        // sides; the ratio divides their summed wall times per item.
        let (mut full, mut probe) = (Duration::ZERO, Duration::ZERO);
        g.bench("4x full analysis + 64x single-swap probe", || {
            let mut wns = 0.0;
            for _ in 0..BATCH {
                let t0 = Instant::now();
                wns += full_wns(&graph, &cache);
                let t1 = Instant::now();
                for _ in 0..PROBES / BATCH {
                    let (id, low, high) = swaps[next % swaps.len()];
                    next += 1;
                    m.replace_cell(id, high, &lib).expect("variant swap");
                    state.mark_swap(&mut probe_cache, &m, id);
                    state.update(&mut probe_cache, &m, &der);
                    wns += state.wns(0, &probe_cache, &m, &der).ps();
                    m.replace_cell(id, low, &lib).expect("variant swap");
                    state.mark_swap(&mut probe_cache, &m, id);
                }
                full += t1 - t0;
                probe += t1.elapsed();
            }
            wns
        });
        (full.as_secs_f64() / BATCH as f64) / (probe.as_secs_f64() / PROBES as f64)
    };
    println!("\nsingle-swap probe speedup (analysis / probe): {probe_speedup:.2}x");
    h.metric("wns_probe_speedup", probe_speedup);
    h.finish();
}
