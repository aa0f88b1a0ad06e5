//! Benchmarks for the static-analysis engine: what a full-catalog
//! signoff analysis costs on a large design next to the one quantity
//! the flow already pays per stage — a full STA pass — plus the
//! parallel fan-out's scaling.
//!
//! ```text
//! cargo bench -p smt-bench --bench lint
//! ```
//!
//! Records one runner-independent metric for the regression gate:
//!
//! * `lint_throughput` — single-thread STA analysis time over
//!   single-thread full-catalog lint time on the same design, each
//!   summed over analysis/lint pairs that alternate within every sample
//!   (timed as two separate benches, a host-phase change seconds apart
//!   could land on one side only). Higher is better. The per-stage lint
//!   gate is affordable because a full signoff lint costs about one STA
//!   pass; this ratio gates that the deep rules (SCC, constant
//!   propagation, reverse reachability) keep their allocation-free fast
//!   paths and stay in that regime.

use smt_bench::harness::Harness;
use smt_cells::library::Library;
use smt_circuits::rtl::circuit_b_rtl_sized;
use smt_netlist::check::{analyze_with_threads, LintPolicy};
use smt_place::{place, PlacerConfig};
use smt_route::Parasitics;
use smt_sta::{analyze, Derating, StaConfig};
use smt_synth::{synthesize, SynthOptions};
use std::time::{Duration, Instant};

fn main() {
    let lib = Library::industrial_130nm();
    let mut h = Harness::new();

    // The same large flat-datapath design the timing-kernel bench uses
    // (~5.2k instances), so the two ratios share a denominator scale.
    let n = synthesize(&circuit_b_rtl_sized(256), &lib, &SynthOptions::default())
        .expect("circuit B synthesizes");
    let p = place(&n, &lib, &PlacerConfig::default());
    let par = Parasitics::estimate(&n, &lib, &p);
    let cfg = StaConfig::default();
    let der = Derating::none();
    let policy = LintPolicy::signoff();

    let throughput = {
        let mut g = h.group("lint_circuit_b256");
        g.sample_size(20);
        // One STA analysis and one single-worker lint alternate, `BATCH`
        // times per sample, so a slow host phase lands on both sides;
        // the ratio divides their summed wall times.
        const BATCH: usize = 4;
        let (mut sta, mut lint) = (Duration::ZERO, Duration::ZERO);
        g.bench("4x full STA analysis + signoff lint, 1 worker", || {
            let mut out = 0u64;
            for _ in 0..BATCH {
                let t0 = Instant::now();
                let wns = analyze(&n, &lib, &par, &cfg, &der)
                    .expect("acyclic")
                    .wns
                    .ps();
                let t1 = Instant::now();
                let digest = analyze_with_threads(&n, &lib, &policy, 1).digest();
                sta += t1 - t0;
                lint += t1.elapsed();
                out ^= digest ^ wns.to_bits();
            }
            out
        });
        g.bench("signoff lint, 8 workers", || {
            analyze_with_threads(&n, &lib, &policy, 8).digest()
        });
        sta.as_secs_f64() / lint.as_secs_f64()
    };

    // The determinism contract, asserted where the wide design lives:
    // worker count moves wall time only, never one bit of the report.
    let one = analyze_with_threads(&n, &lib, &policy, 1);
    let eight = analyze_with_threads(&n, &lib, &policy, 8);
    assert_eq!(
        one.digest(),
        eight.digest(),
        "lint digest must be thread-count invariant"
    );

    println!("\nlint throughput (STA / lint, 1 worker): {throughput:.2}x");
    h.metric("lint_throughput", throughput);
    h.finish();
}
