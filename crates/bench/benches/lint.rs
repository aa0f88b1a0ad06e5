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
//!   single-thread full-catalog lint time on the same design. Higher is
//!   better. The per-stage lint gate is affordable because a full
//!   signoff lint costs about one STA pass; this ratio gates that the
//!   deep rules (SCC, constant propagation, reverse reachability) keep
//!   their allocation-free fast paths and stay in that regime.

use smt_bench::harness::Harness;
use smt_cells::library::Library;
use smt_circuits::rtl::circuit_b_rtl_sized;
use smt_netlist::check::{analyze_with_threads, LintPolicy};
use smt_place::{place, PlacerConfig};
use smt_route::Parasitics;
use smt_sta::{analyze, Derating, StaConfig};
use smt_synth::{synthesize, SynthOptions};

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
        let sta = g.bench("full STA analysis (reference)", || {
            analyze(&n, &lib, &par, &cfg, &der)
                .expect("acyclic")
                .wns
                .ps()
        });
        let lint1 = g.bench("signoff lint, 1 worker", || {
            analyze_with_threads(&n, &lib, &policy, 1).digest()
        });
        g.bench("signoff lint, 8 workers", || {
            analyze_with_threads(&n, &lib, &policy, 8).digest()
        });
        sta.median.as_secs_f64() / lint1.median.as_secs_f64()
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
