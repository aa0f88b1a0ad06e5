//! Whole-flow incrementality benchmark: what the warm, fingerprint-keyed
//! sessions save over re-deriving the physical back half of the flow
//! from scratch.
//!
//! ```text
//! cargo bench -p smt-bench --bench eco_incremental
//! ```
//!
//! The workload is the paper's circuit B in a Vth-swap loop — the
//! canonical ECO shape: the designer nudges the high-Vth budget and
//! everything after placement must be re-derived. The measured region
//! is the *physical* back half — exactly the work the session caches
//! replace:
//!
//! * clock-tree synthesis (full median-split clustering + insertion
//!   estimate vs a [`CtsSession`] replay of the recorded tree),
//! * global routing (a from-scratch [`Router::route`] pass vs
//!   [`Router::reroute_nets`] revalidating per-net pin fingerprints),
//! * RC extraction ([`Parasitics::extract`] vs [`Parasitics::update`]
//!   reusing every net whose extraction fingerprint is unchanged).
//!
//! What is deliberately *not* timed, and why:
//!
//! * The STA stages around this region run identically on both paths (a
//!   swapped budget must be re-timed either way), so including them
//!   would measure the analysis both paths share, not the incremental
//!   machinery.
//! * Equivalence checking is asserted bit-identical below but excluded
//!   from the timed region: on this fraig-friendly workload both the
//!   full check and the [`EquivCache`] path run the same fraig proof
//!   over the whole design (the verdict memo only saves residue-cone
//!   simulation) — timing it would measure the prover, not the session
//!   caches. `tests/incremental_flow.rs` covers its correctness.
//! * Working-copy and warm-session clones happen in the untimed
//!   `bench_batched` setup: a what-if fork pays them once when it is
//!   constructed, then amortises them over every hold-fix round and
//!   re-derivation the ECO loop runs, so they are fork-construction
//!   cost, not per-iteration cost.
//!
//! Records `eco_incremental_speedup` for the CI regression gate: the
//! summed wall time of the full re-runs over that of the warm paths
//! (higher is better). Each timed sample runs one warm path and one full
//! re-run of the same variant, one after the other, so a slow host
//! phase lands on both sides.

use smt_bench::harness::Harness;
use smt_cells::library::Library;
use smt_circuits::rtl::circuit_b_rtl_sized;
use smt_core::flow::{FlowConfig, FlowEngine, StageId, Technique};
use smt_core::session::{LibraryPool, Session};
use smt_route::{synthesize_clock_tree, CtsSession, Parasitics, Router};
use smt_sim::{check_equivalence, check_equivalence_cached, EquivCache, EquivOptions};
use smt_synth::{synthesize, SynthOptions};
use std::time::{Duration, Instant};

fn main() {
    let lib = Library::industrial_130nm();
    let mut h = Harness::new();

    // FFs stay out of Vth assignment so the swap loop never perturbs
    // the clock fabric — the warm path then replays the recorded tree,
    // which is exactly the reuse this benchmark exists to measure.
    let mut cfg = FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    };
    cfg.dualvth.include_ffs = false;
    cfg.dualvth.max_high_fraction = Some(0.60);

    let netlist = synthesize(&circuit_b_rtl_sized(28), &lib, &SynthOptions::default())
        .expect("synthesize circuit B");
    let mut pool = LibraryPool::new();
    let (corners, _) = pool.corner_libs(&lib, &cfg.corners);
    let session = Session::open(
        "bench",
        "circuit-b",
        1,
        netlist,
        cfg.clone(),
        &lib,
        &corners,
    )
    .expect("session prefix");

    // Pre-CTS fork at a given high-Vth budget: the prefix resumed
    // through assignment, yielding the netlist + placement the physical
    // back half starts from.
    let pre_cts = |cap: f64| {
        let mut c = cfg.clone();
        c.dualvth.max_high_fraction = Some(cap);
        let cp = FlowEngine::with_corner_libraries(&lib, c, corners.to_vec())
            .resume_until(session.prefix(), StageId::AssignDualVth)
            .expect("assignment fork");
        let state = cp.restore();
        let placement = state.placer.as_ref().expect("placed").placement().clone();
        (state.netlist, placement, state.golden)
    };

    // Prime the warm sessions with one full pass at the base budget.
    let (nl_base, p_base, golden) = pre_cts(0.60);
    let eopts = EquivOptions {
        cycles: cfg.verify_cycles,
        seed: cfg.seed,
        ..EquivOptions::default()
    };
    let (cts_session, router, extracted, equiv_cache) = {
        let mut nl = nl_base.clone();
        let mut p = p_base.clone();
        let mut cts = CtsSession::new();
        cts.run(&mut nl, &mut p, &lib, &cfg.cts);
        let router = Router::route(&nl, &lib, &p, &cfg.route, 0);
        let extracted = Parasitics::extract(&nl, &lib, &p, router.global());
        let mut cache = EquivCache::new();
        check_equivalence_cached(&golden, &nl, &lib, &eopts, &mut cache).expect("base equivalence");
        (cts, router, extracted, cache)
    };

    // The swap loop nudges the budget around the base point so every
    // iteration is a real ECO, not a cache no-op.
    let variants: Vec<_> = [0.58, 0.62].iter().map(|&cap| pre_cts(cap)).collect();

    // The warm path must be bit-identical to the full re-run before
    // its speed means anything — including the equivalence verdicts the
    // timed region omits.
    for (k, (nl0, p0, _)) in variants.iter().enumerate() {
        let (mut cnl, mut cp) = (nl0.clone(), p0.clone());
        let ccts = synthesize_clock_tree(&mut cnl, &mut cp, &lib, &cfg.cts);
        let cr = Router::route(&cnl, &lib, &cp, &cfg.route, 0);
        let cx = Parasitics::extract(&cnl, &lib, &cp, cr.global());
        let ceq = check_equivalence(&golden, &cnl, &lib, eopts.cycles, eopts.seed)
            .expect("cold equivalence");

        let (mut wnl, mut wp) = (nl0.clone(), p0.clone());
        let mut cts_s = cts_session.clone();
        let wcts = cts_s.run(&mut wnl, &mut wp, &lib, &cfg.cts);
        let mut r = router.clone();
        r.reroute_nets(&wnl, &lib, &wp, &cfg.route, None, 0);
        let wx = Parasitics::update(extracted.clone(), &wnl, &lib, &wp, r.global());
        let mut cache = equiv_cache.clone();
        let weq = check_equivalence_cached(&golden, &wnl, &lib, &eopts, &mut cache)
            .expect("warm equivalence");

        assert_eq!(ccts, wcts, "CTS report must match (variant {k})");
        assert_eq!(
            cr.digest(),
            r.digest(),
            "route digest must match (variant {k})"
        );
        assert_eq!(cx.nets.len(), wx.nets.len());
        for (c, w) in cx.nets.iter().zip(wx.nets.iter()) {
            assert_eq!(c, w, "extracted RC must match (variant {k})");
        }
        assert_eq!(
            ceq.digest(),
            weq.digest(),
            "equivalence digest must match (variant {k})"
        );
    }

    let speedup = {
        let mut g = h.group("eco_incremental_circuit_b28");
        g.sample_size(10);

        // Per sample: one warm path, then one full re-run of the same
        // variant. Inputs are cloned in the untimed setup, and each
        // side's outputs (with its inputs, see `bench_batched`) drop
        // after both timers stop.
        let mut k = 0usize;
        let (mut cold, mut warm) = (Duration::ZERO, Duration::ZERO);
        g.bench_batched(
            "vth-swap back half, warm path + full re-run",
            || {
                k += 1;
                let (nl0, p0, _) = &variants[k % variants.len()];
                let warm = (
                    nl0.clone(),
                    p0.clone(),
                    cts_session.clone(),
                    router.clone(),
                    extracted.clone(),
                );
                (warm, (nl0.clone(), p0.clone()))
            },
            |((mut nl, mut p, mut cts_s, mut r, prev_x), (mut cnl, mut cp))| {
                let t0 = Instant::now();
                let cts = cts_s.run(&mut nl, &mut p, &lib, &cfg.cts);
                r.reroute_nets(&nl, &lib, &p, &cfg.route, None, 0);
                let x = Parasitics::update(prev_x, &nl, &lib, &p, r.global());
                let t1 = Instant::now();
                let ccts = synthesize_clock_tree(&mut cnl, &mut cp, &lib, &cfg.cts);
                let cr = Router::route(&cnl, &lib, &cp, &cfg.route, 0);
                let cx = Parasitics::extract(&cnl, &lib, &cp, cr.global());
                warm += t1 - t0;
                cold += t1.elapsed();
                // Digests were asserted above, so none are recomputed
                // here.
                ((cts, x, nl, p, cts_s, r), (ccts, cx, cnl, cp, cr))
            },
        );
        cold.as_secs_f64() / warm.as_secs_f64()
    };

    h.metric("eco_incremental_speedup", speedup);
    h.finish();
}
