//! Whole-flow incrementality: warm what-if forks that graft the finals'
//! routing / CTS / extraction / equivalence / power caches must be
//! **bit-identical** to the same fork run from scratch, while actually
//! reusing the cached work:
//!
//! * after a Vth swap and an ECO hold-fix what-if, routed lengths,
//!   extracted RC, clock skew, leakage, the suite digest and the
//!   equivalence-report digest all match the cold fork exactly — under
//!   Dual-Vth and under Improved-SMT, whose post-route switch sizing
//!   edits the netlist after routing;
//! * `full_route_runs()` / `full_cts_runs()` stay at the single cold
//!   pass across session what-ifs — warm forks re-route and re-buffer
//!   incrementally, never from scratch;
//! * the parallel re-route fan-out is worker-count invariant (this is
//!   the test the nightly ThreadSanitizer matrix runs).
//!
//! The counters are process-global, so every test here serializes on
//! one mutex and asserts counter *deltas*, never absolute values.

use selective_mt::base::geom::Point;
use selective_mt::cells::corner::CornerSet;
use selective_mt::cells::library::Library;
use selective_mt::circuits::rtl::circuit_b_rtl_sized;
use selective_mt::core::dualvth::DualVthConfig;
use selective_mt::core::engine::{
    Checkpoint, FlowConfig, FlowEngine, FlowResult, StageId, Technique,
};
use selective_mt::core::session::{complete_flow, run_what_if, LibraryPool, Session, WhatIf};
use selective_mt::core::suite::SuiteOutcome;
use selective_mt::netlist::netlist::{NetId, Netlist};
use selective_mt::place::{place, PlacerConfig};
use selective_mt::route::{
    full_cts_runs, full_route_runs, reextractions_avoided, RouteConfig, Router,
};
use selective_mt::synth::{synthesize, SynthOptions};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Serializes the tests in this binary: the full-pass counters are
/// process-global, and concurrent flows would tear the deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lib() -> Library {
    Library::industrial_130nm()
}

/// Circuit B as an all-low-Vth netlist (the session API takes netlists,
/// not RTL).
fn circuit_b_netlist(l: &Library, width: usize) -> Netlist {
    synthesize(&circuit_b_rtl_sized(width), l, &SynthOptions::default())
        .expect("synthesize circuit B")
}

/// The session base configuration. FFs are excluded from Vth assignment
/// so a vth-swap what-if can never perturb the clock fabric — the CTS
/// replay gate below is then a guarantee, not a coincidence.
fn base_config() -> FlowConfig {
    let mut cfg = FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    };
    cfg.dualvth.include_ffs = false;
    cfg
}

/// The implementation what-ifs every warm/cold comparison runs: a
/// tighter high-Vth budget and two extra hold-fix rounds.
fn what_ifs(cfg: &FlowConfig) -> (WhatIf, WhatIf) {
    let swap = WhatIf::VthSwap {
        dualvth: DualVthConfig {
            max_high_fraction: Some(0.10),
            ..cfg.dualvth.clone()
        },
    };
    let eco = WhatIf::Eco {
        hold_rounds: cfg.hold_rounds + 2,
    };
    (swap, eco)
}

fn assert_results_match(warm: &FlowResult, cold: &FlowResult, what: &str) {
    assert_eq!(
        SuiteOutcome::from_flow(warm).digest(),
        SuiteOutcome::from_flow(cold).digest(),
        "{what}: suite digest"
    );
    assert_eq!(warm.timing.wns.ps(), cold.timing.wns.ps(), "{what}: WNS");
    assert_eq!(
        warm.cts.as_ref().map(|r| r.skew().ps()),
        cold.cts.as_ref().map(|r| r.skew().ps()),
        "{what}: clock skew"
    );
    assert_eq!(
        warm.standby_leakage.ua(),
        cold.standby_leakage.ua(),
        "{what}: standby leakage"
    );
    assert_eq!(
        warm.active_leakage.ua(),
        cold.active_leakage.ua(),
        "{what}: active leakage"
    );
    assert_eq!(
        warm.verify.equivalence.digest(),
        cold.verify.equivalence.digest(),
        "{what}: equivalence report digest"
    );
    assert_eq!(warm.hold_fix, cold.hold_fix, "{what}: hold fix");
}

#[test]
fn warm_what_ifs_are_bit_identical_and_skip_full_route_and_cts() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let cfg = base_config();
    let netlist = circuit_b_netlist(&l, 8);
    let mut pool = LibraryPool::new();
    let (corners, _) = pool.corner_libs(&l, &cfg.corners);
    let mut session =
        Session::open("inc", "circuit-b", 1, netlist, cfg.clone(), &l, &corners).expect("session");

    // The one and only full route + full CTS: the base flow.
    let route0 = full_route_runs();
    let cts0 = full_cts_runs();
    let (_, finals) = complete_flow(&l, &corners, &cfg, session.prefix()).expect("base flow");
    session.set_finals(finals);
    assert_eq!(full_route_runs() - route0, 1, "base flow routes once");
    assert_eq!(full_cts_runs() - cts0, 1, "base flow synthesizes one tree");

    let mut resolve = |set: &CornerSet| pool.corner_libs(&l, set).0.to_vec();
    let (swap, eco) = what_ifs(&cfg);

    // Warm what-ifs: the finals' caches ride along into the fork.
    let warm_swap = run_what_if(
        &l,
        &cfg,
        session.prefix(),
        session.finals(),
        &mut resolve,
        &swap,
        1,
    );
    let warm_eco = run_what_if(
        &l,
        &cfg,
        session.prefix(),
        session.finals(),
        &mut resolve,
        &eco,
        1,
    );
    assert_eq!(
        full_route_runs() - route0,
        1,
        "session what-ifs must re-route incrementally, not from scratch"
    );
    assert_eq!(
        full_cts_runs() - cts0,
        1,
        "session what-ifs must replay the recorded clock tree"
    );

    // From-scratch references: the same forks without warm caches.
    let cold_swap = run_what_if(&l, &cfg, session.prefix(), None, &mut resolve, &swap, 1);
    let cold_eco = run_what_if(&l, &cfg, session.prefix(), None, &mut resolve, &eco, 1);
    assert!(full_route_runs() - route0 > 1, "cold forks route in full");

    for (warm, cold, what) in [
        (&warm_swap, &cold_swap, "vth-swap"),
        (&warm_eco, &cold_eco, "eco"),
    ] {
        let w = warm[0].result.as_ref().expect(what);
        let c = cold[0].result.as_ref().expect(what);
        assert_results_match(w, c, what);
    }
}

/// Improved-SMT, the technique the benchmark runs: `ReoptSwitches`
/// resizes switches after routing, so `EcoHoldFix` enters with routing
/// and extraction behind the netlist and re-syncs them through the
/// fingerprint scan — on warm forks, against the finals' grafted caches.
#[test]
fn improved_smt_warm_what_ifs_are_bit_identical() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let cfg = FlowConfig {
        technique: Technique::ImprovedSmt,
        ..base_config()
    };
    let netlist = circuit_b_netlist(&l, 8);
    let mut pool = LibraryPool::new();
    let (corners, _) = pool.corner_libs(&l, &cfg.corners);
    let mut session = Session::open(
        "inc-imp",
        "circuit-b",
        1,
        netlist,
        cfg.clone(),
        &l,
        &corners,
    )
    .expect("session");
    let (base, finals) = complete_flow(&l, &corners, &cfg, session.prefix()).expect("base flow");
    session.set_finals(finals);
    let reopt = base.reopt.as_ref().expect("improved flow re-optimizes");
    assert!(
        reopt.upsized + reopt.downsized > 0,
        "switch re-sizing must edit the routed netlist"
    );

    let mut resolve = |set: &CornerSet| pool.corner_libs(&l, set).0.to_vec();
    let (swap, eco) = what_ifs(&cfg);
    for (what, label) in [(&swap, "vth-swap"), (&eco, "eco")] {
        let warm = run_what_if(
            &l,
            &cfg,
            session.prefix(),
            session.finals(),
            &mut resolve,
            what,
            1,
        );
        let cold = run_what_if(&l, &cfg, session.prefix(), None, &mut resolve, what, 1);
        let w = warm[0].result.as_ref().expect(label);
        let c = cold[0].result.as_ref().expect(label);
        assert_results_match(w, c, label);
    }
}

#[test]
fn warm_fork_reuses_routes_and_extraction_bit_for_bit() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let cfg = base_config();
    let netlist = circuit_b_netlist(&l, 8);
    let mut pool = LibraryPool::new();
    let (corners, _) = pool.corner_libs(&l, &cfg.corners);
    let session =
        Session::open("inc2", "circuit-b", 1, netlist, cfg.clone(), &l, &corners).expect("session");
    let (_, finals) = complete_flow(&l, &corners, &cfg, session.prefix()).expect("base flow");

    // A Vth-swap fork, once warm (finals caches grafted into the prefix
    // fork, as `run_what_if` does) and once cold.
    let mut swap_cfg = cfg.clone();
    swap_cfg.dualvth.max_high_fraction = Some(0.10);
    let warm_from = {
        let mut state = session.prefix().restore();
        let warm = finals.restore();
        state.router = warm.router;
        state.cts_session = warm.cts_session;
        state.extracted = warm.extracted;
        state.equiv_cache = warm.equiv_cache;
        state.power_ledger = warm.power_ledger;
        Checkpoint::new(state)
    };

    let route0 = full_route_runs();
    let avoided0 = reextractions_avoided();
    let warm_finals = FlowEngine::with_corner_libraries(&l, swap_cfg.clone(), corners.to_vec())
        .resume_until(&warm_from, StageId::Signoff)
        .expect("warm fork");
    assert_eq!(
        full_route_runs() - route0,
        0,
        "warm fork never routes in full"
    );
    assert!(
        reextractions_avoided() - avoided0 > 0,
        "unmoved nets must keep their extracted RC entries"
    );
    let cold_finals = FlowEngine::with_corner_libraries(&l, swap_cfg, corners.to_vec())
        .resume_until(session.prefix(), StageId::Signoff)
        .expect("cold fork");

    let w = warm_finals.restore();
    let c = cold_finals.restore();
    let wr = w.router.expect("warm router");
    let cr = c.router.expect("cold router");
    // Routed lengths and paths: identical down to the digest.
    assert_eq!(wr.global().net_length, cr.global().net_length);
    assert_eq!(wr.digest(), cr.digest());
    // Extracted RC: every net's parasitics byte-identical.
    let we = w.extracted.expect("warm parasitics");
    let ce = c.extracted.expect("cold parasitics");
    for (id, _) in w.netlist.nets() {
        assert_eq!(we.net(id), ce.net(id), "net {id:?} parasitics");
    }
}

#[test]
fn reroute_fanout_is_worker_count_invariant() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let n = circuit_b_netlist(&l, 4);
    let p = place(&n, &l, &PlacerConfig::default());
    let cfg = RouteConfig::default();
    let base = Router::route(&n, &l, &p, &cfg, 1);

    // Shift a couple dozen instances; their incident nets form the
    // re-route candidate set.
    let mut moved = p.clone();
    let mut candidates: BTreeSet<NetId> = BTreeSet::new();
    for (id, inst) in n.instances().take(24) {
        let loc = moved.loc(id);
        moved.set_loc(id, Point::new(loc.x + 8.0, loc.y + 4.0));
        candidates.extend(inst.conns.iter().flatten().copied());
    }

    let reference = {
        let mut r = base.clone();
        r.reroute_nets(&n, &l, &moved, &cfg, Some(&candidates), 1);
        // Below 32 stale nets a refresh stays on one thread, whatever
        // the worker count: the fan-out must actually run.
        assert!(
            r.last_rerouted >= 32,
            "only {} nets rerouted",
            r.last_rerouted
        );
        r.digest()
    };
    for workers in [2, 4, 8] {
        let mut r = base.clone();
        r.reroute_nets(&n, &l, &moved, &cfg, Some(&candidates), workers);
        assert_eq!(
            r.digest(),
            reference,
            "re-route fan-out must be invariant at {workers} workers"
        );
    }
    // And the incremental result equals routing the moved placement
    // from scratch.
    assert_eq!(
        Router::route(&n, &l, &moved, &cfg, 1).digest(),
        reference,
        "incremental re-route must match a from-scratch pass"
    );
}
