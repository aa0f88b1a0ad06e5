//! What-ifs must not re-run full placement: the session prefix carries
//! the warm [`Placer`], and every eco / vth-swap fork inherits it,
//! re-placing incrementally at most. Asserted through the global
//! `smt_place::full_place_runs()` counter, which only the full
//! placement kernel bumps (incremental updates do not).
//!
//! This is the only test in this file on purpose: the counter is
//! process-global, and any concurrently running flow would race the
//! deltas. Integration-test files get their own process.

use smt_cells::library::Library;
use smt_circuits::families::{generate, standard_suite, SuiteScale};
use smt_core::dualvth::DualVthConfig;
use smt_core::engine::{FlowConfig, Technique};
use smt_core::session::{complete_flow, run_what_if, LibraryPool, Session, WhatIf};

#[test]
fn what_ifs_do_not_rerun_full_placement() {
    let lib = Library::industrial_130nm();
    let w = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .min_by_key(|w| w.config.estimated_gates())
        .expect("smoke suite is non-empty");
    let netlist = generate(&lib, &w.config).expect("generate smallest smoke workload");
    let cfg = FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    };
    let mut pool = LibraryPool::new();
    let (corners, _) = pool.corner_libs(&lib, &cfg.corners);

    let before = smt_place::full_place_runs();
    let mut session = Session::open(&w.name, &w.name, 1, netlist, cfg.clone(), &lib, &corners)
        .expect("session prefix");
    assert_eq!(
        smt_place::full_place_runs() - before,
        1,
        "opening a session places exactly once"
    );

    // Completing the flow resumes *after* PlaceAndClock: no re-place.
    let after_open = smt_place::full_place_runs();
    let (_, finals) =
        complete_flow(&lib, &corners, &cfg, session.prefix()).expect("complete from prefix");
    session.set_finals(finals);
    assert_eq!(
        smt_place::full_place_runs(),
        after_open,
        "completing a flow from the prefix must not re-place"
    );

    // Eco and vth-swap forks inherit the prefix placer; hold fixing and
    // variant swaps re-place incrementally, never from scratch.
    let mut resolve = |set: &smt_cells::corner::CornerSet| pool.corner_libs(&lib, set).0.to_vec();
    for what in [
        WhatIf::Eco { hold_rounds: 2 },
        WhatIf::VthSwap {
            dualvth: DualVthConfig::default(),
        },
    ] {
        let runs = run_what_if(
            &lib,
            &cfg,
            session.prefix(),
            session.finals(),
            &mut resolve,
            &what,
            1,
        );
        for run in &runs {
            run.result.as_ref().expect("what-if fork succeeds");
        }
    }
    assert_eq!(
        smt_place::full_place_runs(),
        after_open,
        "what-if forks must not re-run full placement"
    );
}
