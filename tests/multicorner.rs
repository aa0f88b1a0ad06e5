//! Multi-corner subsystem integration tests.
//!
//! The equivalence contract the corner work rests on: at the single
//! identity (`typ`) corner, the one STA engine (`smt_sta::analyze`) is
//! **bit-identical** to the base library's timing — arrivals, min
//! arrivals, WNS and hold checks — on the generated benchmark circuits.
//! This is what guarantees the default flow is unchanged by the corner
//! plumbing.
//!
//! Plus the flow-level acceptance: `run_three_techniques` under a
//! three-corner set emits a per-corner signoff table for every
//! technique, and the default (single-corner) configuration produces
//! bit-identical primary results to an explicit typical-only set.
//!
//! The three-corner flows are also pinned: per technique on circuit B,
//! and per smoke design under Improved-SMT, the `SuiteOutcome` digest
//! (area, clock, WNS, leakage, census and the per-corner table) and the
//! fingerprint of the final netlist. A change meant to move the
//! three-corner flow must update these values deliberately; a speed-up
//! or a refactor must leave them as they are.

use selective_mt::prelude::*;
use smt_cells::corner::CornerLibrary;
use smt_core::suite::SuiteOutcome;
use smt_place::{place, PlacerConfig};
use smt_route::Parasitics;
use smt_sta::{analyze, Derating, StaConfig};

fn bench_circuit(seed: u64, gates: usize, lib: &Library) -> smt_netlist::netlist::Netlist {
    random_logic(
        lib,
        &RandomLogicConfig {
            gates,
            seed,
            ..RandomLogicConfig::default()
        },
    )
    .expect("valid random_logic config")
}

/// One flow result's pin: `label`, the digest of its `SuiteOutcome`
/// and the fingerprint of the netlist it leaves.
fn flow_pin(label: &str, r: &FlowResult) -> String {
    format!(
        "{label} {:016x} {:016x}",
        SuiteOutcome::from_flow(r).digest(),
        r.netlist.fingerprint()
    )
}

/// Property: over the generated benchmark circuits, `analyze` times the
/// typical corner bit-for-bit like the base library, whether the corner
/// library comes from the typical-only corner set (the flow's default)
/// or is regenerated from the identity-derived technology.
#[test]
fn typical_corner_libraries_time_bit_identically_to_the_base_library() {
    let lib = Library::industrial_130nm();
    let set = CornerLibrary::build_set(&lib, &CornerSet::typical_only());
    let regen = Library::generate(Corner::typical().derive(&lib.tech), lib.config.clone());
    for seed in [1u64, 7, 19, 42, 77] {
        let n = bench_circuit(seed, 220, &lib);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let cfg = StaConfig::default();
        let der = Derating::none();

        let base = analyze(&n, &lib, &par, &cfg, &der).unwrap();
        for (name, corner_lib) in [("typical_only", &set[0].lib), ("regenerated", &regen)] {
            let r = analyze(&n, corner_lib, &par, &cfg, &der).unwrap();
            assert_eq!(r.arrival, base.arrival, "seed {seed} {name}: arrivals");
            assert_eq!(
                r.arrival_min, base.arrival_min,
                "seed {seed} {name}: min arrivals"
            );
            assert_eq!(r.wns, base.wns, "seed {seed} {name}: wns");
            assert_eq!(
                r.hold_violations, base.hold_violations,
                "seed {seed} {name}: hold checks"
            );
        }
    }
}

/// Flow-level acceptance: the three-technique comparison under a
/// three-corner set reports a per-corner leakage/WNS row for every
/// corner, setup holds at every setup corner, and the slow corner is the
/// binding one.
#[test]
fn three_technique_flow_reports_three_corner_tables() {
    let lib = Library::industrial_130nm();
    let mut cfg = FlowConfig {
        corners: CornerSet::slow_typ_fast(),
        period_margin: 1.35,
        ..FlowConfig::default()
    };
    cfg.dualvth.max_high_fraction = Some(0.7);
    let results = run_three_techniques(&circuit_b_rtl_sized(8), &lib, &cfg).unwrap();
    for r in &results {
        assert_eq!(r.corner_signoff.len(), 3, "one row per corner");
        let by_name = |name: &str| {
            r.corner_signoff
                .iter()
                .find(|c| c.corner.name == name)
                .unwrap_or_else(|| panic!("corner {name} missing"))
        };
        let (slow, typ, fast) = (by_name("slow"), by_name("typ"), by_name("fast"));
        // Setup met at every setup-checked corner, slow binding.
        assert!(slow.wns.ps() >= 0.0, "slow corner setup met");
        assert!(typ.wns.ps() >= 0.0);
        assert!(slow.wns <= typ.wns, "slow corner is the binding one");
        assert!(fast.wns >= typ.wns, "fast corner has the most slack");
        // Leakage collapses at the cold fast corner and peaks hot.
        assert!(fast.standby_leakage < typ.standby_leakage);
        // The corner table made it into the signoff report.
        let text = smt_core::render_signoff(r, &lib, 1);
        assert!(text.contains("-- corners --"), "report: {text}");
        for name in ["slow", "typ", "fast"] {
            assert!(text.contains(name), "report misses corner {name}");
        }
    }
    // Hold is clean at the fast corner after the multi-corner ECO.
    for r in &results {
        let fast = r
            .corner_signoff
            .iter()
            .find(|c| c.corner.name == "fast")
            .unwrap();
        assert_eq!(fast.hold_violations, 0, "fast-corner hold clean");
    }
    let pins: Vec<String> = ["dual_vth", "conventional", "improved"]
        .iter()
        .zip(&results)
        .map(|(label, r)| flow_pin(label, r))
        .collect();
    assert_eq!(
        pins,
        [
            "dual_vth 877e461c3b8a8142 31bae86e38e43463",
            "conventional aac431dd99713f75 7eb70e2419c51d7f",
            "improved 54bef39ed798074f 13fd59d274889d42",
        ]
    );
}

/// The clock probe takes the worst critical delay across every setup
/// corner wherever the binding slow corner sits in the set: the chosen
/// clock does not depend on corner order, and the slow corner sets a
/// longer one than the typical corner alone.
#[test]
fn clock_probe_is_bound_by_the_slow_corner_in_any_order() {
    let lib = Library::industrial_130nm();
    let rtl = circuit_b_rtl_sized(8);
    let clock = |corners: Vec<Corner>| {
        let cfg = FlowConfig {
            corners: CornerSet { corners },
            ..FlowConfig::default()
        };
        FlowEngine::new(&lib, cfg)
            .run_until(&rtl, StageId::PlaceAndClock)
            .unwrap()
            .state()
            .clock_period
            .expect("clock chosen")
    };
    let slow_first = clock(vec![Corner::slow(), Corner::typical(), Corner::fast()]);
    let typ_first = clock(vec![Corner::typical(), Corner::slow(), Corner::fast()]);
    let typ_only = clock(vec![Corner::typical()]);
    assert_eq!(slow_first.ps().to_bits(), typ_first.ps().to_bits());
    assert!(slow_first > typ_only, "{slow_first} vs typical {typ_only}");
}

/// The smoke designs under Improved-SMT at slow/typ/fast, from their
/// generated netlists: every design closes timing at every setup
/// corner, and each flow's outcome digest and final netlist are pinned.
#[test]
fn smoke_designs_close_three_corner_improved_flows_at_their_pins() {
    let lib = Library::industrial_130nm();
    let cfg = FlowConfig {
        technique: Technique::ImprovedSmt,
        corners: CornerSet::slow_typ_fast(),
        ..FlowConfig::default()
    };
    let expected = [
        "pipeline_s2_w8 050a55e6ad2f75a8 9bcf2f8113d0e7cb",
        "multiplier_w6 5ca8d623e8562f2d 8f27734c9644e166",
        "fsm_bank_m4_s4 1282718cbfaca709 66dbef82f7b5b8a3",
        "fanout_b4_r12 0f625d6a60ab4322 fc19f7db47760c24",
        "random_300 fd7a304b7f293506 2231a10a7cf07263",
    ];
    let pins: Vec<String> = standard_suite(SuiteScale::Smoke)
        .iter()
        .map(|w| {
            let netlist = generate(&lib, &w.config).expect("suite configs are valid");
            let r =
                run_flow_netlist(netlist, &lib, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            for c in r.corner_signoff.iter().filter(|c| c.corner.check_setup) {
                assert!(c.wns.ps() >= 0.0, "{}: setup at {}", w.name, c.corner.name);
            }
            flow_pin(&w.name, &r)
        })
        .collect();
    assert_eq!(pins, expected);
}

/// Bit-identity of the *flow*: the default configuration and an explicit
/// typical-only corner set produce identical primary results (the corner
/// plumbing is invisible until multi-corner sets are requested).
#[test]
fn default_flow_matches_explicit_typical_corner_set_bitwise() {
    let lib = Library::industrial_130nm();
    let base = FlowConfig::default();
    let explicit = FlowConfig {
        corners: CornerSet::typical_only(),
        ..FlowConfig::default()
    };
    let rtl = circuit_b_rtl_sized(6);
    let a = run_flow(&rtl, &lib, &base).unwrap();
    let b = run_flow(&rtl, &lib, &explicit).unwrap();
    assert_eq!(a.clock_period, b.clock_period);
    assert_eq!(a.timing.wns, b.timing.wns);
    assert_eq!(a.standby_leakage, b.standby_leakage);
    assert_eq!(a.active_leakage, b.active_leakage);
    assert_eq!(a.area, b.area);
    assert_eq!(a.census.low, b.census.low);
    assert_eq!(a.census.high, b.census.high);
    // Exactly one corner row, the identity corner, mirroring the
    // primary figures bit-for-bit.
    assert_eq!(a.corner_signoff.len(), 1);
    assert!(a.corner_signoff[0].corner.is_identity());
    assert_eq!(a.corner_signoff[0].wns, a.timing.wns);
    assert_eq!(a.corner_signoff[0].standby_leakage, a.standby_leakage);
}

/// The corner-library invariant the whole subsystem rests on: cell ids
/// are stable across per-corner libraries, and the power reports price
/// the same netlist differently per corner.
#[test]
fn per_corner_leakage_report_spans_orders_of_magnitude() {
    let lib = Library::industrial_130nm();
    let n = bench_circuit(5, 120, &lib);
    let corners = CornerLibrary::build_set(&lib, &CornerSet::slow_typ_fast());
    let text = smt_power::render_corner_leakage(&n, &corners, smt_power::StateSource::Mean);
    assert!(text.contains("per-corner leakage"));
    for name in ["slow", "typ", "fast"] {
        assert!(text.contains(name), "{text}");
    }
    let total = |cl: &CornerLibrary| {
        smt_power::standby_leakage(&n, &cl.lib, smt_power::StateSource::Mean).total()
    };
    let (slow, typ, fast) = (total(&corners[0]), total(&corners[1]), total(&corners[2]));
    // Hot corners leak; the cold fast corner's leakage collapses even
    // though its devices are the fastest (Vth shift < temperature swing).
    assert!(fast.ua() < typ.ua() * 0.05, "cold {fast} vs hot {typ}");
    assert!(slow.ua() < typ.ua(), "higher-Vth slow corner leaks less");
}
