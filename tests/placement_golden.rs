//! Placement golden: pins the exact default placement of the five smoke
//! designs and the five standard-scale designs.
//!
//! Each digest is an `Fnv64` over every instance's `x` and `y`, in
//! `Netlist::instances()` order, then the placement's HPWL. Placement
//! feeds the clock period, so any change here moves area, leakage and
//! timing on every design. A change that is meant to move placements
//! must update these values deliberately; a speed-up must leave them
//! as they are.

use selective_mt::base::Fnv64;
use selective_mt::cells::library::Library;
use selective_mt::circuits::families::{generate, standard_suite, SuiteScale};
use selective_mt::place::{Placer, PlacerConfig};

#[test]
fn default_placements_match_their_golden_digests() {
    let golden = [
        ("pipeline_s2_w8", 0x225d_36bb_2e88_340b_u64),
        ("multiplier_w6", 0x0409_0ed7_4cae_04ff),
        ("fsm_bank_m4_s4", 0x76af_eab0_8233_a37f),
        ("fanout_b4_r12", 0x820f_5ec7_3476_cdc9),
        ("random_300", 0xd718_0183_2cc4_9519),
        ("pipeline_s8_w32", 0xb0fd_3c5e_06f3_527d),
        ("multiplier_w24", 0x6baf_3007_d48f_92e9),
        ("fsm_bank_m16_s8", 0xb22b_d7ce_fc7a_12fd),
        ("fanout_b16_r48", 0xceec_d0f1_a0dc_1b08),
        ("random_5000", 0xb4f4_0e40_6df7_35a1),
    ];
    let lib = Library::industrial_130nm();
    let workloads = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .chain(standard_suite(SuiteScale::Standard));
    let mut digests = Vec::new();
    for w in workloads {
        let netlist = generate(&lib, &w.config).expect("suite configs are valid");
        let placer = Placer::new(&netlist, &lib, &PlacerConfig::default())
            .expect("the default placer config is valid");
        let placement = placer.placement();
        let mut h = Fnv64::new();
        for (id, _) in netlist.instances() {
            let loc = placement.loc(id);
            h.write_f64(loc.x);
            h.write_f64(loc.y);
        }
        h.write_f64(placement.hpwl(&netlist));
        digests.push((w.name, h.finish()));
    }
    let rendered: Vec<String> = digests
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}"))
        .collect();
    let expected: Vec<String> = golden
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}"))
        .collect();
    assert_eq!(rendered, expected);
}
