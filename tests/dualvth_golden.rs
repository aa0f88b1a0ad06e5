//! Dual-Vth golden: pins the exact outcome of the Dual-Vth assignment
//! (Fig. 4 step 2) on the five smoke designs and the standard-scale
//! pipeline, under four flow configurations: Improved-SMT (the default)
//! with and without a high-Vth cap, and Dual-Vth and Improved-SMT at
//! the slow/typical/fast corners, whose probes time two setup libraries
//! (with and without the low-Vth derate).
//!
//! Each case runs the flow up to and including `AssignDualVth` and
//! digests the result: an `Fnv64` over the netlist fingerprint (which
//! hashes every cell choice and the order of every net's load list),
//! then the report's `swapped_to_high`, `left_low` and `passes`, then
//! its final WNS. The assignment decides which cells become MT-cells,
//! so any change here moves area and leakage on every design. A change
//! that is meant to move the assignment must update these values
//! deliberately; a speed-up must leave them as they are.

use selective_mt::base::Fnv64;
use selective_mt::cells::corner::CornerSet;
use selective_mt::cells::library::Library;
use selective_mt::circuits::families::{generate, standard_suite, SuiteScale};
use selective_mt::core::engine::{Checkpoint, DesignState, FlowEngine, StageId, Technique};
use selective_mt::core::flow::FlowConfig;

/// The designs, in column order: the smoke suite, then the first
/// standard-scale design.
const DESIGNS: [&str; 6] = [
    "pipeline_s2_w8",
    "multiplier_w6",
    "fsm_bank_m4_s4",
    "fanout_b4_r12",
    "random_300",
    "pipeline_s8_w32",
];

/// Runs `config` up to `AssignDualVth` on every design and returns the
/// rendered digests in [`DESIGNS`] order.
fn assignment_digests(lib: &Library, config: &FlowConfig) -> Vec<String> {
    let workloads = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .chain(standard_suite(SuiteScale::Standard).into_iter().take(1));
    let mut engine = FlowEngine::new(lib, config.clone());
    workloads
        .map(|w| {
            let netlist = generate(lib, &w.config).expect("suite configs are valid");
            let start = Checkpoint::new(DesignState::from_netlist(netlist));
            let done = engine
                .resume_until(&start, StageId::AssignDualVth)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let state = done.state();
            let report = state.dualvth.as_ref().expect("the stage reports");
            let mut h = Fnv64::new();
            h.write_u64(state.netlist.fingerprint());
            h.write_usize(report.swapped_to_high);
            h.write_usize(report.left_low);
            h.write_usize(report.passes);
            h.write_f64(report.final_wns.ps());
            format!("{} {:016x}", w.name, h.finish())
        })
        .collect()
}

#[test]
fn dual_vth_assignments_match_their_golden_digests() {
    let mut capped = FlowConfig::default();
    capped.dualvth.max_high_fraction = Some(0.5);
    let three_corner = FlowConfig {
        technique: Technique::DualVth,
        corners: CornerSet::slow_typ_fast(),
        ..FlowConfig::default()
    };
    let improved_three_corner = FlowConfig {
        corners: CornerSet::slow_typ_fast(),
        ..FlowConfig::default()
    };
    let cases: [(&str, FlowConfig, [u64; 6]); 4] = [
        (
            "default",
            FlowConfig::default(),
            [
                0x3392_8eaf_add9_d909,
                0xa017_0f72_e971_8625,
                0x0f8f_e0a4_adba_4954,
                0x4954_66c5_991b_bf8a,
                0xabf1_3de0_5b0e_acc9,
                0x3aef_a864_184c_2002,
            ],
        ),
        (
            "cap 0.5",
            capped,
            [
                0xa6ab_c6a1_1876_6ef5,
                0xda5d_1356_b3c9_7aad,
                0xae9e_bbe0_4dee_be93,
                0xfe7d_4950_3029_d3bb,
                0xac58_0ccc_a095_1392,
                0x3d77_9db8_643c_5806,
            ],
        ),
        (
            "DualVth, 3 corners",
            three_corner,
            [
                0x80be_1f11_1fa7_fd9c,
                0xd042_dadc_fe62_fb01,
                0x0d26_d482_ad6c_01ce,
                0x90f0_206e_0f60_5a05,
                0xc7fb_348b_e028_de8e,
                0xa6fb_6cd4_a8aa_1d5e,
            ],
        ),
        (
            "default, 3 corners",
            improved_three_corner,
            [
                0x6ae2_fed4_5eca_7d42,
                0x7e6d_8cb2_5e59_3dd0,
                0x85c9_dbc0_702d_ca21,
                0x7d3e_0f4c_c14e_0f71,
                0x450a_e07e_f406_9247,
                0xb9f5_5c82_22b8_831a,
            ],
        ),
    ];
    let lib = Library::industrial_130nm();
    for (label, config, golden) in cases {
        let expected: Vec<String> = DESIGNS
            .iter()
            .zip(golden)
            .map(|(name, d)| format!("{name} {d:016x}"))
            .collect();
        assert_eq!(assignment_digests(&lib, &config), expected, "{label}");
    }
}
