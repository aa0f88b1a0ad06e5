//! End-to-end guarantees of the parallel, incremental placement
//! subsystem, asserted through the public flow surface:
//!
//! * the workload suite digests identically at any worker count
//!   (`--jobs 1` vs the pool), placement included;
//! * an incremental [`Placer::replace_cells`] after Vth-variant swaps
//!   reproduces the placement a full re-place of the modified netlist
//!   would produce (variants share footprints, so the two must agree
//!   exactly).

use smt_cells::cell::VthClass;
use smt_cells::library::Library;
use smt_circuits::families::{generate, standard_suite, SuiteScale};
use smt_core::engine::{FlowConfig, Technique};
use smt_core::suite::WorkloadSuite;
use smt_netlist::netlist::Netlist;
use smt_place::{Placement, Placer, PlacerConfig};

fn lib() -> Library {
    Library::industrial_130nm()
}

fn small_netlist(l: &Library) -> Netlist {
    let w = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .min_by_key(|w| w.config.estimated_gates())
        .expect("smoke suite is non-empty");
    generate(l, &w.config).expect("generate smallest smoke workload")
}

fn config() -> FlowConfig {
    FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    }
}

/// Every placed coordinate, bit-exact.
fn locs_bits(netlist: &Netlist, p: &Placement) -> Vec<(u32, u64, u64)> {
    netlist
        .instances()
        .filter_map(|(id, _)| {
            p.try_loc(id)
                .map(|pt| (id.index() as u32, pt.x.to_bits(), pt.y.to_bits()))
        })
        .collect()
}

#[test]
fn suite_digest_is_identical_across_worker_counts() {
    let l = lib();
    let mut workloads = standard_suite(SuiteScale::Smoke);
    workloads.sort_by_key(|w| w.config.estimated_gates());
    workloads.truncate(2);

    let run = |threads: usize| {
        let mut suite = WorkloadSuite::new(config())
            .with_threads(threads)
            .with_equiv_cycles(0);
        for w in &workloads {
            suite.push(&w.name, generate(&l, &w.config).expect("smoke generates"));
        }
        let report = suite.run(&l);
        assert!(report.all_passed(), "{}", report.render());
        report.digest()
    };
    assert_eq!(
        run(1),
        run(4),
        "suite (placement included) must be deterministic at any worker count"
    );
}

#[test]
fn incremental_replace_matches_full_replace() {
    let l = lib();
    let mut netlist = small_netlist(&l);
    let cfg = PlacerConfig::default();
    let mut placer = Placer::new(&netlist, &l, &cfg).expect("full place");

    // Swap a spread of instances to their high-Vth variants — the
    // dual-Vth/ECO shape of an incremental edit. Variants share the
    // cell footprint, so geometry is preserved per instance.
    let candidates: Vec<_> = netlist
        .instances()
        .map(|(id, inst)| (id, inst.cell))
        .filter(|&(_, cell)| l.variant_id(cell, VthClass::High) != Some(cell))
        .step_by(3)
        .take(8)
        .collect();
    assert!(!candidates.is_empty(), "need swappable instances");
    let mut touched = Vec::new();
    for (id, cell) in candidates {
        let high = l.variant_id(cell, VthClass::High).expect("H variant");
        netlist.replace_cell(id, high, &l).expect("variant swap");
        touched.push(id);
    }

    placer.replace_cells(&netlist, &l, &touched);
    let incremental = placer.placement();

    let full = Placer::new(&netlist, &l, &cfg)
        .expect("full re-place")
        .into_placement();
    assert_eq!(
        locs_bits(&netlist, incremental),
        locs_bits(&netlist, &full),
        "incremental re-place after same-footprint swaps must reproduce the full re-place"
    );
}
