//! Benchmarks for the substrate algorithms: synthesis, placement, routing,
//! STA and switch clustering, at two design sizes each.

use smt_bench::harness::Harness;
use smt_cells::library::Library;
use smt_circuits::gen::{random_logic, RandomLogicConfig};
use smt_circuits::rtl::{circuit_a_rtl_lanes, circuit_b_rtl};
use smt_core::cluster::{construct_switch_structure, ClusterConfig};
use smt_core::smtgen::{insert_output_holders, to_improved_mt_cells};
use smt_place::{place, PlacerConfig};
use smt_route::{route_global, Parasitics, RouteConfig};
use smt_sta::{analyze, Derating, StaConfig};
use smt_synth::{synthesize, SynthOptions};

fn bench_synth(h: &mut Harness) {
    let lib = Library::industrial_130nm();
    let mut g = h.group("synth");
    g.sample_size(10);
    for (name, rtl) in [
        ("circuit_b", circuit_b_rtl()),
        ("circuit_a_4x4", circuit_a_rtl_lanes(4, 1)),
        ("circuit_a_8x8x2", circuit_a_rtl_lanes(8, 2)),
    ] {
        g.bench(name, || {
            synthesize(&rtl, &lib, &SynthOptions::default()).expect("synthesizes")
        });
    }
}

fn bench_place(h: &mut Harness) {
    let lib = Library::industrial_130nm();
    let mut g = h.group("place");
    g.sample_size(10);
    for gates in [300usize, 1000] {
        let n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        g.bench(&gates.to_string(), || {
            place(&n, &lib, &PlacerConfig::default())
        });
    }
}

fn bench_route(h: &mut Harness) {
    let lib = Library::industrial_130nm();
    let mut g = h.group("route");
    g.sample_size(10);
    for gates in [300usize, 1000] {
        let n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        let p = place(&n, &lib, &PlacerConfig::default());
        g.bench(&gates.to_string(), || {
            route_global(&n, &lib, &p, &RouteConfig::default())
        });
    }
}

fn bench_sta(h: &mut Harness) {
    let lib = Library::industrial_130nm();
    let mut g = h.group("sta");
    for gates in [300usize, 1000, 3000] {
        let n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        g.bench(&gates.to_string(), || {
            analyze(&n, &lib, &par, &StaConfig::default(), &Derating::none()).expect("acyclic")
        });
    }
}

fn bench_cluster(h: &mut Harness) {
    let lib = Library::industrial_130nm();
    let mut g = h.group("cluster");
    g.sample_size(10);
    for gates in [300usize, 1000] {
        let mut n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        to_improved_mt_cells(&mut n, &lib);
        insert_output_holders(&mut n, &lib);
        let p = place(&n, &lib, &PlacerConfig::default());
        g.bench_batched(
            &gates.to_string(),
            || (n.clone(), p.clone()),
            |(mut n, mut p)| {
                construct_switch_structure(&mut n, &lib, &mut p, &ClusterConfig::default())
            },
        );
    }
}

fn main() {
    let mut h = Harness::new();
    bench_synth(&mut h);
    bench_place(&mut h);
    bench_route(&mut h);
    bench_sta(&mut h);
    bench_cluster(&mut h);
    h.finish();
}
