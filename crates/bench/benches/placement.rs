//! Placement-kernel benchmark.
//!
//! Times a full multi-level placement of the largest smoke-scale
//! workload twice — serialised (`threads = 1`) and on the shared worker
//! pool (`threads = 0`) — and records their wall-clock ratio as the
//! **`placement_speedup`** metric gated by `benches/baseline.json`.
//! Like `suite_throughput`, the baseline is pinned at the single-core
//! floor (1.0): the gate catches the parallel placement path becoming
//! *slower* than the serial one anywhere (a lost `parallel_map`
//! fan-out, a serialising lock), without flaking on small runners.
//!
//! Also measures **`placement_stage_share`** — the fraction of total
//! flow wall time spent in the PlaceAndClock stage across a smoke-scale
//! suite run. The placement rework is a stage-profile claim ("the
//! placement wall"), so the share itself is gated (`better: lower`):
//! if placement grows back toward dominating the flow, the gate fails.
//!
//! Finally records **`placement_scaling`**: single-thread
//! (`threads = 1`) placement time per cell of a 20,000-gate
//! `random_logic` design over that of a 2,000-gate one, both in the
//! perfbench `scale_random_8k` shape (`ffs = gates / 40`, 48 inputs,
//! window 128, seed 8000). Linear placement reads 1.0; the gate
//! (`better: lower`) catches FM or annealing turning superlinear again.
//!
//! And **`anneal_cost_ratio`**: single-thread full placement time over
//! single-thread bisection-only placement time (`anneal_moves_per_cell
//! = 0`) of the standard suite's `fanout_b16_r48`, whose nets reach 769
//! pins. Annealing prices a swap on cached net bounding boxes, so it
//! adds about half the bisection time (ratio ~1.3-1.6); an annealer
//! that walks every pin of every net on both cells per swap reads
//! ~5.2. The gate (`better: lower`) catches a fallback to such walks.
//!
//! ```text
//! cargo bench -p smt-bench --bench placement
//! ```

use smt_bench::harness::Harness;
use smt_cells::library::Library;
use smt_circuits::families::{generate, standard_suite, FamilyConfig, SuiteScale};
use smt_circuits::gen::RandomLogicConfig;
use smt_core::engine::{FlowConfig, StageId, Technique};
use smt_core::suite::WorkloadSuite;
use smt_place::{Placer, PlacerConfig};

fn main() {
    let lib = Library::industrial_130nm();
    let workload = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .max_by_key(|w| w.config.estimated_gates())
        .expect("smoke suite is non-empty");
    let netlist = generate(&lib, &workload.config).expect("smoke configs are valid");
    let config = PlacerConfig::default();
    let mut h = Harness::new();

    let mut g = h.group("placement");
    g.sample_size(5);
    let serial = g.bench("full_serial_threads1", || {
        Placer::with_threads(&netlist, &lib, &config, 1)
            .expect("default placer config is valid")
            .placement()
            .hpwl(&netlist)
    });
    let parallel = g.bench("full_parallel_pool", || {
        Placer::with_threads(&netlist, &lib, &config, 0)
            .expect("default placer config is valid")
            .placement()
            .hpwl(&netlist)
    });
    drop(g);

    let speedup = serial.median.as_secs_f64() / parallel.median.as_secs_f64().max(1e-9);
    h.metric("placement_speedup", speedup);

    // Stage share: one smoke suite pass, profiled per stage.
    let mut suite = WorkloadSuite::new(FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    })
    .with_equiv_cycles(0);
    for w in standard_suite(SuiteScale::Smoke) {
        suite.push(
            &w.name,
            generate(&lib, &w.config).expect("smoke configs are valid"),
        );
    }
    let report = suite.run(&lib);
    assert!(report.all_passed(), "{}", report.render());
    let profile = report.stage_profile();
    let total = profile.total().as_secs_f64().max(1e-9);
    let place = profile
        .rows
        .iter()
        .find(|r| r.id == StageId::PlaceAndClock)
        .map(|r| r.total.as_secs_f64())
        .unwrap_or(0.0);
    let share = place / total;
    println!(
        "placement stage share: {:.1}% of {:.2}s flow time",
        100.0 * share,
        total
    );
    h.metric("placement_stage_share", share);

    // Scaling: single-thread time per cell, 20k gates over 2k gates.
    // Each sample places the small design ten times, so both samples
    // run for about as long and host noise averages out alike.
    let mut per_cell = Vec::new();
    let mut g = h.group("placement_scaling");
    g.sample_size(3);
    for (gates, reps) in [(2_000, 10), (20_000, 1)] {
        let design = FamilyConfig::RandomLogic(RandomLogicConfig {
            gates,
            ffs: gates / 40,
            inputs: 48,
            window: 128,
            seed: 8000,
        });
        let netlist = generate(&lib, &design).expect("random_logic config is valid");
        let stats = g.bench(&format!("random_{gates}_threads1_x{reps}"), || {
            (0..reps)
                .map(|_| {
                    Placer::with_threads(&netlist, &lib, &config, 1)
                        .expect("default placer config is valid")
                        .placement()
                        .hpwl(&netlist)
                })
                .sum::<f64>()
        });
        let cells = (reps * netlist.num_instances()) as f64;
        per_cell.push(stats.median.as_secs_f64() / cells);
    }
    drop(g);
    let scaling = per_cell[1] / per_cell[0].max(1e-12);
    println!("placement scaling: {scaling:.2}x per-cell time at 10x the gates");
    h.metric("placement_scaling", scaling);

    // Annealing cost on high-fanout nets: full over bisection-only
    // placement, both single-thread.
    let fanout = standard_suite(SuiteScale::Standard)
        .into_iter()
        .find(|w| w.name == "fanout_b16_r48")
        .expect("the standard suite has fanout_b16_r48");
    let netlist = generate(&lib, &fanout.config).expect("standard configs are valid");
    let bisect_only = PlacerConfig {
        anneal_moves_per_cell: 0,
        ..PlacerConfig::default()
    };
    let mut g = h.group("anneal_cost");
    g.sample_size(5);
    let mut time = |id: &str, config: &PlacerConfig| {
        g.bench(id, || {
            Placer::with_threads(&netlist, &lib, config, 1)
                .expect("placer config is valid")
                .placement()
                .hpwl(&netlist)
        })
        .median
        .as_secs_f64()
    };
    let full = time("fanout_b16_r48_full_threads1", &config);
    let bisect = time("fanout_b16_r48_bisect_threads1", &bisect_only);
    drop(g);
    let ratio = full / bisect.max(1e-9);
    println!("anneal cost: full placement takes {ratio:.2}x bisection alone");
    h.metric("anneal_cost_ratio", ratio);
    h.finish();
}
