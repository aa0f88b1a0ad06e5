//! Checkpoint/resume determinism and sweep semantics of the
//! `FlowEngine` stage-graph API.
//!
//! The load-bearing guarantee: a flow resumed from a checkpoint must be
//! **bit-identical** to the uninterrupted run — otherwise checkpoint-forked
//! sweeps (and the Table 1 comparison built on them) would not be
//! comparable to standalone flows.

use selective_mt::cells::library::Library;
use selective_mt::circuits::rtl::circuit_b_rtl_sized;
use selective_mt::core::engine::{
    run_sweep, FlowEngine, FlowError, FlowResult, StageId, SweepRun, Technique,
};
use selective_mt::core::flow::{run_flow, FlowConfig};
use selective_mt::core::session::complete_flow;
use selective_mt::core::suite::SuiteOutcome;

fn base_config(technique: Technique) -> FlowConfig {
    let mut cfg = FlowConfig {
        technique,
        period_margin: 1.30,
        ..FlowConfig::default()
    };
    cfg.dualvth.max_high_fraction = Some(0.75);
    cfg
}

/// Every scalar that the paper's tables report, compared exactly.
fn assert_bit_identical(a: &FlowResult, b: &FlowResult, what: &str) {
    assert_eq!(
        a.standby_leakage.ua(),
        b.standby_leakage.ua(),
        "{what}: standby leakage"
    );
    assert_eq!(
        a.active_leakage.ua(),
        b.active_leakage.ua(),
        "{what}: active leakage"
    );
    assert_eq!(a.area.um2(), b.area.um2(), "{what}: area");
    assert_eq!(a.timing.wns.ps(), b.timing.wns.ps(), "{what}: WNS");
    assert_eq!(
        a.clock_period.ps(),
        b.clock_period.ps(),
        "{what}: clock period"
    );
    assert_eq!(a.census, b.census, "{what}: Vth census");
    assert_eq!(a.hold_fix, b.hold_fix, "{what}: hold-fix report");
    assert_eq!(
        a.netlist.num_instances(),
        b.netlist.num_instances(),
        "{what}: instance count"
    );
}

/// Resuming from a checkpoint taken after `AssignDualVth` reproduces the
/// uninterrupted run bit-for-bit, for all three techniques.
#[test]
fn resume_after_dualvth_is_bit_identical() {
    let lib = Library::industrial_130nm();
    let rtl = circuit_b_rtl_sized(8);
    for technique in [
        Technique::DualVth,
        Technique::ConventionalSmt,
        Technique::ImprovedSmt,
    ] {
        let cfg = base_config(technique);
        let uninterrupted = run_flow(&rtl, &lib, &cfg).expect("uninterrupted flow");

        let mut engine = FlowEngine::new(&lib, cfg.clone());
        let checkpoint = engine
            .run_until(&rtl, StageId::AssignDualVth)
            .expect("prefix");
        assert_eq!(checkpoint.stage(), Some(StageId::AssignDualVth));
        let resumed = engine.resume(&checkpoint).expect("resumed flow");

        assert_bit_identical(&uninterrupted, &resumed, &technique.to_string());
        // The stage walk is the same plan in both runs.
        assert_eq!(
            uninterrupted
                .stages
                .iter()
                .map(|s| s.id)
                .collect::<Vec<_>>(),
            resumed.stages.iter().map(|s| s.id).collect::<Vec<_>>(),
        );
    }
}

/// One checkpoint can fork repeatedly: the snapshot is immutable and every
/// fork sees the same state. Cloning a checkpoint shares that state;
/// `restore` is the one deep copy. A finished checkpoint reads back as
/// the result of the flow that produced it, however often it is read.
#[test]
fn checkpoint_forks_are_independent() {
    let lib = Library::industrial_130nm();
    let rtl = circuit_b_rtl_sized(8);
    let cfg = base_config(Technique::ImprovedSmt);
    let mut engine = FlowEngine::new(&lib, cfg.clone());
    let checkpoint = engine
        .run_until(&rtl, StageId::PlaceAndClock)
        .expect("prefix");
    let first = engine.resume(&checkpoint).expect("first fork");
    let second = engine.resume(&checkpoint).expect("second fork");
    assert_bit_identical(&first, &second, "fork");

    let shared = checkpoint.clone();
    assert!(
        std::ptr::eq(checkpoint.state(), shared.state()),
        "a cloned checkpoint shares its state"
    );
    let frozen = checkpoint.state().netlist.fingerprint();
    let mut restored = checkpoint.restore();
    let (victim, _) = restored.netlist.instances().next().expect("an instance");
    restored.netlist.remove_instance(victim);
    assert_ne!(restored.netlist.fingerprint(), frozen, "the edit took");
    assert_eq!(
        checkpoint.state().netlist.fingerprint(),
        frozen,
        "editing a restored state leaves the checkpoint unchanged"
    );
    assert_eq!(shared.state().netlist.fingerprint(), frozen);

    let corners = engine.corner_libraries().to_vec();
    let (completed, finals) =
        complete_flow(&lib, &corners, &cfg, &checkpoint).expect("completed flow");
    let digest = |r: &FlowResult| SuiteOutcome::from_flow(r).digest();
    assert_bit_identical(&completed, &first, "completed flow");
    assert_eq!(digest(&completed), digest(&first), "completed flow");
    for read in 0..2 {
        let again = engine.resume(&finals).expect("finals read");
        let what = format!("finals read {read}");
        assert_bit_identical(&again, &completed, &what);
        assert_eq!(digest(&again), digest(&completed), "{what}");
        assert_eq!(
            again.stages.iter().map(|s| s.id).collect::<Vec<_>>(),
            first.stages.iter().map(|s| s.id).collect::<Vec<_>>(),
            "{what}: stage walk"
        );
    }
}

/// `run_sweep` forks the shared prefix across techniques and matches the
/// equivalent standalone flows exactly (clock pinned to the shared
/// prefix's auto-selected period, as the sweep itself does).
#[test]
fn sweep_matches_standalone_flows() {
    let lib = Library::industrial_130nm();
    let rtl = circuit_b_rtl_sized(8);
    let base = base_config(Technique::DualVth);

    let runs: Vec<SweepRun> = [Technique::DualVth, Technique::ImprovedSmt]
        .into_iter()
        .map(|t| SweepRun::new(t.to_string(), base_config(t)))
        .collect();
    let outcomes = run_sweep(&rtl, &lib, &base, &runs, 2).expect("sweep prefix");
    assert_eq!(outcomes.len(), 2);

    for outcome in &outcomes {
        let technique = Technique::parse_json_str(&outcome.label).unwrap();
        let standalone = run_flow(&rtl, &lib, &base_config(technique)).expect("standalone");
        let swept = outcome.result.as_ref().expect("sweep run");
        assert_bit_identical(swept, &standalone, &outcome.label);
    }
}

/// Asking to stop at a stage the technique's plan does not contain is an
/// error, not a silent full run.
#[test]
fn run_until_rejects_stage_outside_plan() {
    let lib = Library::industrial_130nm();
    let mut engine = FlowEngine::new(&lib, base_config(Technique::DualVth));
    let err = engine
        .run_until(&circuit_b_rtl_sized(6), StageId::ClusterSwitches)
        .unwrap_err();
    assert!(
        matches!(
            err,
            FlowError::StageNotInPlan {
                stage: StageId::ClusterSwitches
            }
        ),
        "{err}"
    );
}

/// Resuming "until" a stage the checkpoint already completed returns
/// immediately instead of running the rest of the flow.
#[test]
fn resume_until_completed_stage_is_a_noop() {
    let lib = Library::industrial_130nm();
    let rtl = circuit_b_rtl_sized(6);
    let mut engine = FlowEngine::new(&lib, base_config(Technique::ImprovedSmt));
    let checkpoint = engine
        .run_until(&rtl, StageId::PlaceAndClock)
        .expect("prefix");
    let again = engine
        .resume_until(&checkpoint, StageId::PlaceAndClock)
        .expect("noop resume");
    assert_eq!(again.stage(), Some(StageId::PlaceAndClock));
    assert_eq!(
        again.state().completed,
        checkpoint.state().completed,
        "no extra stages may run"
    );
}

/// A config that pins a different clock cannot resume a checkpoint whose
/// dual-Vth assignment was computed for another period — nor read a
/// completed one. Pinning the committed clock reads the completed
/// checkpoint unchanged.
#[test]
fn repinning_clock_after_assignment_is_rejected() {
    let lib = Library::industrial_130nm();
    let rtl = circuit_b_rtl_sized(6);
    let cfg = base_config(Technique::DualVth);
    let mut engine = FlowEngine::new(&lib, cfg.clone());
    let checkpoint = engine
        .run_until(&rtl, StageId::AssignDualVth)
        .expect("prefix");
    let committed = checkpoint.state().clock_period.expect("clock chosen");
    let mut repin = cfg.clone();
    repin.clock_period = Some(committed * 0.5);
    let err = FlowEngine::new(&lib, repin.clone())
        .resume(&checkpoint)
        .unwrap_err();
    assert!(
        matches!(err, FlowError::ClockRepinnedAfterTiming { .. }),
        "{err}"
    );

    let finals = engine
        .resume_until(&checkpoint, StageId::Signoff)
        .expect("completed checkpoint");
    let err = FlowEngine::new(&lib, repin).resume(&finals).unwrap_err();
    assert!(
        matches!(err, FlowError::ClockRepinnedAfterTiming { .. }),
        "completed checkpoint: {err}"
    );
    let mut same = cfg;
    same.clock_period = Some(committed);
    let pinned = FlowEngine::new(&lib, same)
        .resume(&finals)
        .expect("pinning the committed clock");
    let unpinned = engine.resume(&finals).expect("completed read");
    assert_bit_identical(&pinned, &unpinned, "committed clock pinned");
}

/// Observers see every stage of the plan, in order.
#[test]
fn observers_walk_the_plan_in_order() {
    use selective_mt::core::engine::{Observer, StageMetrics};
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    struct Recorder(Arc<Mutex<Vec<StageId>>>);
    impl Observer for Recorder {
        fn on_stage_end(&mut self, stage: StageId, _m: &StageMetrics, _e: std::time::Duration) {
            self.0.lock().unwrap().push(stage);
        }
    }

    let lib = Library::industrial_130nm();
    let rtl = circuit_b_rtl_sized(6);
    let cfg = base_config(Technique::ImprovedSmt);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut engine = FlowEngine::new(&lib, cfg).observe(Recorder(seen.clone()));
    engine.run(&rtl).expect("flow");
    assert_eq!(
        seen.lock().unwrap().as_slice(),
        StageId::plan(Technique::ImprovedSmt),
    );
}

/// Route configs that used to panic, abort the process on a huge grid
/// allocation, or route on NaN costs are refused with a typed error
/// before any stage runs, on a fresh run and on a checkpoint resume —
/// including the resume of a completed checkpoint, where no stage is
/// left to run.
#[test]
fn hostile_route_configs_are_rejected_before_any_stage() {
    use selective_mt::circuits::families::{generate, standard_suite, SuiteScale};
    use selective_mt::core::engine::Observer;
    use selective_mt::route::RouteError;
    use std::sync::{Arc, Mutex};

    struct Starts(Arc<Mutex<Vec<StageId>>>);
    impl Observer for Starts {
        fn on_stage_start(&mut self, stage: StageId) {
            self.0.lock().unwrap().push(stage);
        }
    }

    let lib = Library::industrial_130nm();
    let pipeline = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .find(|w| w.config.family() == "pipeline")
        .expect("smoke suite has a pipeline design");
    let netlist = generate(&lib, &pipeline.config).expect("pipeline generates");
    let mut valid = FlowEngine::new(&lib, base_config(Technique::ImprovedSmt));
    let prefix = valid
        .run_until(&circuit_b_rtl_sized(6), StageId::PlaceAndClock)
        .expect("valid prefix");
    let finals = valid
        .resume_until(&prefix, StageId::Signoff)
        .expect("valid completed checkpoint");

    let hostile: [(f64, u32); 6] = [
        (0.0, 14),
        (1e-4, 14),
        (-8.0, 14),
        (f64::NAN, 14),
        (f64::INFINITY, 14),
        (8.0, 0),
    ];
    for (tile_um, capacity) in hostile {
        let mut cfg = base_config(Technique::ImprovedSmt);
        cfg.route.tile_um = tile_um;
        cfg.route.capacity = capacity;
        let started = Arc::new(Mutex::new(Vec::new()));
        let err = FlowEngine::new(&lib, cfg.clone())
            .observe(Starts(started.clone()))
            .run_netlist(netlist.clone())
            .err()
            .unwrap_or_else(|| panic!("tile_um {tile_um}, capacity {capacity} was accepted"));
        let expected = if capacity == 0 {
            matches!(err, FlowError::Route(RouteError::ZeroCapacity))
        } else {
            matches!(err, FlowError::Route(RouteError::BadTile { .. }))
        };
        assert!(expected, "tile_um {tile_um}, capacity {capacity}: {err}");
        assert!(started.lock().unwrap().is_empty(), "a stage ran: {err}");
        let completed = FlowEngine::new(&lib, cfg.clone()).resume(&finals);
        assert!(
            matches!(completed, Err(FlowError::Route(_))),
            "completed resume accepted tile_um {tile_um}, capacity {capacity}"
        );
        let resumed = FlowEngine::new(&lib, cfg).resume(&prefix);
        assert!(
            matches!(resumed, Err(FlowError::Route(_))),
            "resume accepted tile_um {tile_um}, capacity {capacity}"
        );
    }
}
