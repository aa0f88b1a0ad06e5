//! Seeded mutation tests for the static-analysis engine: inject one
//! known defect into a known-good generated design and assert that the
//! analyzer reports exactly the expected rule(s) — the injected defect's
//! `RuleId` plus any structural consequence the mutation necessarily
//! carries — and nothing else. The same mutation, injected by a flow
//! stage, must stop the flow at that stage's lint gate.
//!
//! Comparing *fresh* rules (mutated minus baseline) keeps the tests
//! honest on a realistic ~150-gate circuit: pre-existing findings in
//! the generated design (dead logic the generator happens to emit, for
//! example) neither mask an injected defect nor count against it.

use selective_mt::cells::library::Library;
use selective_mt::circuits::gen::{random_logic, RandomLogicConfig};
use selective_mt::core::engine::{
    instantiate, DesignState, FlowConfig, FlowContext, FlowEngine, FlowError, Observer, Stage,
    StageId, Technique,
};
use selective_mt::netlist::check::{analyze, analyze_with_threads, LintPolicy, RuleId};
use selective_mt::netlist::netlist::{InstId, NetDriver, NetId, Netlist};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

fn lib() -> Library {
    Library::industrial_130nm()
}

/// The known-good subject: a deterministic ~150-gate, 8-FF circuit.
fn subject(lib: &Library) -> Netlist {
    random_logic(
        lib,
        &RandomLogicConfig {
            gates: 150,
            ffs: 8,
            inputs: 12,
            window: 32,
            seed: 20260808,
        },
    )
    .expect("subject generates")
}

fn rule_set(netlist: &Netlist, lib: &Library) -> BTreeSet<RuleId> {
    analyze(netlist, lib, &LintPolicy::structural())
        .diagnostics
        .iter()
        .map(|d| d.rule)
        .collect()
}

/// Rules the mutation introduced: present after, absent before.
fn fresh_rules(mutated: &Netlist, baseline: &BTreeSet<RuleId>, lib: &Library) -> BTreeSet<RuleId> {
    rule_set(mutated, lib)
        .difference(baseline)
        .copied()
        .collect()
}

/// A gate-driven net with at least one load, to mutate around.
fn victim_net(netlist: &Netlist) -> (NetId, InstId) {
    netlist
        .nets()
        .find_map(|(id, net)| match net.driver {
            Some(NetDriver::Inst(pr)) if !net.loads.is_empty() && net.port_loads.is_empty() => {
                Some((id, pr.inst))
            }
            _ => None,
        })
        .expect("generated circuit has a gate-driven loaded net")
}

/// Disconnects the driver of a loaded net.
fn drop_a_driver(netlist: &mut Netlist) {
    let (net, driver) = victim_net(netlist);
    let out_pin = netlist
        .inst(driver)
        .conns
        .iter()
        .position(|c| *c == Some(net));
    netlist.disconnect(driver, out_pin.expect("driver is bound to its net"));
}

#[test]
fn dropped_driver_fires_undriven_net() {
    let lib = lib();
    let mut n = subject(&lib);
    let baseline = rule_set(&n, &lib);

    drop_a_driver(&mut n);

    let fresh = fresh_rules(&n, &baseline, &lib);
    // The loaded net losing its driver is the defect; the driver gate's
    // now-unconnected output pin is the mutation's structural shadow.
    let expected: BTreeSet<_> = [RuleId::UndrivenNet, RuleId::DanglingOutput].into();
    assert_eq!(fresh, expected, "fresh rules: {fresh:?}");
}

#[test]
fn cross_wired_clock_fires_unconstrained_endpoint() {
    let lib = lib();
    let mut n = subject(&lib);
    let baseline = rule_set(&n, &lib);

    // Move one flip-flop's CK pin from the clock tree onto a data net:
    // the clock probe no longer reaches it.
    let ff = n
        .instances()
        .find_map(|(id, inst)| lib.cell(inst.cell).is_sequential().then_some(id))
        .expect("subject has flip-flops");
    let ck = lib
        .cell(n.inst(ff).cell)
        .pin_index("CK")
        .expect("DFF has CK");
    let (data_net, _) = victim_net(&n);
    n.disconnect(ff, ck);
    n.connect(ff, ck, data_net).unwrap();

    let fresh = fresh_rules(&n, &baseline, &lib);
    let expected: BTreeSet<_> = [RuleId::UnconstrainedEndpoint].into();
    assert_eq!(fresh, expected, "fresh rules: {fresh:?}");
}

#[test]
fn injected_three_gate_cycle_fires_comb_loop() {
    let lib = lib();
    let mut n = subject(&lib);
    let baseline = rule_set(&n, &lib);

    let inv = lib.find_id("INV_X1_L").unwrap();
    let n1 = n.add_net("mut_loop_1");
    let n2 = n.add_net("mut_loop_2");
    let n3 = n.add_net("mut_loop_3");
    let u = n.add_instance("mut_u", inv, &lib);
    let v = n.add_instance("mut_v", inv, &lib);
    let w = n.add_instance("mut_w", inv, &lib);
    n.connect_by_name(u, "A", n3, &lib).unwrap();
    n.connect_by_name(u, "Z", n1, &lib).unwrap();
    n.connect_by_name(v, "A", n1, &lib).unwrap();
    n.connect_by_name(v, "Z", n2, &lib).unwrap();
    n.connect_by_name(w, "A", n2, &lib).unwrap();
    n.connect_by_name(w, "Z", n3, &lib).unwrap();
    // Tap the ring so it is observable: the cycle itself stays the only
    // fresh defect.
    n.expose_output("mut_loop_tap", n3);

    let fresh = fresh_rules(&n, &baseline, &lib);
    let expected: BTreeSet<_> = [RuleId::CombinationalLoop].into();
    assert_eq!(fresh, expected, "fresh rules: {fresh:?}");

    // Exactly one cycle, reported once, as an error.
    let report = analyze(&n, &lib, &LintPolicy::structural());
    let loops: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == RuleId::CombinationalLoop)
        .collect();
    assert_eq!(loops.len(), 1, "{loops:?}");
    assert!(
        loops[0].message.contains("3 gate(s)"),
        "{}",
        loops[0].message
    );
}

#[test]
fn fanout_overload_fires_max_fanout() {
    let lib = lib();
    let mut n = subject(&lib);
    let baseline = rule_set(&n, &lib);

    // Pile enough extra inverter loads on one net to clear the library
    // limit (64) regardless of its existing fanout.
    let inv = lib.find_id("INV_X1_L").unwrap();
    let (net, _) = victim_net(&n);
    for i in 0..70 {
        let u = n.add_instance(&format!("mut_load_{i}"), inv, &lib);
        n.connect_by_name(u, "A", net, &lib).unwrap();
        let z = n.add_net(&format!("mut_load_out_{i}"));
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        n.expose_output(&format!("mut_load_port_{i}"), z);
    }

    let fresh = fresh_rules(&n, &baseline, &lib);
    // 70 extra sinks clear both electrical limits at once: the fanout
    // count (64) and the summed pin capacitance (256 fF).
    let expected: BTreeSet<_> = [RuleId::MaxFanout, RuleId::MaxLoad].into();
    assert_eq!(fresh, expected, "fresh rules: {fresh:?}");

    // The finding names the overloaded net and the measured fanout.
    let report = analyze(&n, &lib, &LintPolicy::structural());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::MaxFanout)
        .expect("max-fanout diagnostic");
    assert!(diag.message.contains("64"), "{}", diag.message);
}

#[test]
fn report_and_digest_are_worker_count_invariant() {
    let lib = lib();
    let mut n = subject(&lib);
    // Analyze a *dirty* netlist — determinism must hold with findings
    // from several rules in flight across workers, not just on clean
    // designs.
    drop_a_driver(&mut n);

    let policy = LintPolicy::structural();
    let one = analyze_with_threads(&n, &lib, &policy, 1);
    for workers in [2, 4, 8] {
        let w = analyze_with_threads(&n, &lib, &policy, workers);
        assert_eq!(one.diagnostics, w.diagnostics, "workers={workers}");
        assert_eq!(one.digest(), w.digest(), "workers={workers}");
    }
    assert!(!one.diagnostics.is_empty());
}

/// A buggy transform: runs the real stage, then drops a loaded net's
/// driver.
struct DropsADriver(Box<dyn Stage>);

impl Stage for DropsADriver {
    fn id(&self) -> StageId {
        self.0.id()
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        self.0.run(state, ctx)?;
        drop_a_driver(&mut state.netlist);
        Ok(())
    }
}

/// Records every stage the engine starts.
struct Started(Rc<RefCell<Vec<StageId>>>);

impl Observer for Started {
    fn on_stage_start(&mut self, stage: StageId) {
        self.0.borrow_mut().push(stage);
    }
}

#[test]
fn lint_gate_stops_the_flow_at_the_stage_that_broke_the_netlist() {
    let lib = lib();
    let config = FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    };
    let stages: Vec<Box<dyn Stage>> = StageId::plan(config.technique)
        .iter()
        .map(|&id| match id {
            StageId::AssignDualVth => Box::new(DropsADriver(instantiate(id))),
            _ => instantiate(id),
        })
        .collect();
    let started = Rc::new(RefCell::new(Vec::new()));
    let err = FlowEngine::with_stages(&lib, config, stages)
        .observe(Started(Rc::clone(&started)))
        .run_netlist(subject(&lib))
        .expect_err("the lint gate must stop the flow");
    let FlowError::Lint { stage, errors } = err else {
        panic!("expected FlowError::Lint, got {err:?}");
    };
    assert_eq!(stage, StageId::AssignDualVth);
    assert!(
        errors.iter().any(|d| d.rule == RuleId::UndrivenNet),
        "{errors:?}"
    );
    assert_eq!(
        *started.borrow(),
        [StageId::PlaceAndClock, StageId::AssignDualVth],
        "no stage after the broken one may start"
    );
}
