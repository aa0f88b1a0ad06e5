//! Forward/backward timing propagation, slack, critical paths, and hold
//! analysis.
//!
//! Every analysis runs the one [`TimingGraph`] kernel, through one of
//! two ways in. [`analyze`] is the one-shot report: it builds the
//! levelized graph and sink cache for the current netlist, then reads
//! the report of a fresh one-library [`TimingState`]. A loop that times
//! one netlist repeatedly — under several corner libraries, or across
//! same-pin cell swaps — builds the graph, cache and state itself and
//! keeps them (see [`crate::state`]). Either way the kernel gathers the
//! live cell ids, wire delays and net loads once, runs its forward
//! propagation and its required-time pass over flat arrays, and the
//! state turns the results into WNS, TNS and hold violations. The
//! pre-kernel sequential implementation is kept verbatim as
//! [`analyze_baseline`] — the differential-testing reference the kernel
//! is proven bit-identical against, and the only other STA
//! implementation.

use crate::graph::{sink_ordinal, TimingGraph};
use crate::state::TimingState;
use smt_base::units::{Cap, Time};
use smt_cells::library::Library;
use smt_netlist::graph::{topo_order, CombinationalCycle};
use smt_netlist::netlist::{InstId, NetDriver, NetId, Netlist, PinRef, PortDir};
use smt_route::Parasitics;

/// Timing constraints and analysis options.
#[derive(Debug, Clone, PartialEq)]
pub struct StaConfig {
    /// Clock period (the single constraint of the benchmark designs).
    pub clock_period: Time,
    /// Arrival time at primary inputs relative to the clock edge.
    pub input_delay: Time,
    /// Required-time margin at primary outputs.
    pub output_margin: Time,
    /// Clock-skew allowance subtracted from setup slack and added to the
    /// hold requirement (set from the CTS report after routing).
    pub clock_skew: Time,
    /// Default slew assumed at timing sources.
    pub source_slew: Time,
}

impl Default for StaConfig {
    fn default() -> Self {
        StaConfig {
            clock_period: Time::from_ns(2.0),
            input_delay: Time::new(50.0),
            output_margin: Time::new(50.0),
            clock_skew: Time::ZERO,
            source_slew: Time::new(40.0),
        }
    }
}

/// Per-instance delay derating (multiplier ≥ 1.0). The MTCMOS clustering
/// uses this to inject the VGND-bounce delay penalty on MT-cells:
/// `d = d0 · (1 + k·ΔV/VDD)` from DESIGN.md §5.
#[derive(Debug, Clone, Default)]
pub struct Derating {
    factors: Vec<f64>,
}

impl Derating {
    /// No derating.
    pub fn none() -> Self {
        Derating::default()
    }

    /// Builds a derating table sized for the netlist, all 1.0.
    pub fn uniform(netlist: &Netlist) -> Self {
        Derating {
            factors: vec![1.0; netlist.inst_capacity()],
        }
    }

    /// Sets one instance's delay factor.
    pub fn set(&mut self, inst: InstId, factor: f64) {
        if inst.index() >= self.factors.len() {
            self.factors.resize(inst.index() + 1, 1.0);
        }
        self.factors[inst.index()] = factor;
    }

    /// Factor for an instance (1.0 when unset).
    pub fn factor(&self, inst: InstId) -> f64 {
        self.factors.get(inst.index()).copied().unwrap_or(1.0)
    }
}

/// One hold-check failure at a flip-flop.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldViolation {
    /// The capturing flip-flop.
    pub ff: InstId,
    /// Min-arrival at its D pin.
    pub arrival_min: Time,
    /// The hold requirement it missed (`hold + skew`).
    pub required: Time,
}

impl HoldViolation {
    /// Negative hold slack.
    pub fn slack(&self) -> Time {
        self.arrival_min - self.required
    }
}

/// Merges per-corner hold-violation lists into the union a multi-corner
/// ECO must fix: per flip-flop, the violation with the worst (most
/// negative) slack wins. Ordered by flip-flop id, matching the full
/// analysis.
pub fn merge_hold_violations<I>(groups: I) -> Vec<HoldViolation>
where
    I: IntoIterator<Item = Vec<HoldViolation>>,
{
    let mut worst: Vec<HoldViolation> = Vec::new();
    for group in groups {
        for v in group {
            match worst.iter_mut().find(|w| w.ff == v.ff) {
                Some(w) => {
                    if v.slack() < w.slack() {
                        *w = v;
                    }
                }
                None => worst.push(v),
            }
        }
    }
    worst.sort_by_key(|v| v.ff.index());
    worst
}

/// Complete timing report.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Max arrival per net (at the driver pin, wire delay excluded).
    pub arrival: Vec<Time>,
    /// Min arrival per net.
    pub arrival_min: Vec<Time>,
    /// Slew per net.
    pub slew: Vec<Time>,
    /// Required time per net (setup analysis).
    pub required: Vec<Time>,
    /// Worst negative slack over all endpoints (positive = timing met).
    pub wns: Time,
    /// Total negative slack.
    pub tns: Time,
    /// Hold violations at flip-flops.
    pub hold_violations: Vec<HoldViolation>,
    pub(crate) clock_period: Time,
}

impl TimingReport {
    /// Setup slack of a net.
    pub fn slack(&self, net: NetId) -> Time {
        self.required[net.index()] - self.arrival[net.index()]
    }

    /// Slack of an instance = slack of its output net (or `+period` for
    /// cells without a timed output, e.g. holders/switches).
    pub fn inst_slack(&self, netlist: &Netlist, lib: &Library, inst: InstId) -> Time {
        let i = netlist.inst(inst);
        let cell = lib.cell(i.cell);
        cell.output_pin()
            .and_then(|p| i.net_on(p))
            .map(|n| self.slack(n))
            .unwrap_or(self.clock_period)
    }

    /// True when setup timing is met everywhere.
    pub fn setup_met(&self) -> bool {
        self.wns.ps() >= 0.0
    }

    /// True when no hold violations exist.
    pub fn hold_met(&self) -> bool {
        self.hold_violations.is_empty()
    }
}

fn net_load(netlist: &Netlist, lib: &Library, parasitics: &Parasitics, net: NetId) -> Cap {
    let n = netlist.net(net);
    let pins: Cap = n
        .loads
        .iter()
        .map(|pr| lib.cell(netlist.inst(pr.inst).cell).pins[pr.pin].cap)
        .sum();
    let ports = Cap::new(2.0 * n.port_loads.len() as f64);
    pins + ports + parasitics.net(net).wire_cap
}

/// Runs setup and hold analysis: the one-shot report.
///
/// Builds a fresh [`TimingGraph`] and [`SinkCache`](crate::SinkCache)
/// for the current topology and reads the report of a one-library
/// [`TimingState`] over them. A caller that re-times one topology many
/// times (corner loops, Vth-assignment probes, ECO rounds) keeps the
/// graph, cache and state instead.
///
/// # Errors
///
/// Propagates [`CombinationalCycle`] from levelisation.
///
/// # Panics
///
/// Panics on a dangling [`PinRef`] (an instance pin missing from its
/// net's load list) — a broken netlist-edit invariant that would
/// otherwise be priced as a silently wrong wire delay.
pub fn analyze(
    netlist: &Netlist,
    lib: &Library,
    parasitics: &Parasitics,
    config: &StaConfig,
    derating: &Derating,
) -> Result<TimingReport, CombinationalCycle> {
    let graph = TimingGraph::build(netlist, lib)?;
    let cache = graph.build_cache(netlist);
    let libs = [lib];
    let state = TimingState::new(&graph, &cache, netlist, &libs, parasitics, config, derating);
    Ok(state.report(0, &cache, netlist, derating))
}

/// The pre-kernel sequential analysis, kept verbatim as the reference
/// implementation: `tests/properties.rs` asserts the
/// [`TimingGraph`]-based [`analyze`] is bit-identical to it on
/// randomized netlists, and the `timing_kernel` bench measures the
/// kernel's speedup against it. Not for production use.
///
/// # Errors
///
/// Propagates [`CombinationalCycle`] from levelisation.
///
/// # Panics
///
/// Panics on a dangling [`PinRef`], like [`analyze`].
pub fn analyze_baseline(
    netlist: &Netlist,
    lib: &Library,
    parasitics: &Parasitics,
    config: &StaConfig,
    derating: &Derating,
) -> Result<TimingReport, CombinationalCycle> {
    let topo = topo_order(netlist, lib)?;
    let nn = netlist.num_nets();
    let mut arrival = vec![Time::ZERO; nn];
    let mut arrival_min = vec![Time::new(f64::INFINITY); nn];
    let mut slew = vec![config.source_slew; nn];
    let wire_of = |net: NetId, pr: PinRef| {
        let ord = sink_ordinal(netlist.net(net), pr);
        parasitics.net(net).elmore(ord)
    };

    // Sources: primary inputs and FF Q pins.
    for (_, port) in netlist.ports() {
        if port.dir == PortDir::Input {
            arrival[port.net.index()] = config.input_delay;
            arrival_min[port.net.index()] = config.input_delay;
        }
    }
    for (id, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if !cell.is_sequential() {
            continue;
        }
        let Some(qp) = cell.output_pin() else {
            continue;
        };
        let Some(qnet) = inst.net_on(qp) else {
            continue;
        };
        let load = net_load(netlist, lib, parasitics, qnet);
        if let Some(arc) = cell.arcs.first() {
            let d = arc.delay(config.source_slew, load) * derating.factor(id);
            arrival[qnet.index()] = d;
            arrival_min[qnet.index()] = d;
            slew[qnet.index()] = arc.output_slew(load);
        }
    }

    // Forward propagation over the combinational core.
    for &id in &topo.order {
        let inst = netlist.inst(id);
        let cell = lib.cell(inst.cell);
        let Some(op) = cell.output_pin() else {
            continue;
        };
        let Some(onet) = inst.net_on(op) else {
            continue;
        };
        let load = net_load(netlist, lib, parasitics, onet);
        let mut best = Time::ZERO;
        let mut best_min = Time::new(f64::INFINITY);
        let mut best_slew = config.source_slew;
        let mut any_input = false;
        for &pin in &cell.logic_input_pins() {
            let Some(inet) = inst.net_on(pin) else {
                continue;
            };
            let Some(arc) = cell.arc_from(pin) else {
                continue;
            };
            any_input = true;
            let wire = wire_of(inet, PinRef { inst: id, pin });
            let at = arrival[inet.index()] + wire;
            let at_min = arrival_min[inet.index()] + wire;
            let d = arc.delay(slew[inet.index()], load) * derating.factor(id);
            if at + d > best {
                best = at + d;
                best_slew = arc.output_slew(load);
            }
            best_min = best_min.min(at_min + d);
        }
        if any_input {
            arrival[onet.index()] = best;
            arrival_min[onet.index()] = best_min;
            slew[onet.index()] = best_slew;
        }
    }

    // Required times: endpoints then backward propagation.
    let endpoint_req = config.clock_period - config.clock_skew;
    let mut required = vec![Time::new(f64::INFINITY); nn];
    for (_, port) in netlist.ports() {
        if port.dir == PortDir::Output {
            let r = endpoint_req - config.output_margin;
            let i = port.net.index();
            required[i] = required[i].min(r);
        }
    }
    for (id, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if !cell.is_sequential() {
            continue;
        }
        if let Some(dp) = cell.pin_index("D") {
            if let Some(dnet) = inst.net_on(dp) {
                let wire = wire_of(dnet, PinRef { inst: id, pin: dp });
                let r = endpoint_req - cell.setup - wire;
                let i = dnet.index();
                required[i] = required[i].min(r);
            }
        }
    }
    for &id in topo.order.iter().rev() {
        let inst = netlist.inst(id);
        let cell = lib.cell(inst.cell);
        let Some(op) = cell.output_pin() else {
            continue;
        };
        let Some(onet) = inst.net_on(op) else {
            continue;
        };
        let out_req = required[onet.index()];
        if !out_req.is_finite() {
            continue;
        }
        let load = net_load(netlist, lib, parasitics, onet);
        for &pin in &cell.logic_input_pins() {
            let Some(inet) = inst.net_on(pin) else {
                continue;
            };
            let Some(arc) = cell.arc_from(pin) else {
                continue;
            };
            let wire = wire_of(inet, PinRef { inst: id, pin });
            let d = arc.delay(slew[inet.index()], load) * derating.factor(id);
            let r = out_req - d - wire;
            let i = inet.index();
            required[i] = required[i].min(r);
        }
    }
    // Unconstrained nets: give them the endpoint requirement so slack is
    // defined (large positive).
    for r in required.iter_mut() {
        if !r.is_finite() {
            *r = endpoint_req;
        }
    }

    // WNS / TNS over endpoints.
    let mut wns = Time::new(f64::INFINITY);
    let mut tns = Time::ZERO;
    let mut consider = |slack: Time| {
        wns = wns.min(slack);
        if slack.ps() < 0.0 {
            tns += slack;
        }
    };
    for (_, port) in netlist.ports() {
        if port.dir == PortDir::Output {
            let i = port.net.index();
            consider(required[i] - arrival[i]);
        }
    }
    for (id, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if !cell.is_sequential() {
            continue;
        }
        if let Some(dp) = cell.pin_index("D") {
            if let Some(dnet) = inst.net_on(dp) {
                let wire = wire_of(dnet, PinRef { inst: id, pin: dp });
                let at = arrival[dnet.index()] + wire;
                let req = endpoint_req - cell.setup;
                consider(req - at);
            }
        }
    }
    if !wns.is_finite() {
        wns = config.clock_period;
    }

    // Hold: min arrival at FF D must exceed hold + skew.
    let mut hold_violations = Vec::new();
    for (id, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if !cell.is_sequential() {
            continue;
        }
        let Some(dp) = cell.pin_index("D") else {
            continue;
        };
        let Some(dnet) = inst.net_on(dp) else {
            continue;
        };
        let wire = wire_of(dnet, PinRef { inst: id, pin: dp });
        let mut at_min = arrival_min[dnet.index()];
        if !at_min.is_finite() {
            at_min = Time::ZERO;
        }
        let at_min = at_min + wire;
        let need = cell.hold + config.clock_skew;
        if at_min < need {
            hold_violations.push(HoldViolation {
                ff: id,
                arrival_min: at_min,
                required: need,
            });
        }
    }

    Ok(TimingReport {
        arrival,
        arrival_min,
        slew,
        required,
        wns,
        tns,
        hold_violations,
        clock_period: config.clock_period,
    })
}

/// Walks the worst path backwards from the worst endpoint; returns the
/// instances on it, endpoint first.
pub fn worst_path(netlist: &Netlist, lib: &Library, report: &TimingReport) -> Vec<InstId> {
    // Worst endpoint: minimal slack over FF D nets and output-port nets.
    let mut worst: Option<(Time, NetId)> = None;
    let mut consider = |net: NetId| {
        let s = report.slack(net);
        if worst.map(|(ws, _)| s < ws).unwrap_or(true) {
            worst = Some((s, net));
        }
    };
    for (_, port) in netlist.ports() {
        if port.dir == smt_netlist::netlist::PortDir::Output {
            consider(port.net);
        }
    }
    for (_, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if cell.is_sequential() {
            if let Some(dp) = cell.pin_index("D") {
                if let Some(dnet) = inst.net_on(dp) {
                    consider(dnet);
                }
            }
        }
    }
    let Some((_, net)) = worst else {
        return Vec::new();
    };
    trace_back(netlist, lib, report, net)
        .into_iter()
        .map_while(|net| match netlist.net(net).driver {
            Some(NetDriver::Inst(pr)) => Some(pr.inst),
            _ => None,
        })
        .collect()
}

/// Walks a path backwards from `endpoint` through the latest-arriving
/// logic input of each gate; returns its nets, endpoint first. Every
/// net but the last is driven by an instance; the walk stops after a
/// flip-flop's `Q` net, or at a net driven by an input port or by
/// nothing.
pub(crate) fn trace_back(
    netlist: &Netlist,
    lib: &Library,
    report: &TimingReport,
    endpoint: NetId,
) -> Vec<NetId> {
    let mut path = vec![endpoint];
    let mut net = endpoint;
    while let Some(NetDriver::Inst(pr)) = netlist.net(net).driver {
        let inst = netlist.inst(pr.inst);
        let cell = lib.cell(inst.cell);
        if !cell.is_logic() {
            break; // reached an FF
        }
        // Pick the input with the latest arrival.
        let mut best: Option<(Time, NetId)> = None;
        for &pin in &cell.logic_input_pins() {
            if let Some(inet) = inst.net_on(pin) {
                let at = report.arrival[inet.index()];
                if best.map(|(b, _)| at > b).unwrap_or(true) {
                    best = Some((at, inet));
                }
            }
        }
        match best {
            Some((_, inet)) => net = inet,
            None => break,
        }
        path.push(net);
        if path.len() > netlist.num_instances() {
            break; // defensive
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_cells::cell::VthClass;
    use smt_place::{place, PlacerConfig};

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    /// a -> inv chain -> ff.D ; ff.Q -> out
    fn chain(lib: &Library, len: usize, vth: VthClass) -> Netlist {
        let mut n = Netlist::new("chain");
        let clk = n.add_clock("clk");
        let mut prev = n.add_input("a");
        let inv = lib.find_id(&format!("INV_X1_{}", vth.suffix())).unwrap();
        for i in 0..len {
            let w = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv, lib);
            n.connect_by_name(u, "A", prev, lib).unwrap();
            n.connect_by_name(u, "Z", w, lib).unwrap();
            prev = w;
        }
        let q = n.add_output("q");
        let ff = n.add_instance("ff", lib.find_id("DFF_X1_L").unwrap(), lib);
        n.connect_by_name(ff, "D", prev, lib).unwrap();
        n.connect_by_name(ff, "CK", clk, lib).unwrap();
        n.connect_by_name(ff, "Q", q, lib).unwrap();
        n
    }

    fn run(n: &Netlist, lib: &Library, period_ns: f64) -> TimingReport {
        let p = place(n, lib, &PlacerConfig::default());
        let par = Parasitics::estimate(n, lib, &p);
        analyze(
            n,
            lib,
            &par,
            &StaConfig {
                clock_period: Time::from_ns(period_ns),
                ..StaConfig::default()
            },
            &Derating::none(),
        )
        .unwrap()
    }

    #[test]
    fn arrival_grows_along_chain() {
        let lib = lib();
        let n = chain(&lib, 10, VthClass::Low);
        let r = run(&n, &lib, 4.0);
        let a0 = r.arrival[n.find_net("w0").unwrap().index()];
        let a9 = r.arrival[n.find_net("w9").unwrap().index()];
        // Nine more inverter stages: at least ~10 ps each.
        assert!(a9 > a0 + Time::new(90.0), "a0={a0}, a9={a9}");
        assert!(r.setup_met());
    }

    #[test]
    fn high_vth_chain_is_slower_and_can_fail_timing() {
        let lib = lib();
        let low = chain(&lib, 40, VthClass::Low);
        let high = chain(&lib, 40, VthClass::High);
        let rl = run(&low, &lib, 3.0);
        let rh = run(&high, &lib, 3.0);
        let end = |n: &Netlist, r: &TimingReport| {
            let d = n.find_net("w39").unwrap();
            r.arrival[d.index()]
        };
        let dl = end(&low, &rl);
        let dh = end(&high, &rh);
        assert!(dh.ps() > dl.ps() * 1.2, "low {dl}, high {dh}");
        // Slacks reflect the same ordering.
        assert!(rh.wns < rl.wns);
    }

    #[test]
    fn tight_clock_fails_setup() {
        let lib = lib();
        let n = chain(&lib, 40, VthClass::Low);
        let fast = run(&n, &lib, 10.0);
        assert!(fast.setup_met());
        let slow = run(&n, &lib, 0.3);
        assert!(!slow.setup_met());
        assert!(slow.tns.ps() < 0.0);
    }

    #[test]
    fn derating_slows_specific_cells() {
        let lib = lib();
        let n = chain(&lib, 20, VthClass::Low);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let cfg = StaConfig::default();
        let base = analyze(&n, &lib, &par, &cfg, &Derating::none()).unwrap();
        let mut der = Derating::uniform(&n);
        for (id, inst) in n.instances() {
            if inst.name.starts_with("u") {
                der.set(id, 1.5);
            }
        }
        let slowed = analyze(&n, &lib, &par, &cfg, &der).unwrap();
        let end = n.find_net("w19").unwrap();
        assert!(slowed.arrival[end.index()].ps() > base.arrival[end.index()].ps() * 1.3);
    }

    #[test]
    fn worst_path_tracks_the_chain() {
        let lib = lib();
        let n = chain(&lib, 10, VthClass::Low);
        let r = run(&n, &lib, 0.5); // fails -> worst path well-defined
        let path = worst_path(&n, &lib, &r);
        // The path runs through the FF D cone: most of the inverters.
        assert!(path.len() >= 9, "path len {}", path.len());
    }

    #[test]
    fn short_path_hold_violation_detected() {
        // FF.Q -> inv -> FF.D with zero input delay is a classic hold risk
        // when skew allowance is added.
        let lib = lib();
        let mut n = Netlist::new("hold");
        let clk = n.add_clock("clk");
        let q = n.add_net("q");
        let d = n.add_net("d");
        let ff1 = n.add_instance("ff1", lib.find_id("DFF_X1_L").unwrap(), &lib);
        let ff2 = n.add_instance("ff2", lib.find_id("DFF_X1_L").unwrap(), &lib);
        let inv = n.add_instance("inv", lib.find_id("INV_X1_L").unwrap(), &lib);
        n.connect_by_name(ff1, "CK", clk, &lib).unwrap();
        n.connect_by_name(ff1, "Q", q, &lib).unwrap();
        n.connect_by_name(inv, "A", q, &lib).unwrap();
        n.connect_by_name(inv, "Z", d, &lib).unwrap();
        n.connect_by_name(ff2, "D", d, &lib).unwrap();
        n.connect_by_name(ff2, "CK", clk, &lib).unwrap();
        let qq = n.add_output("qq");
        let ff1q2 = n.add_net("unused_q2");
        let _ = ff1q2;
        n.connect_by_name(ff2, "Q", qq, &lib).unwrap();
        n.connect_by_name(ff1, "D", qq, &lib).unwrap();

        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        // Huge skew allowance forces a hold violation through one inverter.
        let r = analyze(
            &n,
            &lib,
            &par,
            &StaConfig {
                clock_skew: Time::new(200.0),
                ..StaConfig::default()
            },
            &Derating::none(),
        )
        .unwrap();
        assert!(!r.hold_met());
        assert!(r.hold_violations[0].slack().ps() < 0.0);
        // Without the skew it passes.
        let r2 = analyze(&n, &lib, &par, &StaConfig::default(), &Derating::none()).unwrap();
        assert!(r2.hold_met(), "{:?}", r2.hold_violations);
    }

    #[test]
    fn graph_analysis_is_bit_identical_to_baseline() {
        let lib = lib();
        for (len, period) in [(10usize, 4.0f64), (40, 0.3), (25, 2.0)] {
            let n = chain(&lib, len, VthClass::Low);
            let p = place(&n, &lib, &PlacerConfig::default());
            let par = Parasitics::estimate(&n, &lib, &p);
            let cfg = StaConfig {
                clock_period: Time::from_ns(period),
                ..StaConfig::default()
            };
            let der = Derating::none();
            let new = analyze(&n, &lib, &par, &cfg, &der).unwrap();
            let old = analyze_baseline(&n, &lib, &par, &cfg, &der).unwrap();
            assert_eq!(new.arrival, old.arrival);
            assert_eq!(new.arrival_min, old.arrival_min);
            assert_eq!(new.slew, old.slew);
            assert_eq!(new.required, old.required);
            assert_eq!(new.wns, old.wns);
            assert_eq!(new.tns, old.tns);
            assert_eq!(new.hold_violations, old.hold_violations);
        }
    }
}
