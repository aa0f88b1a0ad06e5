//! The resident forward state: one netlist's gathered inputs and
//! forward timing, kept across same-pin cell swaps.
//!
//! A [`TimingState`] gathers once what both passes read — the live cell
//! of every level-order slot, the wire delay of every input pin and the
//! total load of every net — and shares that gather across its corner
//! libraries, each of which keeps one array of per-net arrival, min
//! arrival and slew. It is the way into STA for every loop that times
//! one netlist more than once; [`analyze`](crate::analysis::analyze),
//! the one-shot report, reads a fresh state for one library.
//!
//! A caller that times one netlist across same-pin swaps (the Dual-Vth
//! probes, ECO setup recovery) records each swap with
//! [`TimingState::mark_swap`] and calls [`TimingState::update`] before
//! it next reads timing. The update refreshes the [`SinkCache`] rows
//! the swaps marked, then re-gathers only those nets' loads and their
//! readers' wire delays, plus the swapped instances' cell ids. It
//! re-evaluates only the slots whose inputs changed, in level order,
//! through the `eval` the full propagation uses, and a net's change
//! reaches its readers only when its `(at, at_min, slew)` differs
//! bitwise from before. The state therefore stays equal to a fresh one
//! bit for bit.
//!
//! [`TimingState::wns`] answers a probe without the full required-time
//! pass. A flip-flop's setup slack reads only arrivals; an output port's
//! slack reads its net's required time, which only that net's fan-out
//! cone lowers. The state lists the cone's slots on its first probe, and
//! each probe seeds the endpoint requirements on the cone and runs the
//! backward pass over the cone slots alone. Every reader of a cone net
//! is a cone slot, so each port net's required time, and with it the
//! probe's WNS, equals the full report's bit for bit.

use crate::analysis::{Derating, HoldViolation, StaConfig, TimingReport};
use crate::graph::{Gathered, NetTiming, SinkCache, TimingGraph};
use smt_base::par::parallel_map;
use smt_base::units::Time;
use smt_cells::library::Library;
use smt_netlist::netlist::{InstId, NetDriver, NetId, Netlist, PinRef, PortDir};
use smt_route::Parasitics;

/// The forward timing of one netlist at one or more corner libraries,
/// over one shared gather; see the module docs.
///
/// The netlist, cache and derating passed to each call must be the ones
/// the state was built from, changed since only by same-pin cell swaps
/// recorded with [`TimingState::mark_swap`] (whose derating factors the
/// caller may also change). Corner libraries share cell ids, so every
/// library in `libs` times the same gather.
#[derive(Debug)]
pub struct TimingState<'a> {
    graph: &'a TimingGraph,
    libs: &'a [&'a Library],
    parasitics: &'a Parasitics,
    config: &'a StaConfig,
    /// The one gather every library reads.
    gathered: Gathered,
    /// Forward timing per net, one array per library in `libs` order.
    nets: Vec<Vec<NetTiming>>,
    /// Instances swapped since the last update.
    swapped: Vec<InstId>,
    /// Update scratch: the nets the last refresh re-derived.
    refreshed: Vec<NetId>,
    /// Update scratch: slots whose gathered inputs changed.
    dirty: Vec<u32>,
    /// Update scratch: flip-flops whose source timing must be re-seeded.
    dirty_ffs: Vec<InstId>,
    /// Update scratch: one bit per slot still to evaluate; all clear
    /// between updates.
    pending: Vec<u64>,
    /// The output ports' fan-out cone, built on the first probe.
    cone: Option<PortCone>,
    /// Probe scratch: a required time per net, `+inf` between probes.
    required: Vec<Time>,
}

/// The part of the required-time pass an output port's slack depends
/// on: the slots that read an output port's net or, transitively, a
/// cone slot's output net. Every reader of a cone net is a cone slot, so
/// the backward pass over the cone alone gives every cone net the
/// required time the full pass gives it.
#[derive(Debug)]
struct PortCone {
    /// The cone slots, ascending.
    slots: Vec<u32>,
    /// Flip-flops whose `D` pin sits on a cone net, in the graph's order.
    ffs: Vec<InstId>,
    /// Every net the cone's pass can write: the cone nets and the cone
    /// slots' input nets.
    written: Vec<usize>,
}

impl PortCone {
    fn build(graph: &TimingGraph, netlist: &Netlist) -> Self {
        let mut listed = vec![false; graph.num_nets()];
        let mut in_cone = vec![false; graph.num_slots()];
        let mut nets = Vec::new();
        for (_, port) in netlist.ports() {
            let n = port.net.index();
            if port.dir == PortDir::Output && !std::mem::replace(&mut listed[n], true) {
                nets.push(n);
            }
        }
        let mut next = 0;
        while next < nets.len() {
            for r in graph.readers(nets[next]) {
                let slot = r.slot as usize;
                if std::mem::replace(&mut in_cone[slot], true) {
                    continue;
                }
                if let Some(out) = graph.out_net(slot) {
                    if !std::mem::replace(&mut listed[out], true) {
                        nets.push(out);
                    }
                }
            }
            next += 1;
        }
        let ffs = graph
            .ffs()
            .iter()
            .copied()
            .filter(|&id| {
                let inst = netlist.inst(id);
                let d = graph.cells.d_pin(inst.cell).and_then(|p| inst.net_on(p));
                d.is_some_and(|d| listed[d.index()])
            })
            .collect();
        let slots: Vec<u32> = (0..graph.num_slots() as u32)
            .filter(|&s| in_cone[s as usize])
            .collect();
        let mut written = nets;
        for &slot in &slots {
            for n in graph.input_nets(slot as usize) {
                if !std::mem::replace(&mut listed[n], true) {
                    written.push(n);
                }
            }
        }
        PortCone {
            slots,
            ffs,
            written,
        }
    }
}

/// Marks a slot in a pending bitset.
#[inline]
fn mark(pending: &mut [u64], slot: u32) {
    pending[slot as usize / 64] |= 1 << (slot % 64);
}

impl<'a> TimingState<'a> {
    /// Gathers the netlist's inputs once and runs the forward
    /// propagation at every library in `libs`, one library per worker of
    /// the shared pool.
    ///
    /// # Panics
    ///
    /// Panics when the cache has marked nets that were not refreshed, or
    /// on a dangling [`PinRef`] (a stale cache).
    pub fn new(
        graph: &'a TimingGraph,
        cache: &SinkCache,
        netlist: &Netlist,
        libs: &'a [&'a Library],
        parasitics: &'a Parasitics,
        config: &'a StaConfig,
        derating: &Derating,
    ) -> Self {
        let gathered = graph.gather(netlist, parasitics, cache);
        // One library per worker: the forward passes share only the
        // gather. A single library runs inline.
        let nets = parallel_map(libs, 0, |lib| {
            graph.propagate(netlist, lib, config, derating, &gathered)
        });
        TimingState {
            graph,
            libs,
            parasitics,
            config,
            gathered,
            nets,
            swapped: Vec::new(),
            refreshed: Vec::new(),
            dirty: Vec::new(),
            dirty_ffs: Vec::new(),
            pending: Vec::new(),
            cone: None,
            required: Vec::new(),
        }
    }

    /// Records a same-pin swap of `inst`'s cell, made with
    /// [`Netlist::replace_cell`]: marks the nets on its input pins in
    /// the cache and remembers the instance for the next
    /// [`TimingState::update`].
    pub fn mark_swap(&mut self, cache: &mut SinkCache, netlist: &Netlist, inst: InstId) {
        cache.mark_inputs(netlist, inst);
        self.swapped.push(inst);
    }

    /// Brings the state up to date with the swaps recorded since the
    /// last update: refreshes the cache, re-gathers the rows the refresh
    /// re-derived and the swapped instances' cells, and re-evaluates,
    /// at every library, only the slots whose inputs changed.
    ///
    /// # Panics
    ///
    /// Panics on a dangling [`PinRef`] among the refreshed rows, like
    /// [`SinkCache::refresh`].
    pub fn update(&mut self, cache: &mut SinkCache, netlist: &Netlist, derating: &Derating) {
        let graph = self.graph;
        self.refreshed.clear();
        self.refreshed.extend_from_slice(cache.marked());
        cache.refresh(graph, netlist);
        if self.refreshed.is_empty() && self.swapped.is_empty() {
            return;
        }

        // Re-gather. A net whose load moved changes its driver's delay;
        // a reader whose ordinal moved reads another Elmore delay; a
        // swapped instance has a new cell and derating factor.
        self.dirty.clear();
        self.dirty_ffs.clear();
        let g = &mut self.gathered;
        for &net in &self.refreshed {
            let n = net.index();
            let load = graph.net_load(self.parasitics, cache, n);
            if load.ff().to_bits() != g.load[n].ff().to_bits() {
                g.load[n] = load;
                if let Some(NetDriver::Inst(pr)) = netlist.net(net).driver {
                    match graph.slot_of(pr.inst) {
                        Some(slot) => self.dirty.push(slot as u32),
                        None if graph.is_ff(pr.inst) => self.dirty_ffs.push(pr.inst),
                        None => {}
                    }
                }
            }
            for r in graph.readers(n) {
                let e = r.edge as usize;
                let wire = graph.edge_wire(self.parasitics, cache, r.slot as usize, e);
                if wire.ps().to_bits() != g.wire[e].ps().to_bits() {
                    g.wire[e] = wire;
                    self.dirty.push(r.slot);
                }
            }
        }
        for &id in &self.swapped {
            match graph.slot_of(id) {
                Some(slot) => {
                    g.cell[slot] = netlist.inst(id).cell;
                    self.dirty.push(slot as u32);
                }
                None if graph.is_ff(id) => self.dirty_ffs.push(id),
                None => {}
            }
        }
        self.swapped.clear();

        // Re-evaluate per library: re-seed the flip-flops, then walk the
        // pending slots in ascending (level-major) order. A slot's
        // readers sit at strictly higher levels, so every slot is
        // evaluated once, after all of its inputs are final.
        let source_slew = self.config.source_slew;
        self.pending.resize(graph.num_slots().div_ceil(64), 0);
        for k in 0..self.libs.len() {
            let (lib, nets) = (self.libs[k], &mut self.nets[k]);
            let (g, pending) = (&self.gathered, &mut self.pending);
            for &id in &self.dirty_ffs {
                if let Some((q, t)) = graph.seed_ff(netlist, lib, self.config, derating, g, id) {
                    if !t.same_bits(&nets[q]) {
                        nets[q] = t;
                        for r in graph.readers(q) {
                            mark(pending, r.slot);
                        }
                    }
                }
            }
            for &slot in &self.dirty {
                mark(pending, slot);
            }
            let mut w = 0;
            while w < pending.len() {
                let word = pending[w];
                if word == 0 {
                    w += 1;
                    continue;
                }
                pending[w] = word & (word - 1);
                let slot = w * 64 + word.trailing_zeros() as usize;
                let Some(out) = graph.out_net(slot) else {
                    continue;
                };
                let t = graph
                    .eval(lib, derating, source_slew, g, nets, slot)
                    .map_or(NetTiming::unreached(source_slew), |(_, t)| t);
                if !t.same_bits(&nets[out]) {
                    nets[out] = t;
                    for r in graph.readers(out) {
                        debug_assert!(r.slot as usize > slot, "readers sit at higher levels");
                        mark(pending, r.slot);
                    }
                }
            }
        }
    }

    /// The setup WNS at library `corner` (an index into `libs`), equal
    /// bit for bit to the `wns` of [`TimingState::report`], computed
    /// with the required-time pass over the output ports' fan-out cone
    /// only.
    ///
    /// # Panics
    ///
    /// Panics when swaps are recorded or cache rows marked but the state
    /// was not updated.
    pub fn wns(
        &mut self,
        corner: usize,
        cache: &SinkCache,
        netlist: &Netlist,
        derating: &Derating,
    ) -> Time {
        self.assert_updated(cache);
        let graph = self.graph;
        let cone = self
            .cone
            .take()
            .unwrap_or_else(|| PortCone::build(graph, netlist));
        let mut required = std::mem::take(&mut self.required);
        let inf = Time::new(f64::INFINITY);
        required.resize(graph.num_nets(), inf);
        self.seed_required(corner, cache, netlist, &cone.ffs, &mut required);
        let (lib, nets) = (self.libs[corner], &self.nets[corner]);
        let slots = cone.slots.iter().rev().map(|&s| s as usize);
        graph.propagate_required(lib, derating, &self.gathered, nets, slots, &mut required);
        let (wns, _) = self.endpoint_slack(corner, cache, netlist, &required);
        for &n in &cone.written {
            required[n] = inf;
        }
        self.required = required;
        self.cone = Some(cone);
        wns
    }

    /// The full setup and hold report at library `corner` (an index into
    /// `libs`): the required-time pass over the whole graph, then WNS,
    /// TNS and hold violations.
    ///
    /// # Panics
    ///
    /// Panics when swaps are recorded or cache rows marked but the state
    /// was not updated, or on a dangling [`PinRef`] at a flip-flop's `D`
    /// pin.
    pub fn report(
        &self,
        corner: usize,
        cache: &SinkCache,
        netlist: &Netlist,
        derating: &Derating,
    ) -> TimingReport {
        self.assert_updated(cache);
        let (graph, config) = (self.graph, self.config);
        let (lib, nets) = (self.libs[corner], &self.nets[corner]);

        // Required times: endpoints, then the kernel's backward pass.
        let endpoint_req = config.clock_period - config.clock_skew;
        let mut required = vec![Time::new(f64::INFINITY); netlist.num_nets()];
        self.seed_required(corner, cache, netlist, graph.ffs(), &mut required);
        let slots = (0..graph.num_slots()).rev();
        graph.propagate_required(lib, derating, &self.gathered, nets, slots, &mut required);
        // Unconstrained nets: give them the endpoint requirement so slack is
        // defined (large positive).
        for r in required.iter_mut() {
            if !r.is_finite() {
                *r = endpoint_req;
            }
        }
        let (wns, tns) = self.endpoint_slack(corner, cache, netlist, &required);

        // Hold: min arrival at FF D must exceed hold + skew.
        let mut hold_violations = Vec::new();
        for &id in graph.ffs() {
            let inst = netlist.inst(id);
            let cell = lib.cell(inst.cell);
            let Some(dp) = graph.cells.d_pin(inst.cell) else {
                continue;
            };
            let Some(dnet) = inst.net_on(dp) else {
                continue;
            };
            let wire = self.d_wire(cache, dnet, PinRef { inst: id, pin: dp });
            let mut at_min = nets[dnet.index()].at_min;
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

        TimingReport {
            arrival: nets.iter().map(|t| t.at).collect(),
            arrival_min: nets.iter().map(|t| t.at_min).collect(),
            slew: nets.iter().map(|t| t.slew).collect(),
            required,
            wns,
            tns,
            hold_violations,
            clock_period: config.clock_period,
        }
    }

    /// Wire delay to a flip-flop's `D` pin.
    fn d_wire(&self, cache: &SinkCache, dnet: NetId, pr: PinRef) -> Time {
        self.parasitics
            .net(dnet)
            .elmore(self.graph.ordinal(cache, pr))
    }

    /// Panics unless every swap recorded and cache row marked since the
    /// last update has been brought in.
    fn assert_updated(&self, cache: &SinkCache) {
        assert!(
            self.swapped.is_empty() && cache.marked().is_empty(),
            "TimingState has swaps pending: update it before reading timing"
        );
    }

    /// Seeds the endpoint requirements: every output port, then the `D`
    /// net of each flip-flop in `ffs`.
    fn seed_required(
        &self,
        corner: usize,
        cache: &SinkCache,
        netlist: &Netlist,
        ffs: &[InstId],
        required: &mut [Time],
    ) {
        let config = self.config;
        let endpoint_req = config.clock_period - config.clock_skew;
        for (_, port) in netlist.ports() {
            if port.dir == PortDir::Output {
                let r = endpoint_req - config.output_margin;
                let i = port.net.index();
                required[i] = required[i].min(r);
            }
        }
        for &id in ffs {
            if let Some((i, r)) = self.d_required(corner, cache, netlist, id) {
                required[i] = required[i].min(r);
            }
        }
    }

    /// A flip-flop's setup requirement at library `corner`: its `D` net
    /// and the required time there, or `None` when `D` is unconnected.
    fn d_required(
        &self,
        corner: usize,
        cache: &SinkCache,
        netlist: &Netlist,
        id: InstId,
    ) -> Option<(usize, Time)> {
        let config = self.config;
        let inst = netlist.inst(id);
        let dp = self.graph.cells.d_pin(inst.cell)?;
        let dnet = inst.net_on(dp)?;
        let wire = self.d_wire(cache, dnet, PinRef { inst: id, pin: dp });
        let setup = self.libs[corner].cell(inst.cell).setup;
        Some((
            dnet.index(),
            config.clock_period - config.clock_skew - setup - wire,
        ))
    }

    /// WNS and TNS over the endpoints: the output ports (which read
    /// `required` at their nets, an unconstrained one taking the endpoint
    /// requirement), then every flip-flop's `D` pin.
    fn endpoint_slack(
        &self,
        corner: usize,
        cache: &SinkCache,
        netlist: &Netlist,
        required: &[Time],
    ) -> (Time, Time) {
        let (config, lib, nets) = (self.config, self.libs[corner], &self.nets[corner]);
        let endpoint_req = config.clock_period - config.clock_skew;
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
                // The full report has already given unconstrained nets
                // the endpoint requirement; a probe's cone has not.
                let req = if required[i].is_finite() {
                    required[i]
                } else {
                    endpoint_req
                };
                consider(req - nets[i].at);
            }
        }
        for &id in self.graph.ffs() {
            let inst = netlist.inst(id);
            let cell = lib.cell(inst.cell);
            if let Some(dp) = self.graph.cells.d_pin(inst.cell) {
                if let Some(dnet) = inst.net_on(dp) {
                    let wire = self.d_wire(cache, dnet, PinRef { inst: id, pin: dp });
                    let at = nets[dnet.index()].at + wire;
                    let req = endpoint_req - cell.setup;
                    consider(req - at);
                }
            }
        }
        if !wns.is_finite() {
            wns = config.clock_period;
        }
        (wns, tns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "update it before reading timing")]
    fn reporting_with_swaps_pending_panics() {
        let lib = Library::industrial_130nm();
        let mut n = Netlist::new("pending");
        let a = n.add_input("a");
        let z = n.add_output("z");
        let u = n.add_instance("u", lib.find_id("INV_X1_L").unwrap(), &lib);
        n.connect_by_name(u, "A", a, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        let graph = TimingGraph::build(&n, &lib).unwrap();
        let mut cache = graph.build_cache(&n);
        let (libs, par, cfg, der) = (
            [&lib],
            Parasitics::default(),
            StaConfig::default(),
            Derating::none(),
        );
        let mut state = TimingState::new(&graph, &cache, &n, &libs, &par, &cfg, &der);
        n.replace_cell(u, lib.find_id("INV_X1_H").unwrap(), &lib)
            .unwrap();
        state.mark_swap(&mut cache, &n, u);
        let _ = state.report(0, &cache, &n, &der);
    }
}
