//! The shared levelized timing-graph kernel: the one STA engine behind
//! [`analyze`](crate::analysis::analyze),
//! [`analyze_with_graph`](crate::analysis::analyze_with_graph) and
//! [`analyze_cached`](crate::analysis::analyze_cached).
//!
//! The pre-kernel analysis rediscovered the same facts on every
//! propagation step: the sink ordinal of each input pin (a linear scan of
//! its net's load list) and the capacitive load of each net (a fresh sum
//! over its sinks). Both scans are `O(fanout)`, which makes arrival
//! propagation quadratic in fanout and dominates the Fig. 4 optimisation
//! loops that call timing thousands of times.
//!
//! A [`TimingGraph`] is built **once per netlist topology** and holds the
//! parts that are expensive to rediscover and invariant across corner
//! libraries (corner derates move timing numbers, never pin lists):
//!
//! * CSR-style levelized adjacency: the combinational core in
//!   level-major order, with per-level offsets, so propagation can walk
//!   level by level — and fan a wide level out on the shared
//!   [`parallel_map`] worker pool;
//! * a CSR pin → sink-ordinal layout whose values (the same net → sink
//!   rows [`Netlist::load_csr`] exports) live in the per-consumer
//!   cache, replacing every per-edge `position()` scan with one array
//!   read.
//!
//! The leaves that depend on the netlist's current state — per-net
//! static pin loads and the sink-ordinal table — live in a
//! [`SinkCache`]. Both are corner-invariant too, so a per-corner loop
//! over an unchanged netlist shares one graph and one cache, while a
//! caller that edits the netlist between analyses (the dual-Vth probes)
//! rebuilds only the cache.
//!
//! Propagation over the graph is **bit-identical** to the legacy
//! sequential propagation (see `tests/properties.rs`): instances within
//! one level never read each other's outputs, every instance's inputs
//! are finalized in strictly lower levels, and results are written back
//! in deterministic item order regardless of worker count.
//!
//! Dangling [`PinRef`]s — an instance pin that claims a net which does
//! not list it as a load — are a **hard error** at cache-build and
//! lookup time, never a silently wrong delay (the pre-kernel code
//! priced the *first* sink's Elmore delay instead, masking real slack
//! violations).

use crate::analysis::{Derating, StaConfig};
use smt_base::par::parallel_map;
use smt_base::units::{Cap, Time};
use smt_cells::library::Library;
use smt_netlist::check::RuleId;
use smt_netlist::graph::{topo_order, CombinationalCycle};
use smt_netlist::netlist::{InstId, Net, NetId, Netlist, PinRef, PortDir};
use smt_route::Parasitics;
use std::fmt;

/// Sentinel for "this pin is not a sink of any net".
const NO_ORD: u32 = u32::MAX;

/// Structured form of the timing kernel's hard error: a connected input
/// pin missing from its net's load list. Carries the same
/// [`RuleId::DanglingPinRef`] identity the static analyzer reports, so
/// STA panics and lint diagnostics agree on vocabulary — a `smt-lint`
/// run on the same netlist surfaces this exact object under the
/// `dangling-pin-ref` rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DanglingPinRef {
    /// The offending pin.
    pub pin: PinRef,
    /// The net the instance claims, when known at the failure site.
    pub net: Option<String>,
}

impl DanglingPinRef {
    /// The lint rule this error corresponds to.
    pub fn rule(&self) -> RuleId {
        RuleId::DanglingPinRef
    }
}

impl fmt::Display for DanglingPinRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.net {
            Some(net) => write!(
                f,
                "dangling PinRef [{}]: {} pin {} claims net `{}` but is not in its load list",
                self.rule().key(),
                self.pin.inst,
                self.pin.pin,
                net
            ),
            None => write!(
                f,
                "dangling PinRef [{}]: {} pin {} is not a load of its net \
                 (stale cache or broken edit invariant)",
                self.rule().key(),
                self.pin.inst,
                self.pin.pin
            ),
        }
    }
}

impl std::error::Error for DanglingPinRef {}

/// Levels narrower than this are evaluated inline; wider levels are
/// chunked across the shared worker pool. Per-instance evaluation is a
/// few dozen float ops (~100 ns) and `parallel_map` spawns scoped OS
/// threads per call, so fan-out only amortizes on genuinely wide levels
/// (wide flat datapaths) where per-level work clearly dominates the
/// spawn cost; everything else takes the sequential fast path with zero
/// thread spawns.
const PARALLEL_LEVEL_WIDTH: usize = 4096;

/// Position of a pin in its net's load list (for per-sink Elmore
/// lookup). A dangling [`PinRef`] is a hard error: the instance-side
/// connection table and the net-side load list disagree, and any
/// ordinal we could return would price the wrong sink's wire delay.
pub(crate) fn sink_ordinal(net: &Net, pr: PinRef) -> usize {
    try_sink_ordinal(net, pr).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking form of the sink-ordinal lookup: the structured
/// [`DanglingPinRef`] error names the lint rule instead of aborting.
pub fn try_sink_ordinal(net: &Net, pr: PinRef) -> Result<usize, DanglingPinRef> {
    net.load_ordinal(pr).ok_or_else(|| DanglingPinRef {
        pin: pr,
        net: Some(net.name.clone()),
    })
}

/// Out-of-line panic for a `NO_ORD` sentinel reaching a lookup: either
/// the netlist's edit invariant broke after the cache was validated, or
/// a stale cache is being used past a topology change. In both cases
/// continuing would price some other sink's wire delay — the silent
/// slack-masking bug this kernel exists to make impossible. Checked in
/// release builds too; the predictable branch is free next to the
/// delay arithmetic.
#[cold]
#[inline(never)]
fn dangling_lookup(pr: PinRef) -> ! {
    panic!("{}", DanglingPinRef { pin: pr, net: None })
}

/// Forward-propagation state over all nets: max/min arrivals and slews,
/// indexed by `NetId::index()`.
#[derive(Debug, Clone)]
pub(crate) struct PropState {
    /// Max arrival per net (at the driver pin, wire delay excluded).
    pub arrival: Vec<Time>,
    /// Min arrival per net (`+inf` for nets no timed source reaches).
    pub arrival_min: Vec<Time>,
    /// Slew per net.
    pub slew: Vec<Time>,
}

/// The shared levelized timing kernel; see the module docs.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// Combinational instances in level-major order (level 0 first).
    order: Vec<InstId>,
    /// Per-level offsets into `order`; level `l` is
    /// `order[level_start[l]..level_start[l + 1]]`.
    level_start: Vec<u32>,
    /// CSR offsets of each instance slot's pin row in a [`SinkCache`]'s
    /// ordinal table (`pin_start.len() == inst_capacity + 1`).
    pin_start: Vec<u32>,
    /// Per-cell-type structure tables (see [`CellTables`]).
    pub(crate) cells: CellTables,
    /// Live sequential instances in id order — the sources (`Q` pins)
    /// and endpoints (`D` pins) every pass loops over, cached so a full
    /// analysis does not re-scan every instance slot four times.
    ffs: Vec<InstId>,
    /// Net count the graph was built against.
    num_nets: usize,
}

/// Flattened per-cell-*type* structure lookups, precomputed once at
/// graph build: logic-input pin lists, output pins, `D` pins, and the
/// arc index driven by each input pin. These replace a `Vec` allocation
/// (`Cell::logic_input_pins`) and two linear scans (`Cell::arc_from`,
/// `Cell::output_pin`) on *every* instance evaluation. They are
/// functions of cell structure only, so they are corner-invariant and
/// can never go stale under cell swaps — the instance → cell-id lookup
/// stays live in the netlist.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellTables {
    /// Output pin per cell (`u32::MAX` = none).
    out_pin: Vec<u32>,
    /// `D` pin per cell (`u32::MAX` = none).
    d_pin: Vec<u32>,
    /// CSR offsets into `in_pins`, per cell.
    in_start: Vec<u32>,
    /// Logic-input pin indices (clock/MTE/VGND excluded), in pin order —
    /// exactly `Cell::logic_input_pins`.
    in_pins: Vec<u32>,
    /// CSR offsets into `pin_arc`, per cell.
    pin_arc_start: Vec<u32>,
    /// Index of the arc driven from each pin (`u32::MAX` = none) —
    /// exactly `Cell::arc_from`.
    pin_arc: Vec<u32>,
    /// Input capacitance of every pin, flattened alongside `pin_arc` —
    /// one array read per sink in the static-load sums.
    pin_cap: Vec<Cap>,
}

impl CellTables {
    fn build(lib: &Library) -> Self {
        let mut t = CellTables {
            in_start: vec![0],
            pin_arc_start: vec![0],
            ..CellTables::default()
        };
        for cell in lib.cells() {
            t.out_pin
                .push(cell.output_pin().map_or(u32::MAX, |p| p as u32));
            t.d_pin
                .push(cell.pin_index("D").map_or(u32::MAX, |p| p as u32));
            for pin in cell.logic_input_pins() {
                t.in_pins.push(pin as u32);
            }
            t.in_start.push(t.in_pins.len() as u32);
            for (pin, spec) in cell.pins.iter().enumerate() {
                let idx = cell.arcs.iter().position(|a| a.from_pin == pin);
                t.pin_arc.push(idx.map_or(u32::MAX, |i| i as u32));
                t.pin_cap.push(spec.cap);
            }
            t.pin_arc_start.push(t.pin_arc.len() as u32);
        }
        t
    }

    #[inline]
    pub(crate) fn inputs(&self, cell: smt_cells::cell::CellId) -> &[u32] {
        &self.in_pins
            [self.in_start[cell.index()] as usize..self.in_start[cell.index() + 1] as usize]
    }

    #[inline]
    pub(crate) fn arc_idx(&self, cell: smt_cells::cell::CellId, pin: usize) -> Option<usize> {
        match self.pin_arc[self.pin_arc_start[cell.index()] as usize + pin] {
            u32::MAX => None,
            i => Some(i as usize),
        }
    }

    #[inline]
    pub(crate) fn out_pin(&self, cell: smt_cells::cell::CellId) -> Option<usize> {
        match self.out_pin[cell.index()] {
            u32::MAX => None,
            p => Some(p as usize),
        }
    }

    #[inline]
    pub(crate) fn d_pin(&self, cell: smt_cells::cell::CellId) -> Option<usize> {
        match self.d_pin[cell.index()] {
            u32::MAX => None,
            p => Some(p as usize),
        }
    }

    /// Input capacitance of one pin (same value as
    /// `lib.cell(cell).pins[pin].cap`).
    #[inline]
    fn pin_cap(&self, cell: smt_cells::cell::CellId, pin: usize) -> Cap {
        self.pin_cap[self.pin_arc_start[cell.index()] as usize + pin]
    }
}

impl TimingGraph {
    /// Builds the kernel for the current netlist topology.
    ///
    /// `lib` supplies cell *structure* (roles, pin directions, output
    /// pins); any corner variant of the same library builds the same
    /// graph, so multi-corner callers build one and share it.
    ///
    /// # Errors
    ///
    /// Propagates [`CombinationalCycle`] from levelisation.
    pub fn build(netlist: &Netlist, lib: &Library) -> Result<Self, CombinationalCycle> {
        let topo = topo_order(netlist, lib)?;
        let cap = netlist.inst_capacity();

        // Bucket the topological order into level-major CSR form. The
        // instances of one level keep their relative topological order
        // (not that it matters: they are independent by construction).
        let max_level = topo.max_level() as usize;
        let n_levels = if topo.order.is_empty() {
            0
        } else {
            max_level + 1
        };
        let mut counts = vec![0u32; n_levels];
        for id in &topo.order {
            counts[topo.level[id.index()] as usize] += 1;
        }
        let mut level_start = Vec::with_capacity(n_levels + 1);
        level_start.push(0u32);
        for c in &counts {
            level_start.push(level_start.last().unwrap() + c);
        }
        let mut cursor: Vec<u32> = level_start[..n_levels].to_vec();
        let mut order = vec![InstId(0); topo.order.len()];
        for &id in &topo.order {
            let l = topo.level[id.index()] as usize;
            order[cursor[l] as usize] = id;
            cursor[l] += 1;
        }

        // CSR pin rows: one slot per (instance, pin), tombstones
        // included so `InstId` indexes directly. The *layout* lives here
        // (pin counts never change under topology-preserving edits); the
        // ordinal values themselves are a [`SinkCache`] concern, derived
        // from the current netlist so variant swaps that reorder load
        // lists cannot leave a fresh cache stale.
        let mut pin_start = Vec::with_capacity(cap + 1);
        pin_start.push(0u32);
        for i in 0..cap {
            let n_pins = netlist.inst(InstId(i as u32)).conns.len() as u32;
            pin_start.push(pin_start.last().unwrap() + n_pins);
        }

        let ffs = netlist
            .instances()
            .filter(|(_, inst)| lib.cell(inst.cell).is_sequential())
            .map(|(id, _)| id)
            .collect();

        Ok(TimingGraph {
            order,
            level_start,
            pin_start,
            cells: CellTables::build(lib),
            ffs,
            num_nets: netlist.num_nets(),
        })
    }

    /// Live sequential instances (in id order) at build time.
    pub(crate) fn ffs(&self) -> &[InstId] {
        &self.ffs
    }

    /// Number of levels in the combinational core.
    pub fn num_levels(&self) -> usize {
        self.level_start.len() - 1
    }

    /// Combinational instances of one level.
    pub fn level_insts(&self, level: usize) -> &[InstId] {
        &self.order[self.level_start[level] as usize..self.level_start[level + 1] as usize]
    }

    /// All combinational instances in level-major order (drivers before
    /// loads, like `TopoOrder::order`).
    pub fn order(&self) -> &[InstId] {
        &self.order
    }

    /// Builds the per-consumer cache: per-net static pin loads and the
    /// sink-ordinal table, derived from (and validated against) the
    /// *current* netlist. Pin caps come from the graph's cell tables —
    /// corner derates move timing numbers, never pin geometry, so one
    /// graph serves every corner's cache.
    ///
    /// # Panics
    ///
    /// Panics on a dangling [`PinRef`] — a connected input pin missing
    /// from its net's load list. This is a broken netlist-edit
    /// invariant; continuing would price some other sink's wire delay.
    pub fn build_cache(&self, netlist: &Netlist) -> SinkCache {
        self.try_build_cache(netlist)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking form of [`TimingGraph::build_cache`]: the
    /// structured [`DanglingPinRef`] error carries the offending pin and
    /// names the lint engine's `dangling-pin-ref` rule.
    pub fn try_build_cache(&self, netlist: &Netlist) -> Result<SinkCache, DanglingPinRef> {
        let mut cache = SinkCache {
            ord: vec![NO_ORD; *self.pin_start.last().unwrap() as usize],
            load: Vec::with_capacity(self.num_nets),
        };
        // One fused zero-copy pass over every net's load row (the same
        // rows `Netlist::load_csr` exports, which the structural lint
        // cross-validates): sink ordinals and the static load sum,
        // accumulated in load-list order so the float sum matches a
        // direct recomputation bit-for-bit.
        for (_, net) in netlist.nets() {
            let mut pins = Cap::ZERO;
            for (ord, pr) in net.loads.iter().enumerate() {
                cache.ord[self.pin_start[pr.inst.index()] as usize + pr.pin] = ord as u32;
                pins += self.cells.pin_cap(netlist.inst(pr.inst).cell, pr.pin);
            }
            cache
                .load
                .push(pins + Cap::new(2.0 * net.port_loads.len() as f64));
        }
        // Validate every pin whose ordinal timing will query — logic
        // inputs and FF `D` pins: each must be a load of the net it
        // claims, at the ordinal the cache holds.
        let check = |pin: usize, id: InstId, inst: &smt_netlist::netlist::Instance| {
            let Some(net) = inst.net_on(pin) else {
                return Ok(());
            };
            let pr = PinRef { inst: id, pin };
            let ord = cache.ord[self.pin_start[id.index()] as usize + pin];
            if ord == NO_ORD || netlist.net(net).loads.get(ord as usize) != Some(&pr) {
                return Err(DanglingPinRef {
                    pin: pr,
                    net: Some(netlist.net(net).name.clone()),
                });
            }
            Ok(())
        };
        for (id, inst) in netlist.instances() {
            for &pin in self.cells.inputs(inst.cell) {
                check(pin as usize, id, inst)?;
            }
            if let Some(dp) = self.cells.d_pin(inst.cell) {
                check(dp, id, inst)?;
            }
        }
        Ok(cache)
    }

    /// Sink ordinal of an input pin from the per-consumer cache.
    ///
    /// # Panics
    ///
    /// Panics (in release builds too) when the pin is not a load of any
    /// net — see [`TimingGraph::build_cache`].
    #[inline]
    pub(crate) fn ordinal(&self, cache: &SinkCache, pr: PinRef) -> usize {
        let ord = cache.ord[self.pin_start[pr.inst.index()] as usize + pr.pin];
        if ord == NO_ORD {
            dangling_lookup(pr);
        }
        ord as usize
    }

    /// Evaluates one instance's output arrival/slew from the given
    /// propagation state — the one delay formula every consumer shares.
    /// Returns `(net, arrival, arrival_min, slew)`, or `None` for cells
    /// without a timed output.
    #[allow(clippy::too_many_arguments)]
    fn eval_inst(
        &self,
        netlist: &Netlist,
        lib: &Library,
        parasitics: &Parasitics,
        derating: &Derating,
        source_slew: Time,
        cache: &SinkCache,
        state: &PropState,
        id: InstId,
    ) -> Option<(NetId, Time, Time, Time)> {
        let inst = netlist.inst(id);
        let cell = lib.cell(inst.cell);
        let onet = inst.net_on(self.cells.out_pin(inst.cell)?)?;
        let load = cache.load[onet.index()] + parasitics.net(onet).wire_cap;
        let mut best = Time::ZERO;
        let mut best_min = Time::new(f64::INFINITY);
        let mut best_slew = source_slew;
        let mut any_input = false;
        let pin_row = self.pin_start[id.index()] as usize;
        for &pin in self.cells.inputs(inst.cell) {
            let pin = pin as usize;
            let Some(inet) = inst.net_on(pin) else {
                continue;
            };
            let Some(arc_idx) = self.cells.arc_idx(inst.cell, pin) else {
                continue;
            };
            let arc = &cell.arcs[arc_idx];
            any_input = true;
            let ord = cache.ord[pin_row + pin];
            if ord == NO_ORD {
                dangling_lookup(PinRef { inst: id, pin });
            }
            let ord = ord as usize;
            let wire = parasitics.net(inet).elmore(ord);
            let at = state.arrival[inet.index()] + wire;
            let at_min = state.arrival_min[inet.index()] + wire;
            let d = arc.delay(state.slew[inet.index()], load) * derating.factor(id);
            if at + d > best {
                best = at + d;
                best_slew = arc.output_slew(load);
            }
            best_min = best_min.min(at_min + d);
        }
        any_input.then_some((onet, best, best_min, best_slew))
    }

    /// Seeds timing sources — primary inputs and flip-flop `Q` pins —
    /// into a fresh propagation state.
    #[allow(clippy::too_many_arguments)]
    fn seed_sources(
        &self,
        netlist: &Netlist,
        lib: &Library,
        parasitics: &Parasitics,
        config: &StaConfig,
        derating: &Derating,
        cache: &SinkCache,
        state: &mut PropState,
    ) {
        for (_, port) in netlist.ports() {
            if port.dir == PortDir::Input {
                state.arrival[port.net.index()] = config.input_delay;
                state.arrival_min[port.net.index()] = config.input_delay;
                state.slew[port.net.index()] = config.source_slew;
            }
        }
        for &id in &self.ffs {
            let inst = netlist.inst(id);
            let cell = lib.cell(inst.cell);
            let Some(qp) = self.cells.out_pin(inst.cell) else {
                continue;
            };
            let Some(qnet) = inst.net_on(qp) else {
                continue;
            };
            let load = cache.load[qnet.index()] + parasitics.net(qnet).wire_cap;
            if let Some(arc) = cell.arcs.first() {
                let d = arc.delay(config.source_slew, load) * derating.factor(id);
                state.arrival[qnet.index()] = d;
                state.arrival_min[qnet.index()] = d;
                state.slew[qnet.index()] = arc.output_slew(load);
            }
        }
    }

    /// Runs the level-parallel forward propagation: sources are seeded,
    /// then each level is evaluated in order — inline when narrow, fanned
    /// out over the shared [`parallel_map`] worker pool when at least
    /// `PARALLEL_LEVEL_WIDTH` (4096) instances wide.
    ///
    /// Instances within a level are independent (each reads nets
    /// finalized in strictly lower levels and writes its own output
    /// net), and results are written back in item order, so the state
    /// this produces is bit-identical for any worker count — and to the
    /// legacy sequential propagation.
    pub(crate) fn propagate(
        &self,
        netlist: &Netlist,
        lib: &Library,
        parasitics: &Parasitics,
        config: &StaConfig,
        derating: &Derating,
        cache: &SinkCache,
    ) -> PropState {
        let mut state = PropState {
            arrival: vec![Time::ZERO; self.num_nets],
            arrival_min: vec![Time::new(f64::INFINITY); self.num_nets],
            slew: vec![config.source_slew; self.num_nets],
        };
        self.seed_sources(
            netlist, lib, parasitics, config, derating, cache, &mut state,
        );
        for level in 0..self.num_levels() {
            let insts = self.level_insts(level);
            if insts.len() >= PARALLEL_LEVEL_WIDTH {
                let results = parallel_map(insts, 0, |&id| {
                    self.eval_inst(
                        netlist,
                        lib,
                        parasitics,
                        derating,
                        config.source_slew,
                        cache,
                        &state,
                        id,
                    )
                });
                for (net, at, at_min, sl) in results.into_iter().flatten() {
                    state.arrival[net.index()] = at;
                    state.arrival_min[net.index()] = at_min;
                    state.slew[net.index()] = sl;
                }
            } else {
                for &id in insts {
                    if let Some((net, at, at_min, sl)) = self.eval_inst(
                        netlist,
                        lib,
                        parasitics,
                        derating,
                        config.source_slew,
                        cache,
                        &state,
                        id,
                    ) {
                        state.arrival[net.index()] = at;
                        state.arrival_min[net.index()] = at_min;
                        state.slew[net.index()] = sl;
                    }
                }
            }
        }
        state
    }
}

/// Companion to a shared [`TimingGraph`] for one netlist state: per-net
/// static loads (sink pin caps + port pad caps, wire cap excluded) and
/// the sink-ordinal table. It is corner-invariant, so one cache serves
/// every corner library of an unchanged netlist
/// ([`analyze_cached`](crate::analysis::analyze_cached)). A netlist edit
/// can reorder load lists, so after one the caller derives a fresh cache
/// with [`TimingGraph::build_cache`].
#[derive(Debug, Clone)]
pub struct SinkCache {
    /// Sink ordinal per (instance, pin), CSR-indexed through the
    /// graph's `pin_start`.
    ord: Vec<u32>,
    /// Static load per net.
    load: Vec<Cap>,
}

impl SinkCache {
    /// The static (wire-cap-excluded) load of a net.
    #[inline]
    pub fn static_load(&self, net: NetId) -> Cap {
        self.load[net.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "dangling PinRef")]
    fn dangling_pinref_is_a_hard_error() {
        // A net whose load list does not contain the queried pin: the
        // pre-kernel code silently returned ordinal 0 (the *first*
        // sink's Elmore delay); now it is a hard error.
        let net = Net {
            name: "w".to_owned(),
            loads: vec![PinRef {
                inst: InstId(3),
                pin: 1,
            }],
            ..Net::default()
        };
        let _ = sink_ordinal(
            &net,
            PinRef {
                inst: InstId(7),
                pin: 0,
            },
        );
    }

    #[test]
    fn dangling_error_names_the_lint_rule() {
        // STA and the static analyzer share vocabulary: the structured
        // error (and the panic message built from it) names the
        // `dangling-pin-ref` rule `smt-lint` reports for the same net.
        let net = Net {
            name: "w".to_owned(),
            ..Net::default()
        };
        let pr = PinRef {
            inst: InstId(7),
            pin: 0,
        };
        let err = try_sink_ordinal(&net, pr).unwrap_err();
        assert_eq!(err.rule(), RuleId::DanglingPinRef);
        assert_eq!(err.pin, pr);
        assert!(err.to_string().contains(RuleId::DanglingPinRef.key()));
        assert!(err.to_string().contains("dangling PinRef"));
    }

    #[test]
    fn wide_level_takes_the_parallel_path_and_stays_bit_identical() {
        // One level wider than PARALLEL_LEVEL_WIDTH: a flat bank of
        // inverters all fed from one input. This is the only test that
        // exercises the worker-pool branch of `propagate`, so it pins
        // the "bit-identical for any worker count" guarantee.
        use crate::analysis::{analyze, analyze_baseline, StaConfig};
        let lib = Library::industrial_130nm();
        let mut n = Netlist::new("wide");
        let a = n.add_input("a");
        let inv = lib.find_id("INV_X1_L").unwrap();
        let width = PARALLEL_LEVEL_WIDTH + 64;
        for i in 0..width {
            let w = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv, &lib);
            n.connect_by_name(u, "A", a, &lib).unwrap();
            n.connect_by_name(u, "Z", w, &lib).unwrap();
        }
        n.expose_output("z", n.find_net("w0").unwrap());

        let graph = TimingGraph::build(&n, &lib).unwrap();
        assert_eq!(graph.num_levels(), 1);
        assert!(graph.level_insts(0).len() >= PARALLEL_LEVEL_WIDTH);

        let par = Parasitics::default(); // zero-RC: nets read as EMPTY
        let cfg = StaConfig::default();
        let der = Derating::none();
        let new = analyze(&n, &lib, &par, &cfg, &der).unwrap();
        let old = analyze_baseline(&n, &lib, &par, &cfg, &der).unwrap();
        assert_eq!(new.arrival, old.arrival);
        assert_eq!(new.arrival_min, old.arrival_min);
        assert_eq!(new.slew, old.slew);
        assert_eq!(new.required, old.required);
        assert_eq!(new.wns, old.wns);
    }

    #[test]
    fn present_pinref_resolves_to_its_position() {
        let a = PinRef {
            inst: InstId(3),
            pin: 1,
        };
        let b = PinRef {
            inst: InstId(5),
            pin: 0,
        };
        let net = Net {
            name: "w".to_owned(),
            loads: vec![a, b],
            ..Net::default()
        };
        assert_eq!(sink_ordinal(&net, a), 0);
        assert_eq!(sink_ordinal(&net, b), 1);
    }
}
