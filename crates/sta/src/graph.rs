//! The levelized timing-graph kernel: the one STA engine behind both
//! ways in, the one-shot [`analyze`](crate::analysis::analyze) and the
//! resident [`TimingState`](crate::state::TimingState).
//!
//! A [`TimingGraph`] is built **once per netlist topology**. It holds, in
//! flat arrays, the facts every analysis would otherwise rediscover per
//! instance, and that corner libraries never change (corner derates move
//! timing numbers, never pin lists):
//!
//! * the combinational core in level-major order, with per-level
//!   offsets, so propagation walks level by level and fans a wide level
//!   out on the shared [`parallel_map`] worker pool;
//! * for each instance in that order, its output net and a CSR list of
//!   its connected logic-input pins, each as `(pin, net, ordinal slot)`;
//! * a CSR pin → sink-ordinal layout whose values (the same net → sink
//!   rows [`Netlist::load_csr`] exports) live in the per-consumer
//!   [`SinkCache`];
//! * the inverse maps, topology only: each net's readers (the edges
//!   whose pin sits on it, with their level-order slots) and each
//!   instance's level-order slot, built on first use (only a resident
//!   state's update and probes read them);
//! * per-cell-type tables: logic inputs, output and `D` pins, the arc
//!   each pin drives, and pin caps.
//!
//! A [`TimingState`](crate::state::TimingState) gathers once what the
//! two passes read: the live cell id of every instance, the wire delay
//! of every input pin, and the total load of every net. The gather is
//! corner-invariant, so every corner library of the state reads it. The
//! forward propagation and the required-time pass then walk those
//! arrays and the graph's, and keep each net's arrival, min arrival and
//! slew side by side; neither pass chases a `Netlist`, `Parasitics` or
//! pin-list pointer. The full gather and the state's per-swap re-gather
//! read rows through the same helpers, and the full propagation and the
//! state's update evaluate every slot through the same `eval`.
//!
//! The graph records connectivity, not cell choice. It serves the
//! netlist it was built from and every netlist reached from it by
//! same-pin cell swaps (Vth and drive variants), which change cell ids
//! and the order of load lists but move no pin to another net. The
//! leaves those swaps do change — per-net static pin loads and the
//! sink-ordinal table — live in a [`SinkCache`]. Both are
//! corner-invariant, so a per-corner loop over an unchanged netlist
//! shares one graph and one cache. A caller that swaps cells between
//! probes (the Dual-Vth assignment, ECO setup recovery) records each
//! swap in its `TimingState`, which marks the nets on the swapped pins;
//! the next update calls [`SinkCache::refresh`], which re-derives only
//! those rows, then re-gathers and re-times only what they touch.
//!
//! Propagation is **bit-identical** to the legacy sequential walk kept
//! as [`analyze_baseline`](crate::analysis::analyze_baseline) (see
//! `tests/properties.rs`): it evaluates the same formulas in the same
//! operation order, instances within one level never read each other's
//! outputs, every instance's inputs are finalized in strictly lower
//! levels, and results are written back in deterministic item order
//! regardless of worker count.
//!
//! Dangling [`PinRef`]s — an instance pin that claims a net which does
//! not list it as a load — are a **hard error** at cache-build, refresh
//! and lookup time, never a silently wrong delay (the pre-kernel code
//! priced the *first* sink's Elmore delay instead, masking real slack
//! violations).

use crate::analysis::{Derating, StaConfig};
use smt_base::par::parallel_map;
use smt_base::units::{Cap, Time};
use smt_cells::cell::{CellId, PinDir};
use smt_cells::library::Library;
use smt_netlist::check::RuleId;
use smt_netlist::graph::{topo_order, CombinationalCycle};
use smt_netlist::netlist::{InstId, Net, NetId, Netlist, PinRef, PortDir};
use smt_route::Parasitics;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// Sentinel for "this pin is not a sink of any net".
const NO_ORD: u32 = u32::MAX;

/// Sentinel for "this instance drives no net".
const NO_NET: u32 = u32::MAX;

/// Sentinel for "this instance has no level-order slot".
const NO_SLOT: u32 = u32::MAX;

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

/// One connected logic-input pin of a combinational instance: the
/// forward pass reads its net's timing through it, and the
/// required-time pass writes its net's required time.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// Pin index on the instance's cell.
    pin: u32,
    /// The net on the pin (`NetId::index()`).
    net: u32,
    /// The pin's slot in a [`SinkCache`]'s ordinal table.
    slot: u32,
}

/// One reader of a net: an edge whose pin sits on the net, and the
/// level-order slot of the instance that owns the edge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reader {
    /// Index into the graph's edges.
    pub edge: u32,
    /// Level-order slot of the reading instance.
    pub slot: u32,
}

/// Forward-propagation state of one net, kept together because every
/// input pin reads all three.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetTiming {
    /// Max arrival (at the driver pin, wire delay excluded).
    pub at: Time,
    /// Min arrival (`+inf` for nets no timed source reaches).
    pub at_min: Time,
    /// Slew.
    pub slew: Time,
}

impl NetTiming {
    /// The timing of a net no source or evaluated instance has written.
    pub(crate) fn unreached(source_slew: Time) -> Self {
        NetTiming {
            at: Time::ZERO,
            at_min: Time::new(f64::INFINITY),
            slew: source_slew,
        }
    }

    /// True when all three fields have the same bits: `==` would take
    /// `+0.0` for `-0.0`, which a fresh propagation tells apart.
    #[inline]
    pub(crate) fn same_bits(&self, other: &NetTiming) -> bool {
        self.at.ps().to_bits() == other.at.ps().to_bits()
            && self.at_min.ps().to_bits() == other.at_min.ps().to_bits()
            && self.slew.ps().to_bits() == other.slew.ps().to_bits()
    }
}

/// What one analysis reads per instance, per input pin and per net,
/// gathered from the netlist, the parasitics and the cache before the
/// passes run. Nothing in it depends on the corner library, so one
/// gather serves every corner.
#[derive(Debug)]
pub(crate) struct Gathered {
    /// Live cell id per level-order slot.
    pub cell: Vec<CellId>,
    /// Wire (Elmore) delay to each edge's pin, in `edges` order.
    pub wire: Vec<Time>,
    /// Total load per net: static pin and port load plus wire cap.
    pub load: Vec<Cap>,
}

/// The shared levelized timing kernel; see the module docs.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// Combinational instances in level-major order (level 0 first).
    order: Vec<InstId>,
    /// Per-level offsets into `order`; level `l` is
    /// `order[level_start[l]..level_start[l + 1]]`.
    level_start: Vec<u32>,
    /// Output net per `order` slot (`NO_NET` when the instance drives
    /// none; such an instance also has no edges).
    out_net: Vec<u32>,
    /// CSR offsets into `edges`, per `order` slot.
    edge_start: Vec<u32>,
    /// Connected logic-input pins per `order` slot, in pin order.
    edges: Vec<Edge>,
    /// CSR offsets of each instance slot's pin row in a [`SinkCache`]'s
    /// ordinal table (`pin_start.len() == inst_capacity + 1`).
    pin_start: Vec<u32>,
    /// The inverse maps, built on first use: only a resident
    /// [`TimingState`](crate::state::TimingState) that updates or probes
    /// reads them, so a one-shot analysis never pays for them.
    inverse: OnceLock<InverseMaps>,
    /// Per-cell-type structure tables (see [`CellTables`]).
    pub(crate) cells: CellTables,
    /// Live sequential instances in id order — the sources (`Q` pins)
    /// and endpoints (`D` pins) every pass loops over, cached so a full
    /// analysis does not re-scan every instance slot four times.
    ffs: Vec<InstId>,
    /// Net count the graph was built against.
    num_nets: usize,
}

/// The graph's topology-only inverse maps.
#[derive(Debug, Clone)]
struct InverseMaps {
    /// CSR offsets into `readers`, per net.
    reader_start: Vec<u32>,
    /// The edges that read each net, grouped by net, each group in
    /// level order: the inverse of the graph's edges.
    readers: Vec<Reader>,
    /// Level-order slot per instance id (`NO_SLOT` for instances off
    /// the combinational order: flip-flops, tombstones).
    slot_of: Vec<u32>,
}

impl InverseMaps {
    /// Each net's readers (a counting sort of the edges by net, so each
    /// group stays in level order) and each instance's slot.
    fn build(graph: &TimingGraph) -> Self {
        let num_nets = graph.num_nets;
        let mut reader_start = vec![0u32; num_nets + 1];
        for e in &graph.edges {
            reader_start[e.net as usize + 1] += 1;
        }
        for i in 0..num_nets {
            reader_start[i + 1] += reader_start[i];
        }
        let mut fill = reader_start[..num_nets].to_vec();
        let mut readers = vec![Reader { edge: 0, slot: 0 }; graph.edges.len()];
        let mut slot_of = vec![NO_SLOT; graph.pin_start.len() - 1];
        for (slot, &id) in graph.order.iter().enumerate() {
            slot_of[id.index()] = slot as u32;
            for e in graph.edge_range(slot) {
                let net = graph.edges[e].net as usize;
                readers[fill[net] as usize] = Reader {
                    edge: e as u32,
                    slot: slot as u32,
                };
                fill[net] += 1;
            }
        }
        InverseMaps {
            reader_start,
            readers,
            slot_of,
        }
    }
}

/// Flattened per-cell-*type* structure lookups, precomputed once at
/// graph build: logic-input pin lists, output pins, `D` pins, the arc
/// index driven by each input pin, and pin caps. They are functions of
/// cell structure only, so they are corner-invariant and can never go
/// stale under cell swaps; each analysis reads the live cell id.
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
    pub(crate) fn inputs(&self, cell: CellId) -> &[u32] {
        &self.in_pins
            [self.in_start[cell.index()] as usize..self.in_start[cell.index() + 1] as usize]
    }

    #[inline]
    pub(crate) fn arc_idx(&self, cell: CellId, pin: usize) -> Option<usize> {
        match self.pin_arc[self.pin_arc_start[cell.index()] as usize + pin] {
            u32::MAX => None,
            i => Some(i as usize),
        }
    }

    #[inline]
    pub(crate) fn out_pin(&self, cell: CellId) -> Option<usize> {
        match self.out_pin[cell.index()] {
            u32::MAX => None,
            p => Some(p as usize),
        }
    }

    #[inline]
    pub(crate) fn d_pin(&self, cell: CellId) -> Option<usize> {
        match self.d_pin[cell.index()] {
            u32::MAX => None,
            p => Some(p as usize),
        }
    }

    /// Input capacitance of one pin (same value as
    /// `lib.cell(cell).pins[pin].cap`).
    #[inline]
    fn pin_cap(&self, cell: CellId, pin: usize) -> Cap {
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
        // (pin counts never change under same-pin swaps); the ordinal
        // values themselves are a [`SinkCache`] concern, derived from
        // the current netlist because swaps reorder load lists.
        let mut pin_start = Vec::with_capacity(cap + 1);
        pin_start.push(0u32);
        for i in 0..cap {
            let n_pins = netlist.inst(InstId(i as u32)).conns.len() as u32;
            pin_start.push(pin_start.last().unwrap() + n_pins);
        }

        // Per level-order slot: the output net and the connected logic
        // inputs. An instance that drives no net is never evaluated, so
        // it records no edges.
        let cells = CellTables::build(lib);
        let mut out_net = Vec::with_capacity(order.len());
        let mut edge_start = Vec::with_capacity(order.len() + 1);
        edge_start.push(0u32);
        let mut edges = Vec::new();
        for &id in &order {
            let inst = netlist.inst(id);
            let onet = cells.out_pin(inst.cell).and_then(|p| inst.net_on(p));
            out_net.push(onet.map_or(NO_NET, |n| n.0));
            if onet.is_some() {
                for &pin in cells.inputs(inst.cell) {
                    if let Some(net) = inst.net_on(pin as usize) {
                        edges.push(Edge {
                            pin,
                            net: net.0,
                            slot: pin_start[id.index()] + pin,
                        });
                    }
                }
            }
            edge_start.push(edges.len() as u32);
        }

        let ffs = netlist
            .instances()
            .filter(|(_, inst)| lib.cell(inst.cell).is_sequential())
            .map(|(id, _)| id)
            .collect();

        Ok(TimingGraph {
            order,
            level_start,
            out_net,
            edge_start,
            edges,
            pin_start,
            inverse: OnceLock::new(),
            cells,
            ffs,
            num_nets: netlist.num_nets(),
        })
    }

    /// Live sequential instances (in id order) at build time.
    pub(crate) fn ffs(&self) -> &[InstId] {
        &self.ffs
    }

    /// True for a flip-flop of [`TimingGraph::ffs`].
    pub(crate) fn is_ff(&self, id: InstId) -> bool {
        self.ffs.binary_search(&id).is_ok()
    }

    /// Number of level-order slots.
    pub(crate) fn num_slots(&self) -> usize {
        self.order.len()
    }

    /// Net count the graph was built against.
    pub(crate) fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// The inverse maps, built on the first call.
    #[inline]
    fn inverse(&self) -> &InverseMaps {
        self.inverse.get_or_init(|| InverseMaps::build(self))
    }

    /// The level-order slot of an instance, if it has one.
    #[inline]
    pub(crate) fn slot_of(&self, id: InstId) -> Option<usize> {
        match self.inverse().slot_of.get(id.index()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// The output net of a level-order slot, if it drives one.
    #[inline]
    pub(crate) fn out_net(&self, slot: usize) -> Option<usize> {
        match self.out_net[slot] {
            NO_NET => None,
            n => Some(n as usize),
        }
    }

    /// The edges that read a net, in level order.
    #[inline]
    pub(crate) fn readers(&self, net: usize) -> &[Reader] {
        let m = self.inverse();
        &m.readers[m.reader_start[net] as usize..m.reader_start[net + 1] as usize]
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

    /// The edges of one level-order slot, as a range into `edges`.
    #[inline]
    fn edge_range(&self, slot: usize) -> Range<usize> {
        self.edge_start[slot] as usize..self.edge_start[slot + 1] as usize
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
            load: Vec::with_capacity(netlist.num_nets()),
            stale: Vec::new(),
            marked: vec![false; netlist.num_nets()],
        };
        // One fused zero-copy pass over every net's load row (the same
        // rows `Netlist::load_csr` exports, which the structural lint
        // cross-validates).
        for (_, net) in netlist.nets() {
            let load = self.derive_row(&mut cache.ord, netlist, net);
            cache.load.push(load);
        }
        // Validate every pin whose ordinal timing will query — logic
        // inputs and FF `D` pins.
        for (id, inst) in netlist.instances() {
            for &pin in self.cells.inputs(inst.cell) {
                self.check_pin(
                    &cache,
                    netlist,
                    PinRef {
                        inst: id,
                        pin: pin as usize,
                    },
                )?;
            }
            if let Some(dp) = self.cells.d_pin(inst.cell) {
                self.check_pin(&cache, netlist, PinRef { inst: id, pin: dp })?;
            }
        }
        Ok(cache)
    }

    /// Derives one net's cache row: writes each sink's ordinal into
    /// `ord` and returns the net's static load, accumulated in load-list
    /// order so the float sum matches a direct recomputation bit for
    /// bit. [`TimingGraph::build_cache`] and [`SinkCache::refresh`]
    /// both derive rows here.
    fn derive_row(&self, ord: &mut [u32], netlist: &Netlist, net: &Net) -> Cap {
        let mut pins = Cap::ZERO;
        for (k, pr) in net.loads.iter().enumerate() {
            ord[self.pin_start[pr.inst.index()] as usize + pr.pin] = k as u32;
            pins += self.cells.pin_cap(netlist.inst(pr.inst).cell, pr.pin);
        }
        pins + Cap::new(2.0 * net.port_loads.len() as f64)
    }

    /// The cache's consistency check for one pin: a connected pin must
    /// be a load of the net it claims, at the ordinal the cache holds.
    fn check_pin(
        &self,
        cache: &SinkCache,
        netlist: &Netlist,
        pr: PinRef,
    ) -> Result<(), DanglingPinRef> {
        let Some(net) = netlist.inst(pr.inst).net_on(pr.pin) else {
            return Ok(());
        };
        let ord = cache.ord[self.pin_start[pr.inst.index()] as usize + pr.pin];
        if ord == NO_ORD || netlist.net(net).loads.get(ord as usize) != Some(&pr) {
            return Err(DanglingPinRef {
                pin: pr,
                net: Some(netlist.net(net).name.clone()),
            });
        }
        Ok(())
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

    /// Gathers what one analysis reads: the live cell of every
    /// level-order slot, the wire delay to every edge's pin, and every
    /// net's total load (static load plus wire cap).
    ///
    /// # Panics
    ///
    /// Panics when the cache has rows marked but not refreshed, or when
    /// an edge's pin has no ordinal (a stale cache).
    pub(crate) fn gather(
        &self,
        netlist: &Netlist,
        parasitics: &Parasitics,
        cache: &SinkCache,
    ) -> Gathered {
        assert!(
            cache.stale.is_empty(),
            "SinkCache has marked nets: refresh it before analysing"
        );
        let mut cell = Vec::with_capacity(self.order.len());
        let mut wire = Vec::with_capacity(self.edges.len());
        for (slot, &id) in self.order.iter().enumerate() {
            cell.push(netlist.inst(id).cell);
            for &edge in &self.edges[self.edge_range(slot)] {
                wire.push(self.pin_wire(parasitics, cache, id, edge));
            }
        }
        let load = (0..cache.load.len())
            .map(|net| self.net_load(parasitics, cache, net))
            .collect();
        Gathered { cell, wire, load }
    }

    /// The gathered wire delay of one edge (of the instance at `slot`):
    /// the Elmore delay at its pin's ordinal in the cache.
    ///
    /// # Panics
    ///
    /// Panics when the pin has no ordinal (a stale cache).
    #[inline]
    pub(crate) fn edge_wire(
        &self,
        parasitics: &Parasitics,
        cache: &SinkCache,
        slot: usize,
        e: usize,
    ) -> Time {
        self.pin_wire(parasitics, cache, self.order[slot], self.edges[e])
    }

    /// [`TimingGraph::edge_wire`] for an edge of instance `id`.
    #[inline]
    fn pin_wire(&self, parasitics: &Parasitics, cache: &SinkCache, id: InstId, edge: Edge) -> Time {
        let ord = cache.ord[edge.slot as usize];
        if ord == NO_ORD {
            dangling_lookup(PinRef {
                inst: id,
                pin: edge.pin as usize,
            });
        }
        parasitics.net(NetId(edge.net)).elmore(ord as usize)
    }

    /// The gathered total load of one net: its static load in the cache
    /// plus its wire cap.
    #[inline]
    pub(crate) fn net_load(&self, parasitics: &Parasitics, cache: &SinkCache, net: usize) -> Cap {
        cache.load[net] + parasitics.net(NetId(net as u32)).wire_cap
    }

    /// Evaluates the instance at one level-order slot: its output net
    /// and that net's arrival, min arrival and slew, or `None` when it
    /// drives no net or no input has an arc. The one delay formula every
    /// consumer shares.
    #[inline]
    pub(crate) fn eval(
        &self,
        lib: &Library,
        derating: &Derating,
        source_slew: Time,
        g: &Gathered,
        nets: &[NetTiming],
        slot: usize,
    ) -> Option<(usize, NetTiming)> {
        let onet = self.out_net[slot];
        if onet == NO_NET {
            return None;
        }
        let cell_id = g.cell[slot];
        let cell = lib.cell(cell_id);
        let load = g.load[onet as usize];
        let factor = derating.factor(self.order[slot]);
        let mut best = Time::ZERO;
        let mut best_min = Time::new(f64::INFINITY);
        let mut best_slew = source_slew;
        let mut any_input = false;
        for e in self.edge_range(slot) {
            let edge = self.edges[e];
            let Some(arc_idx) = self.cells.arc_idx(cell_id, edge.pin as usize) else {
                continue;
            };
            let arc = &cell.arcs[arc_idx];
            any_input = true;
            let wire = g.wire[e];
            let input = nets[edge.net as usize];
            let at = input.at + wire;
            let at_min = input.at_min + wire;
            let d = arc.delay(input.slew, load) * factor;
            if at + d > best {
                best = at + d;
                best_slew = arc.output_slew(load);
            }
            best_min = best_min.min(at_min + d);
        }
        any_input.then_some((
            onet as usize,
            NetTiming {
                at: best,
                at_min: best_min,
                slew: best_slew,
            },
        ))
    }

    /// Seeds timing sources — primary inputs and flip-flop `Q` pins —
    /// into a fresh propagation state.
    fn seed_sources(
        &self,
        netlist: &Netlist,
        lib: &Library,
        config: &StaConfig,
        derating: &Derating,
        g: &Gathered,
        nets: &mut [NetTiming],
    ) {
        for (_, port) in netlist.ports() {
            if port.dir == PortDir::Input {
                nets[port.net.index()] = NetTiming {
                    at: config.input_delay,
                    at_min: config.input_delay,
                    slew: config.source_slew,
                };
            }
        }
        for &id in &self.ffs {
            if let Some((qnet, timing)) = self.seed_ff(netlist, lib, config, derating, g, id) {
                nets[qnet] = timing;
            }
        }
    }

    /// A flip-flop's source timing: its `Q` net and that net's clock-to-Q
    /// arrival and slew, or `None` when `Q` is unconnected or the cell
    /// has no arc.
    pub(crate) fn seed_ff(
        &self,
        netlist: &Netlist,
        lib: &Library,
        config: &StaConfig,
        derating: &Derating,
        g: &Gathered,
        id: InstId,
    ) -> Option<(usize, NetTiming)> {
        let inst = netlist.inst(id);
        let qnet = inst.net_on(self.cells.out_pin(inst.cell)?)?.index();
        let arc = lib.cell(inst.cell).arcs.first()?;
        let load = g.load[qnet];
        let d = arc.delay(config.source_slew, load) * derating.factor(id);
        Some((
            qnet,
            NetTiming {
                at: d,
                at_min: d,
                slew: arc.output_slew(load),
            },
        ))
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
        config: &StaConfig,
        derating: &Derating,
        g: &Gathered,
    ) -> Vec<NetTiming> {
        let mut nets = vec![NetTiming::unreached(config.source_slew); self.num_nets];
        self.seed_sources(netlist, lib, config, derating, g, &mut nets);
        let source_slew = config.source_slew;
        for level in 0..self.num_levels() {
            let slots = self.level_start[level] as usize..self.level_start[level + 1] as usize;
            if slots.len() >= PARALLEL_LEVEL_WIDTH {
                let slots: Vec<usize> = slots.collect();
                let results = parallel_map(&slots, 0, |&slot| {
                    self.eval(lib, derating, source_slew, g, &nets, slot)
                });
                for (net, timing) in results.into_iter().flatten() {
                    nets[net] = timing;
                }
            } else {
                for slot in slots {
                    if let Some((net, timing)) =
                        self.eval(lib, derating, source_slew, g, &nets, slot)
                    {
                        nets[net] = timing;
                    }
                }
            }
        }
        nets
    }

    /// The required-time pass over `slots`, which must run from high to
    /// low: each slot lowers its input nets' required times through its
    /// arcs. Every load of a net sits at a strictly higher level than its
    /// driver, so when `slots` holds every reader of a net, its required
    /// time is final once the walk passes its driver. The full report
    /// walks every slot, a probe only the output ports' fan-out cone.
    /// `required` arrives holding the endpoint requirements.
    pub(crate) fn propagate_required(
        &self,
        lib: &Library,
        derating: &Derating,
        g: &Gathered,
        nets: &[NetTiming],
        slots: impl Iterator<Item = usize>,
        required: &mut [Time],
    ) {
        for slot in slots {
            let onet = self.out_net[slot];
            if onet == NO_NET {
                continue;
            }
            let out_req = required[onet as usize];
            if !out_req.is_finite() {
                continue;
            }
            let cell_id = g.cell[slot];
            let cell = lib.cell(cell_id);
            let load = g.load[onet as usize];
            let factor = derating.factor(self.order[slot]);
            for e in self.edge_range(slot) {
                let edge = self.edges[e];
                let Some(arc_idx) = self.cells.arc_idx(cell_id, edge.pin as usize) else {
                    continue;
                };
                let d = cell.arcs[arc_idx].delay(nets[edge.net as usize].slew, load) * factor;
                let r = out_req - d - g.wire[e];
                let i = edge.net as usize;
                required[i] = required[i].min(r);
            }
        }
    }

    /// The nets on the input edges of a level-order slot, in edge order.
    pub(crate) fn input_nets(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges[self.edge_range(slot)]
            .iter()
            .map(|e| e.net as usize)
    }
}

/// Companion to a shared [`TimingGraph`] for one netlist state: per-net
/// static loads (sink pin caps + port pad caps, wire cap excluded) and
/// the sink-ordinal table. It is corner-invariant, so one cache serves
/// every corner library of one [`TimingState`](crate::state::TimingState).
///
/// A same-pin cell swap changes the pin caps of the swapped instance's
/// input nets and, through [`Netlist::replace_cell`], moves its pins to
/// the end of their load lists, shifting the ordinals of the other sinks
/// there. A caller that keeps one cache across such swaps records each
/// swap with [`TimingState::mark_swap`](crate::state::TimingState::mark_swap),
/// which marks those nets, and the next
/// [`TimingState::update`](crate::state::TimingState::update) refreshes
/// them; every other edit needs a new graph and cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkCache {
    /// Sink ordinal per (instance, pin), CSR-indexed through the
    /// graph's `pin_start`.
    ord: Vec<u32>,
    /// Static load per net.
    load: Vec<Cap>,
    /// Nets marked since the last refresh, each listed once.
    stale: Vec<NetId>,
    /// Per net: listed in `stale`.
    marked: Vec<bool>,
}

impl SinkCache {
    /// The static (wire-cap-excluded) load of a net.
    #[inline]
    pub fn static_load(&self, net: NetId) -> Cap {
        self.load[net.index()]
    }

    /// The nets marked since the last refresh: the rows the next
    /// [`SinkCache::refresh`] re-derives.
    pub(crate) fn marked(&self) -> &[NetId] {
        &self.stale
    }

    /// Marks a net's row for the next [`SinkCache::refresh`]: one of its
    /// sinks changed cell, or its load list changed order. Analysing
    /// with a marked row pending panics.
    pub fn mark(&mut self, net: NetId) {
        let flag = &mut self.marked[net.index()];
        if !*flag {
            *flag = true;
            self.stale.push(net);
        }
    }

    /// Marks the nets on `inst`'s input pins after a same-pin swap of its
    /// cell: the swap changed a pin cap on each of them and moved the
    /// instance's pins to the end of their load lists.
    pub(crate) fn mark_inputs(&mut self, netlist: &Netlist, inst: InstId) {
        let inst = netlist.inst(inst);
        for (conn, dir) in inst.conns.iter().zip(&inst.pin_dirs) {
            if let (Some(net), PinDir::Input) = (conn, dir) {
                self.mark(*net);
            }
        }
    }

    /// Re-derives the rows of the marked nets from the current netlist,
    /// with the per-net loop of [`TimingGraph::build_cache`], so the
    /// cache equals a freshly built one bit for bit. Then it checks every
    /// pin it wrote the way `build_cache` checks pins.
    ///
    /// Valid only when every edit since the cache was built or last
    /// refreshed was a same-pin cell swap whose input nets were marked.
    ///
    /// # Panics
    ///
    /// Panics on a dangling [`PinRef`] among the rewritten pins, like
    /// [`TimingGraph::build_cache`].
    pub fn refresh(&mut self, graph: &TimingGraph, netlist: &Netlist) {
        for &net in &self.stale {
            self.marked[net.index()] = false;
            self.load[net.index()] = graph.derive_row(&mut self.ord, netlist, netlist.net(net));
        }
        for &net in &self.stale {
            for &pr in &netlist.net(net).loads {
                if let Err(e) = graph.check_pin(self, netlist, pr) {
                    panic!("{e}");
                }
            }
        }
        self.stale.clear();
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
    #[should_panic(expected = "refresh it before analysing")]
    fn analysing_with_marked_nets_pending_panics() {
        use crate::analysis::StaConfig;
        use crate::state::TimingState;
        let lib = Library::industrial_130nm();
        let mut n = Netlist::new("marked");
        let a = n.add_input("a");
        let z = n.add_output("z");
        let u = n.add_instance("u", lib.find_id("INV_X1_L").unwrap(), &lib);
        n.connect_by_name(u, "A", a, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        let graph = TimingGraph::build(&n, &lib).unwrap();
        let mut cache = graph.build_cache(&n);
        n.replace_cell(u, lib.find_id("INV_X1_H").unwrap(), &lib)
            .unwrap();
        cache.mark(a);
        let (libs, par, cfg, der) = (
            [&lib],
            Parasitics::default(),
            StaConfig::default(),
            Derating::none(),
        );
        let _ = TimingState::new(&graph, &cache, &n, &libs, &par, &cfg, &der);
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
