//! Netlist static analysis: the invariant engine guarding every stage
//! of the Fig. 4 flow.
//!
//! The improved Selective-MT transform touches a netlist aggressively
//! (variant swaps, new VGND nets, switch and holder insertion, MTE
//! buffering), so the flow runs [`analyze`] after each stage and treats
//! any [`Severity::Error`] finding as a bug in the transform.
//!
//! ## Model
//!
//! * [`RuleId`] — a stable machine-readable identity per rule. Rule keys
//!   (`"undriven-net"`, `"comb-loop"`, ...) never change meaning; tools
//!   (CI gates, the `smtd` daemon, the `smt-lint` bin) match on them.
//! * [`Diagnostic`] — one finding: rule, severity, a *structured*
//!   reference to the offending object ([`DiagObject`]: instance, net,
//!   port or pin) plus a rendered message for humans.
//! * [`LintPolicy`] — which rules run, severity overrides, and a waiver
//!   list keyed on `(rule, object name)` so expected states are
//!   suppressed declaratively instead of via ad-hoc booleans.
//!   [`LintPolicy::for_stage`] maps a flow-stage key to the rule set
//!   appropriate mid-flow (MT-wiring rules only arm once the switch
//!   network exists).
//! * [`LintReport`] — deterministically ordered diagnostics with a
//!   stable FNV [`LintReport::digest`], bit-identical at any worker
//!   count.
//!
//! ## Execution
//!
//! [`analyze_with_threads`] fans the enabled rules out on
//! [`smt_base::par::parallel_map`]: cheap whole-netlist rules run as one
//! task each, while per-instance and per-net scans are partitioned into
//! index-range cones. Partitioning depends only on the netlist (never on
//! the thread count) and the report is canonically sorted, so the output
//! is bit-stable across thread counts like every other kernel in the
//! workspace.

use crate::graph::topo_order;
use crate::netlist::{InstId, NetDriver, NetId, Netlist, PinRef, PortDir, PortId};
use smt_base::fingerprint::Fnv64;
use smt_base::par::parallel_map;
use smt_base::units::Cap;
use smt_cells::cell::{CellRole, PinDir};
use smt_cells::library::Library;
use std::fmt;

// ---------------------------------------------------------------------------
// Severity and rule identities
// ---------------------------------------------------------------------------

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational (e.g. unused net, provably constant gate).
    Info,
    /// Suspicious but may be intentional.
    Warning,
    /// A violated invariant.
    Error,
}

impl Severity {
    /// Stable machine-readable key (`"info" | "warning" | "error"`).
    pub fn key(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Inverse of [`Severity::key`].
    pub fn from_key(key: &str) -> Option<Severity> {
        match key {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// Stable machine-readable identity of one analysis rule.
///
/// Keys are part of the tool contract (JSON reports, waiver files, the
/// `smt-lint` CLI): once shipped, a key never changes meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// A net with loads but no driver.
    UndrivenNet,
    /// A driven net nothing consumes.
    UnloadedNet,
    /// A net with neither driver nor loads.
    UnconnectedNet,
    /// An instance logic/clock input left unconnected.
    FloatingInput,
    /// An instance output left unconnected.
    DanglingOutput,
    /// An MT special pin (`VGND`/`MTE`) unconnected after switch
    /// insertion.
    UnwiredMtPin,
    /// The instance-side connection table and the net-side load list
    /// disagree — the corruption class the timing kernel hard-errors on.
    DanglingPinRef,
    /// A VGND net joining MT-cell ports to anything other than exactly
    /// one switch drain.
    VgndTopology,
    /// An undriven output port.
    UndrivenPort,
    /// The clock net feeding a non-clock pin of a non-clock-buffer cell.
    ClockFeedsLogic,
    /// A combinational cycle (an SCC of the logic graph with no FF
    /// break).
    CombinationalLoop,
    /// A net whose data fanout exceeds the library limit.
    MaxFanout,
    /// A net whose total pin capacitance exceeds the library limit.
    MaxLoad,
    /// A sequential element whose clock pin the clock probe never
    /// reaches (no timing constraint applies to it).
    UnconstrainedEndpoint,
    /// A gate whose output is provably constant under ternary constant
    /// propagation (dead logic).
    ConstantLogic,
    /// A logic cone that never reaches an output port, sequential
    /// element, or other observable sink.
    UnreachableLogic,
}

impl RuleId {
    /// Every rule, in catalog order.
    pub const ALL: [RuleId; 16] = [
        RuleId::UndrivenNet,
        RuleId::UnloadedNet,
        RuleId::UnconnectedNet,
        RuleId::FloatingInput,
        RuleId::DanglingOutput,
        RuleId::UnwiredMtPin,
        RuleId::DanglingPinRef,
        RuleId::VgndTopology,
        RuleId::UndrivenPort,
        RuleId::ClockFeedsLogic,
        RuleId::CombinationalLoop,
        RuleId::MaxFanout,
        RuleId::MaxLoad,
        RuleId::UnconstrainedEndpoint,
        RuleId::ConstantLogic,
        RuleId::UnreachableLogic,
    ];

    /// The stable key tools match on.
    pub fn key(self) -> &'static str {
        match self {
            RuleId::UndrivenNet => "undriven-net",
            RuleId::UnloadedNet => "unloaded-net",
            RuleId::UnconnectedNet => "unconnected-net",
            RuleId::FloatingInput => "floating-input",
            RuleId::DanglingOutput => "dangling-output",
            RuleId::UnwiredMtPin => "unwired-mt-pin",
            RuleId::DanglingPinRef => "dangling-pin-ref",
            RuleId::VgndTopology => "vgnd-topology",
            RuleId::UndrivenPort => "undriven-port",
            RuleId::ClockFeedsLogic => "clock-feeds-logic",
            RuleId::CombinationalLoop => "comb-loop",
            RuleId::MaxFanout => "max-fanout",
            RuleId::MaxLoad => "max-load",
            RuleId::UnconstrainedEndpoint => "unconstrained-endpoint",
            RuleId::ConstantLogic => "constant-logic",
            RuleId::UnreachableLogic => "unreachable-logic",
        }
    }

    /// Inverse of [`RuleId::key`].
    pub fn from_key(key: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.key() == key)
    }

    /// The severity a finding carries unless the policy overrides it.
    pub fn default_severity(self) -> Severity {
        match self {
            RuleId::UndrivenNet
            | RuleId::FloatingInput
            | RuleId::UnwiredMtPin
            | RuleId::DanglingPinRef
            | RuleId::VgndTopology
            | RuleId::UndrivenPort
            | RuleId::CombinationalLoop => Severity::Error,
            RuleId::UnloadedNet
            | RuleId::DanglingOutput
            | RuleId::ClockFeedsLogic
            | RuleId::MaxFanout
            | RuleId::MaxLoad
            | RuleId::UnconstrainedEndpoint
            | RuleId::UnreachableLogic => Severity::Warning,
            RuleId::UnconnectedNet | RuleId::ConstantLogic => Severity::Info,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Structured reference to the object a diagnostic is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagObject {
    /// The whole design.
    Design,
    /// An instance.
    Inst(InstId),
    /// A net.
    Net(NetId),
    /// A top-level port.
    Port(PortId),
    /// A specific instance pin.
    Pin(PinRef),
}

impl DiagObject {
    /// Canonical ordering key: object class, then indices.
    fn sort_key(self) -> (u8, u64, u64) {
        match self {
            DiagObject::Design => (0, 0, 0),
            DiagObject::Inst(i) => (1, i.index() as u64, 0),
            DiagObject::Net(n) => (2, n.index() as u64, 0),
            DiagObject::Port(p) => (3, p.index() as u64, 0),
            DiagObject::Pin(pr) => (4, pr.inst.index() as u64, pr.pin as u64),
        }
    }

    /// The name waivers match on (instance, net or port name; the
    /// design name for design-level findings; the owning instance's
    /// name for pin findings).
    pub fn name<'n>(&self, netlist: &'n Netlist) -> &'n str {
        match self {
            DiagObject::Design => &netlist.name,
            DiagObject::Inst(i) => &netlist.inst(*i).name,
            DiagObject::Net(n) => &netlist.net(*n).name,
            DiagObject::Port(p) => &netlist.port(*p).name,
            DiagObject::Pin(pr) => &netlist.inst(pr.inst).name,
        }
    }

    fn hash_into(self, h: &mut Fnv64) {
        let (tag, a, b) = self.sort_key();
        h.write_u8(tag);
        h.write_u64(a);
        h.write_u64(b);
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Effective severity (after policy overrides).
    pub severity: Severity,
    /// The offending object.
    pub object: DiagObject,
    /// Human-readable description naming the offending object.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.key(),
            self.rule.key(),
            self.message
        )
    }
}

/// Severity tallies of one report — the per-design health counters the
/// suite rows carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiagCounts {
    /// `Severity::Error` findings.
    pub errors: usize,
    /// `Severity::Warning` findings.
    pub warnings: usize,
    /// `Severity::Info` findings.
    pub infos: usize,
}

impl DiagCounts {
    /// Element-wise sum (shard merges).
    pub fn add(&mut self, other: DiagCounts) {
        self.errors += other.errors;
        self.warnings += other.warnings;
        self.infos += other.infos;
    }

    /// Total findings of any severity.
    pub fn total(&self) -> usize {
        self.errors + self.warnings + self.infos
    }
}

/// The outcome of one [`analyze`] run: canonically ordered diagnostics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// All findings, sorted by `(rule, object, message)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when no [`Severity::Error`] findings exist.
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Severity tallies.
    pub fn counts(&self) -> DiagCounts {
        let mut c = DiagCounts::default();
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.errors += 1,
                Severity::Warning => c.warnings += 1,
                Severity::Info => c.infos += 1,
            }
        }
        c
    }

    /// Stable FNV fingerprint over the sorted diagnostics. Bit-identical
    /// across processes, platforms and worker counts; two reports digest
    /// equal iff their findings are identical.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(self.diagnostics.len());
        for d in &self.diagnostics {
            h.write_str(d.rule.key());
            h.write_u8(match d.severity {
                Severity::Info => 0,
                Severity::Warning => 1,
                Severity::Error => 2,
            });
            d.object.hash_into(&mut h);
            h.write_str(&d.message);
        }
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// Rule sets, waivers, policy
// ---------------------------------------------------------------------------

/// A set of [`RuleId`]s (bitmask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    bits: u32,
}

impl RuleSet {
    /// No rules.
    pub fn empty() -> Self {
        RuleSet { bits: 0 }
    }

    /// The full catalog.
    pub fn all() -> Self {
        let mut s = RuleSet::empty();
        for r in RuleId::ALL {
            s = s.with(r);
        }
        s
    }

    /// Every rule except the MT-wiring pair ([`RuleId::UnwiredMtPin`],
    /// [`RuleId::VgndTopology`]) — the set that applies mid-flow, before
    /// the switch network exists.
    pub fn structural() -> Self {
        RuleSet::all()
            .without(RuleId::UnwiredMtPin)
            .without(RuleId::VgndTopology)
    }

    /// Adds a rule.
    #[must_use]
    pub fn with(self, rule: RuleId) -> Self {
        RuleSet {
            bits: self.bits | 1 << rule as u32,
        }
    }

    /// Removes a rule.
    #[must_use]
    pub fn without(self, rule: RuleId) -> Self {
        RuleSet {
            bits: self.bits & !(1 << rule as u32),
        }
    }

    /// Membership test.
    pub fn contains(self, rule: RuleId) -> bool {
        self.bits & 1 << rule as u32 != 0
    }

    /// Enabled rules in catalog order.
    pub fn iter(self) -> impl Iterator<Item = RuleId> {
        RuleId::ALL.into_iter().filter(move |r| self.contains(*r))
    }
}

/// A declarative suppression: findings of `rule` on the object named
/// `object` (instance/net/port name; the owning instance for pins) are
/// dropped from the report. `"*"` waives the rule on every object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rule to waive.
    pub rule: RuleId,
    /// Object name the waiver applies to (`"*"` = any).
    pub object: String,
}

/// Which rules run, at which severities, with which waivers — the layer
/// that replaced the old `require_mt_wiring` boolean.
#[derive(Debug, Clone, PartialEq)]
pub struct LintPolicy {
    /// Enabled rules.
    pub rules: RuleSet,
    /// Per-rule severity overrides.
    pub severities: Vec<(RuleId, Severity)>,
    /// Findings to suppress.
    pub waivers: Vec<Waiver>,
    /// Fanout limit override (`None` = the library's
    /// `config.max_fanout`).
    pub max_fanout: Option<usize>,
    /// Load limit override in fF (`None` = the library's
    /// `config.max_load_ff`).
    pub max_load_ff: Option<f64>,
}

impl LintPolicy {
    fn with_rules(rules: RuleSet) -> Self {
        LintPolicy {
            rules,
            severities: Vec::new(),
            waivers: Vec::new(),
            max_fanout: None,
            max_load_ff: None,
        }
    }

    /// The full catalog, MT-wiring rules included — the policy for a
    /// completed Selective-MT netlist (signoff, the suite's per-design
    /// check, `smt-lint`'s default).
    pub fn signoff() -> Self {
        LintPolicy::with_rules(RuleSet::all())
    }

    /// The mid-flow policy: everything except the MT-wiring rules,
    /// which only arm once switch insertion has happened.
    pub fn structural() -> Self {
        LintPolicy::with_rules(RuleSet::structural())
    }

    /// The stage-appropriate policy for a flow-stage key
    /// (`StageId::key()` in `smt-core`; unknown keys get the
    /// conservative [`LintPolicy::structural`] set). From
    /// `insert_holders` onward the initial switch exists, so the
    /// MT-wiring rules arm. Policy names from users go through
    /// `smt_core::engine::lint_policy`, which rejects unknown names.
    pub fn for_stage(stage_key: &str) -> Self {
        match stage_key {
            "insert_holders" | "cluster_switches" | "cts" | "route_extract" | "reopt_switches"
            | "eco_hold_fix" | "signoff" => LintPolicy::signoff(),
            _ => LintPolicy::structural(),
        }
    }

    /// Adds a waiver (builder style).
    #[must_use]
    pub fn waive(mut self, rule: RuleId, object: impl Into<String>) -> Self {
        self.waivers.push(Waiver {
            rule,
            object: object.into(),
        });
        self
    }

    /// Overrides one rule's severity (builder style).
    #[must_use]
    pub fn severity(mut self, rule: RuleId, severity: Severity) -> Self {
        self.severities.retain(|(r, _)| *r != rule);
        self.severities.push((rule, severity));
        self
    }

    /// Overrides the fanout limit (builder style).
    #[must_use]
    pub fn fanout_limit(mut self, limit: usize) -> Self {
        self.max_fanout = Some(limit);
        self
    }

    /// Effective severity of a rule under this policy.
    pub fn severity_of(&self, rule: RuleId) -> Severity {
        self.severities
            .iter()
            .find(|(r, _)| *r == rule)
            .map_or_else(|| rule.default_severity(), |(_, s)| *s)
    }

    fn is_waived(&self, d: &Diagnostic, netlist: &Netlist) -> bool {
        self.waivers
            .iter()
            .any(|w| w.rule == d.rule && (w.object == "*" || w.object == d.object.name(netlist)))
    }
}

impl Default for LintPolicy {
    fn default() -> Self {
        LintPolicy::structural()
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Instances or nets per partitioned task — small enough that wide
/// netlists fan out, large enough that the per-task overhead stays
/// invisible. Partitioning depends only on this constant and the arena
/// sizes, never on the worker count, so the pre-sort diagnostic stream
/// is already thread-count independent.
const PARTITION_GRAIN: usize = 2048;

/// One unit of parallel work: a rule, restricted to an id range for the
/// partitionable scans (`lo..hi` over the instance or net arena; the
/// whole netlist for global rules, encoded as the full range).
#[derive(Debug, Clone, Copy)]
struct Task {
    rule: RuleId,
    lo: usize,
    hi: usize,
}

/// Runs the enabled rules sequentially. Equivalent to
/// [`analyze_with_threads`] with one worker.
pub fn analyze(netlist: &Netlist, lib: &Library, policy: &LintPolicy) -> LintReport {
    analyze_with_threads(netlist, lib, policy, 1)
}

/// Runs the enabled rules fanned out over `threads` workers (`0` = one
/// per available core). The report is bit-identical at any worker
/// count.
pub fn analyze_with_threads(
    netlist: &Netlist,
    lib: &Library,
    policy: &LintPolicy,
    threads: usize,
) -> LintReport {
    let insts = netlist.inst_capacity();
    let nets = netlist.num_nets();
    let mut tasks: Vec<Task> = Vec::new();
    let push_partitioned = |rule: RuleId, len: usize, tasks: &mut Vec<Task>| {
        let mut lo = 0;
        loop {
            let hi = (lo + PARTITION_GRAIN).min(len);
            tasks.push(Task { rule, lo, hi });
            if hi == len {
                break;
            }
            lo = hi;
        }
    };
    for rule in policy.rules.iter() {
        match rule {
            // Per-instance scans, cone-partitioned over the arena.
            RuleId::FloatingInput | RuleId::DanglingOutput | RuleId::UnwiredMtPin => {
                push_partitioned(rule, insts, &mut tasks);
            }
            // Per-net scans, cone-partitioned over the arena.
            RuleId::UndrivenNet
            | RuleId::UnloadedNet
            | RuleId::UnconnectedNet
            | RuleId::VgndTopology
            | RuleId::MaxFanout
            | RuleId::MaxLoad => push_partitioned(rule, nets, &mut tasks),
            // Whole-netlist rules: one task each.
            _ => tasks.push(Task {
                rule,
                lo: 0,
                hi: usize::MAX,
            }),
        }
    }

    let chunks = parallel_map(&tasks, threads, |t: &Task| {
        run_task(netlist, lib, policy, t)
    });
    let mut diagnostics: Vec<Diagnostic> = chunks
        .into_iter()
        .flatten()
        .filter(|d| !policy.is_waived(d, netlist))
        .map(|mut d| {
            d.severity = policy.severity_of(d.rule);
            d
        })
        .collect();
    diagnostics.sort_by(|a, b| {
        (a.rule, a.object.sort_key(), &a.message).cmp(&(b.rule, b.object.sort_key(), &b.message))
    });
    diagnostics.dedup();
    LintReport { diagnostics }
}

fn run_task(netlist: &Netlist, lib: &Library, policy: &LintPolicy, t: &Task) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let d = |rule: RuleId, object: DiagObject, message: String| Diagnostic {
        rule,
        severity: rule.default_severity(),
        object,
        message,
    };
    match t.rule {
        RuleId::UndrivenNet | RuleId::UnloadedNet | RuleId::UnconnectedNet => {
            for (id, net) in nets_in(netlist, t) {
                // VGND nets are power nets: every attached pin (MT-cell
                // ports and the switch drain) is an input-direction
                // `is_vgnd` pin, so they legitimately have no driver.
                if is_vgnd_net(netlist, lib, id) {
                    continue;
                }
                let n_sinks = net.loads.len() + net.port_loads.len();
                let finding = match (net.driver.is_some(), n_sinks) {
                    (false, 0) => RuleId::UnconnectedNet,
                    (false, _) => RuleId::UndrivenNet,
                    (true, 0) => RuleId::UnloadedNet,
                    (true, _) => continue,
                };
                if finding != t.rule {
                    continue;
                }
                let message = match finding {
                    RuleId::UnconnectedNet => {
                        format!("net `{}` is completely unconnected", net.name)
                    }
                    RuleId::UndrivenNet => format!("net `{}` has loads but no driver", net.name),
                    _ => format!("net `{}` is driven but unloaded", net.name),
                };
                out.push(d(finding, DiagObject::Net(id), message));
            }
        }
        RuleId::FloatingInput | RuleId::DanglingOutput | RuleId::UnwiredMtPin => {
            for (id, inst) in insts_in(netlist, t) {
                let cell = lib.cell(inst.cell);
                for (pin, conn) in inst.conns.iter().enumerate() {
                    if conn.is_some() {
                        continue;
                    }
                    let spec = &cell.pins[pin];
                    let special = spec.is_vgnd || spec.name == "MTE";
                    let finding = match spec.dir {
                        PinDir::Input if special => RuleId::UnwiredMtPin,
                        PinDir::Input => RuleId::FloatingInput,
                        PinDir::Output => RuleId::DanglingOutput,
                    };
                    if finding != t.rule {
                        continue;
                    }
                    let message = match finding {
                        RuleId::UnwiredMtPin => format!(
                            "instance `{}` pin `{}` unconnected after switch insertion",
                            inst.name, spec.name
                        ),
                        RuleId::FloatingInput => {
                            format!("instance `{}` input `{}` is floating", inst.name, spec.name)
                        }
                        _ => format!(
                            "instance `{}` output `{}` is dangling",
                            inst.name, spec.name
                        ),
                    };
                    out.push(d(
                        finding,
                        DiagObject::Pin(PinRef { inst: id, pin }),
                        message,
                    ));
                }
            }
        }
        RuleId::DanglingPinRef => check_pin_coherence(netlist, &mut out),
        RuleId::VgndTopology => {
            for (id, net) in nets_in(netlist, t) {
                let mut mt_ports = 0usize;
                let mut switch_drains = 0usize;
                for pr in &net.loads {
                    let cell = lib.cell(netlist.inst(pr.inst).cell);
                    if cell.pins[pr.pin].is_vgnd {
                        if cell.role == CellRole::Switch {
                            switch_drains += 1;
                        } else {
                            mt_ports += 1;
                        }
                    }
                }
                if mt_ports > 0 && switch_drains != 1 {
                    out.push(d(
                        RuleId::VgndTopology,
                        DiagObject::Net(id),
                        format!(
                            "VGND net `{}` joins {} MT-cell port(s) but {} switch(es)",
                            net.name, mt_ports, switch_drains
                        ),
                    ));
                }
            }
        }
        RuleId::UndrivenPort => {
            for (id, port) in netlist.ports() {
                if port.dir == PortDir::Output && netlist.net(port.net).driver.is_none() {
                    out.push(d(
                        RuleId::UndrivenPort,
                        DiagObject::Port(id),
                        format!("output port `{}` is undriven", port.name),
                    ));
                }
            }
        }
        RuleId::ClockFeedsLogic => {
            if let Some(ck) = netlist.clock_net() {
                for pr in &netlist.net(ck).loads {
                    let cell = lib.cell(netlist.inst(pr.inst).cell);
                    let pin = &cell.pins[pr.pin];
                    if !pin.is_clock && cell.role != CellRole::ClockBuf {
                        out.push(d(
                            RuleId::ClockFeedsLogic,
                            DiagObject::Pin(*pr),
                            format!(
                                "clock net drives non-clock pin `{}` of `{}`",
                                pin.name,
                                netlist.inst(pr.inst).name
                            ),
                        ));
                    }
                }
            }
        }
        RuleId::CombinationalLoop => check_comb_loops(netlist, lib, &mut out),
        RuleId::MaxFanout => {
            let limit = policy.max_fanout.unwrap_or(lib.config.max_fanout);
            for (id, net) in nets_in(netlist, t) {
                if is_vgnd_net(netlist, lib, id) {
                    continue;
                }
                // Data sinks only: clock, MTE and VGND loads have their
                // own budgets (CTS, MTE buffering, clustering).
                let data_loads = net
                    .loads
                    .iter()
                    .filter(|pr| {
                        let spec = &lib.cell(netlist.inst(pr.inst).cell).pins[pr.pin];
                        !spec.is_clock && !spec.is_vgnd && spec.name != "MTE"
                    })
                    .count();
                let sinks = data_loads + net.port_loads.len();
                if sinks > limit {
                    out.push(d(
                        RuleId::MaxFanout,
                        DiagObject::Net(id),
                        format!(
                            "net `{}` drives {} data sink(s), over the limit of {}",
                            net.name, sinks, limit
                        ),
                    ));
                }
            }
        }
        RuleId::MaxLoad => {
            let limit = policy.max_load_ff.unwrap_or(lib.config.max_load_ff);
            for (id, net) in nets_in(netlist, t) {
                if is_vgnd_net(netlist, lib, id) {
                    continue;
                }
                let mut total = Cap::ZERO;
                for pr in &net.loads {
                    total += lib.cell(netlist.inst(pr.inst).cell).pins[pr.pin].cap;
                }
                // Port loads priced like the timing kernel's sink cache.
                total += Cap::new(2.0 * net.port_loads.len() as f64);
                if total.ff() > limit {
                    out.push(d(
                        RuleId::MaxLoad,
                        DiagObject::Net(id),
                        format!(
                            "net `{}` presents {:.1} fF to its driver, over the limit of {:.1} fF",
                            net.name,
                            total.ff(),
                            limit
                        ),
                    ));
                }
            }
        }
        RuleId::UnconstrainedEndpoint => check_unconstrained(netlist, lib, &mut out),
        RuleId::ConstantLogic => check_constants(netlist, lib, &mut out),
        RuleId::UnreachableLogic => check_unreachable(netlist, lib, &mut out),
    }
    out
}

/// Live instances whose arena index falls in the task's range.
fn insts_in<'n>(
    netlist: &'n Netlist,
    t: &Task,
) -> impl Iterator<Item = (InstId, &'n crate::netlist::Instance)> {
    let (lo, hi) = (t.lo, t.hi);
    netlist
        .instances()
        .filter(move |(id, _)| (lo..hi).contains(&id.index()))
}

/// Nets whose arena index falls in the task's range.
fn nets_in<'n>(
    netlist: &'n Netlist,
    t: &Task,
) -> impl Iterator<Item = (NetId, &'n crate::netlist::Net)> {
    let (lo, hi) = (t.lo, t.hi);
    netlist
        .nets()
        .filter(move |(id, _)| (lo..hi).contains(&id.index()))
}

/// True when the net is a VGND power net: non-empty loads, all of them
/// `is_vgnd` pins.
fn is_vgnd_net(netlist: &Netlist, lib: &Library, id: NetId) -> bool {
    let net = netlist.net(id);
    !net.loads.is_empty()
        && net
            .loads
            .iter()
            .all(|pr| lib.cell(netlist.inst(pr.inst).cell).pins[pr.pin].is_vgnd)
}

/// Connectivity coherence: the instance-side `conns` table and the
/// net-side load lists must agree, in both directions. One pass over the
/// bulk [`Netlist::load_csr`] export collects every (net, sink) pair and
/// flags net-side strays; a second pass over the instances flags bound
/// input pins the export never listed — a dangling `PinRef`, the
/// corruption class the timing kernel hard-errors on
/// ([`RuleId::DanglingPinRef`] is the vocabulary its panic shares).
fn check_pin_coherence(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    // Both directions of the load-list/binding invariant check against
    // the other side directly: net-side strays compare one instance
    // field, instance-side danglers scan one net's load list (small —
    // bounded by fanout). No global index needed.
    for (id, net) in netlist.nets() {
        for pr in &net.loads {
            if netlist.inst(pr.inst).net_on(pr.pin) != Some(id) {
                out.push(Diagnostic {
                    rule: RuleId::DanglingPinRef,
                    severity: RuleId::DanglingPinRef.default_severity(),
                    object: DiagObject::Pin(*pr),
                    message: format!(
                        "net `{}` lists pin {} of `{}` as a load, but the instance is not bound to it",
                        net.name,
                        pr.pin,
                        netlist.inst(pr.inst).name
                    ),
                });
            }
        }
    }
    for (id, inst) in netlist.instances() {
        for (pin, conn) in inst.conns.iter().enumerate() {
            let Some(net) = conn else { continue };
            if inst.pin_dirs[pin] != PinDir::Input {
                continue;
            }
            let pr = PinRef { inst: id, pin };
            if !netlist.net(*net).loads.contains(&pr) {
                out.push(Diagnostic {
                    rule: RuleId::DanglingPinRef,
                    severity: RuleId::DanglingPinRef.default_severity(),
                    object: DiagObject::Pin(pr),
                    message: format!(
                        "dangling PinRef: `{}` pin {} claims net `{}` but is not in its load list",
                        inst.name,
                        pin,
                        netlist.net(*net).name
                    ),
                });
            }
        }
    }
}

/// Combinational-loop detection: an iterative Tarjan SCC pass over the
/// logic core (FFs, switches and holders are boundaries, so any SCC of
/// size > 1 — or a self-loop — is a cycle no flip-flop breaks). One
/// diagnostic per cycle, anchored on its lowest-id member.
fn check_comb_loops(netlist: &Netlist, lib: &Library, out: &mut Vec<Diagnostic>) {
    let cap = netlist.inst_capacity();
    let is_logic = |id: InstId| {
        let inst = netlist.inst(id);
        !inst.dead && lib.cell(inst.cell).is_logic()
    };
    // Adjacency in one CSR pass: successors of a logic instance are the
    // logic instances loading its output net through a logic input pin
    // (same predicate as `Cell::logic_input_pins`, checked per pin spec
    // so no per-edge allocation). Self-loops are flagged during the
    // build — Tarjan reports singleton SCCs only when one exists.
    let mut adj_start = vec![0u32; cap + 1];
    let mut adj: Vec<InstId> = Vec::new();
    let mut self_loop = vec![false; cap];
    for slot in 0..cap {
        let id = InstId(slot as u32);
        if is_logic(id) {
            let inst = netlist.inst(id);
            let cell = lib.cell(inst.cell);
            if let Some(net) = cell.output_pin().and_then(|p| inst.net_on(p)) {
                for pr in &netlist.net(net).loads {
                    if !is_logic(pr.inst) {
                        continue;
                    }
                    let spec = &lib.cell(netlist.inst(pr.inst).cell).pins[pr.pin];
                    if spec.dir == PinDir::Input
                        && !spec.is_clock
                        && !spec.is_vgnd
                        && spec.name != "MTE"
                    {
                        adj.push(pr.inst);
                        if pr.inst == id {
                            self_loop[slot] = true;
                        }
                    }
                }
            }
        }
        adj_start[slot + 1] = adj.len() as u32;
    }
    let succs_of =
        |id: InstId| &adj[adj_start[id.index()] as usize..adj_start[id.index() + 1] as usize];

    // Iterative Tarjan.
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; cap];
    let mut low = vec![0u32; cap];
    let mut on_stack = vec![false; cap];
    let mut stack: Vec<InstId> = Vec::new();
    let mut next_index = 0u32;
    // DFS frame: (node, next successor position).
    let mut frames: Vec<(InstId, usize)> = Vec::new();

    for (root, _) in netlist.instances() {
        if !is_logic(root) || index[root.index()] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        index[root.index()] = next_index;
        low[root.index()] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root.index()] = true;

        while let Some(frame) = frames.last_mut() {
            let (v, pos) = (frame.0, frame.1);
            let succs = succs_of(v);
            if pos < succs.len() {
                let w = succs[pos];
                frame.1 += 1;
                if index[w.index()] == UNSEEN {
                    frames.push((w, 0));
                    index[w.index()] = next_index;
                    low[w.index()] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w.index()] = true;
                } else if on_stack[w.index()] {
                    low[v.index()] = low[v.index()].min(index[w.index()]);
                }
            } else {
                if low[v.index()] == index[v.index()] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w.index()] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if scc.len() > 1 || self_loop[scc[0].index()] {
                        scc.sort();
                        let names: Vec<&str> = scc
                            .iter()
                            .take(8)
                            .map(|i| netlist.inst(*i).name.as_str())
                            .collect();
                        let suffix = if scc.len() > 8 { ", ..." } else { "" };
                        out.push(Diagnostic {
                            rule: RuleId::CombinationalLoop,
                            severity: RuleId::CombinationalLoop.default_severity(),
                            object: DiagObject::Inst(scc[0]),
                            message: format!(
                                "combinational cycle through {} gate(s): {}{}",
                                scc.len(),
                                names.join(" -> "),
                                suffix
                            ),
                        });
                    }
                }
                let done = frames.pop().expect("frame just inspected").0;
                if let Some(parent) = frames.last() {
                    let p = parent.0.index();
                    low[p] = low[p].min(low[done.index()]);
                }
            }
        }
    }
}

/// Unconstrained timing endpoints: sequential elements whose clock pin
/// the clock probe (BFS from clock-marked input ports through clock
/// buffers) never reaches. Such an FF has no timing constraint — STA
/// treats its `D` as unchecked, the silent hole this rule closes.
fn check_unconstrained(netlist: &Netlist, lib: &Library, out: &mut Vec<Diagnostic>) {
    // Clock roots: nets of clock-marked input ports.
    let mut clocked = vec![false; netlist.num_nets()];
    let mut frontier: Vec<NetId> = netlist
        .ports()
        .filter(|(_, p)| p.dir == PortDir::Input && p.is_clock)
        .map(|(_, p)| p.net)
        .collect();
    for net in &frontier {
        clocked[net.index()] = true;
    }
    while let Some(net) = frontier.pop() {
        for pr in &netlist.net(net).loads {
            let inst = netlist.inst(pr.inst);
            let cell = lib.cell(inst.cell);
            if cell.role != CellRole::ClockBuf {
                continue;
            }
            let Some(out_pin) = cell.output_pin() else {
                continue;
            };
            if let Some(next) = inst.net_on(out_pin) {
                if !clocked[next.index()] {
                    clocked[next.index()] = true;
                    frontier.push(next);
                }
            }
        }
    }
    for (id, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if !cell.is_sequential() {
            continue;
        }
        for (pin, spec) in cell.pins.iter().enumerate() {
            if !(spec.dir == PinDir::Input && spec.is_clock) {
                continue;
            }
            match inst.net_on(pin) {
                // A floating clock pin is already `floating-input`.
                None => {}
                Some(net) if clocked[net.index()] => {}
                Some(net) => out.push(Diagnostic {
                    rule: RuleId::UnconstrainedEndpoint,
                    severity: RuleId::UnconstrainedEndpoint.default_severity(),
                    object: DiagObject::Pin(PinRef { inst: id, pin }),
                    message: format!(
                        "sequential `{}` clock pin `{}` is fed by `{}`, which the clock never reaches",
                        inst.name,
                        spec.name,
                        netlist.net(net).name
                    ),
                }),
            }
        }
    }
}

/// Ternary value for constant propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    Zero,
    One,
    Unknown,
}

/// Constant/dead logic via ternary constant propagation over the
/// levelized combinational core: primary inputs and FF outputs are
/// unknown; a gate whose truth table evaluates identically under every
/// assignment of its unknown inputs (e.g. `XOR(a, a)`) is provably
/// constant. Skipped silently when the core is cyclic — the
/// [`RuleId::CombinationalLoop`] rule owns that finding.
fn check_constants(netlist: &Netlist, lib: &Library, out: &mut Vec<Diagnostic>) {
    let Ok(topo) = topo_order(netlist, lib) else {
        return;
    };
    let mut value = vec![Tri::Unknown; netlist.num_nets()];
    for id in &topo.order {
        let inst = netlist.inst(*id);
        let cell = lib.cell(inst.cell);
        let Some(tt) = cell.function else { continue };
        let Some(out_pin) = cell.output_pin() else {
            continue;
        };
        let Some(out_net) = inst.net_on(out_pin) else {
            continue;
        };
        // Same input ordering as the simulator: truth-table bit `i` is
        // the value on `logic_input_pins()[i]`.
        let pins = cell.logic_input_pins();
        let mut known = 0u32;
        // Unknown inputs enumerate per *source net*, not per pin: two
        // pins tied to the same unknown net move together, which is
        // exactly what makes `XOR(a, a)` provably constant.
        let mut unknown_vars: Vec<Option<NetId>> = Vec::new();
        let mut unknown_pins: Vec<(usize, usize)> = Vec::new(); // (bit i, var)
        for (i, pin) in pins.iter().enumerate() {
            let net = inst.net_on(*pin);
            match net.map(|n| value[n.index()]) {
                Some(Tri::One) => known |= 1 << i,
                Some(Tri::Zero) => {}
                // Floating inputs are their own finding; treat as
                // unknown here.
                Some(Tri::Unknown) | None => {
                    let var = unknown_vars
                        .iter()
                        .position(|v| net.is_some() && *v == net)
                        .unwrap_or_else(|| {
                            unknown_vars.push(net);
                            unknown_vars.len() - 1
                        });
                    unknown_pins.push((i, var));
                }
            }
        }
        if unknown_vars.len() > 16 {
            continue; // unreachable with library cells; guards 2^k below
        }
        let mut first: Option<bool> = None;
        let mut constant = true;
        for assign in 0u32..1 << unknown_vars.len() {
            let mut state = known;
            for (i, var) in &unknown_pins {
                if assign >> var & 1 != 0 {
                    state |= 1 << i;
                }
            }
            let v = tt.eval(state);
            match first {
                None => first = Some(v),
                Some(f) if f != v => {
                    constant = false;
                    break;
                }
                Some(_) => {}
            }
        }
        if constant {
            let v = first.unwrap_or(false);
            value[out_net.index()] = if v { Tri::One } else { Tri::Zero };
            out.push(Diagnostic {
                rule: RuleId::ConstantLogic,
                severity: RuleId::ConstantLogic.default_severity(),
                object: DiagObject::Inst(*id),
                message: format!(
                    "gate `{}` output is provably constant {} (dead logic)",
                    inst.name,
                    u8::from(v)
                ),
            });
        }
    }
}

/// Unreachable-cone detection: logic instances whose output never
/// reaches an observable sink (an output port, a sequential element, or
/// the gating fabric — holders/switches). A gate feeding *only* other
/// dead gates is unreachable even though its net has loads; the
/// fanout-0 tail of such a chain is [`RuleId::UnloadedNet`]'s finding,
/// so this rule only reports instances whose output has sinks.
fn check_unreachable(netlist: &Netlist, lib: &Library, out: &mut Vec<Diagnostic>) {
    let mut used_net = vec![false; netlist.num_nets()];
    let mut frontier: Vec<NetId> = Vec::new();
    let seed = |net: NetId, used_net: &mut Vec<bool>, frontier: &mut Vec<NetId>| {
        if !used_net[net.index()] {
            used_net[net.index()] = true;
            frontier.push(net);
        }
    };
    for (_, port) in netlist.ports() {
        if port.dir == PortDir::Output {
            seed(port.net, &mut used_net, &mut frontier);
        }
    }
    for (_, inst) in netlist.instances() {
        // Non-logic sinks observe their inputs: FFs capture, holders
        // hold, switches gate.
        if lib.cell(inst.cell).is_logic() {
            continue;
        }
        for net in inst
            .conns
            .iter()
            .enumerate()
            .filter_map(|(pin, c)| (inst.pin_dirs[pin] == PinDir::Input).then_some(*c)?)
        {
            seed(net, &mut used_net, &mut frontier);
        }
    }
    // Walk backward through the logic core.
    while let Some(net) = frontier.pop() {
        let Some(NetDriver::Inst(pr)) = netlist.net(net).driver else {
            continue;
        };
        let inst = netlist.inst(pr.inst);
        if inst.dead || !lib.cell(inst.cell).is_logic() {
            continue;
        }
        for (pin, conn) in inst.conns.iter().enumerate() {
            if inst.pin_dirs[pin] != PinDir::Input {
                continue;
            }
            if let Some(input) = conn {
                seed(*input, &mut used_net, &mut frontier);
            }
        }
    }
    for (id, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if !cell.is_logic() {
            continue;
        }
        let Some(out_pin) = cell.output_pin() else {
            continue;
        };
        let Some(net) = inst.net_on(out_pin) else {
            continue; // dangling output: its own finding
        };
        let n = netlist.net(net);
        let has_sinks = !n.loads.is_empty() || !n.port_loads.is_empty();
        if has_sinks && !used_net[net.index()] {
            out.push(Diagnostic {
                rule: RuleId::UnreachableLogic,
                severity: RuleId::UnreachableLogic.default_severity(),
                object: DiagObject::Inst(id),
                message: format!(
                    "gate `{}` drives a cone that never reaches an output, FF or holder",
                    inst.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use smt_cells::cell::VthClass;
    use smt_cells::library::Library;

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    fn rules(report: &LintReport) -> Vec<RuleId> {
        let mut r: Vec<RuleId> = report.diagnostics.iter().map(|d| d.rule).collect();
        r.dedup();
        r
    }

    #[test]
    fn clean_netlist_passes() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let z = n.add_output("z");
        let u = n.add_instance("u", lib.find_id("INV_X1_L").unwrap(), &lib);
        n.connect_by_name(u, "A", a, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        let report = analyze(&n, &lib, &LintPolicy::structural());
        assert!(report.is_clean(), "{report:?}");
        assert!(report.diagnostics.is_empty(), "{report:?}");
    }

    #[test]
    fn floating_input_is_error() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let z = n.add_output("z");
        let u = n.add_instance("u", lib.find_id("INV_X1_L").unwrap(), &lib);
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        let report = analyze(&n, &lib, &LintPolicy::structural());
        assert!(!report.is_clean());
        assert!(
            rules(&report).contains(&RuleId::FloatingInput),
            "{report:?}"
        );
        // The finding carries a structured pin reference.
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::FloatingInput)
            .unwrap();
        assert!(matches!(diag.object, DiagObject::Pin(pr) if pr.inst == u));
    }

    #[test]
    fn undriven_loaded_net_is_error() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let w = n.add_net("w");
        let z = n.add_output("z");
        let u = n.add_instance("u", lib.find_id("INV_X1_L").unwrap(), &lib);
        n.connect_by_name(u, "A", w, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        let report = analyze(&n, &lib, &LintPolicy::structural());
        assert!(report
            .errors()
            .any(|d| d.rule == RuleId::UndrivenNet && d.object == DiagObject::Net(w)));
    }

    #[test]
    fn mt_wiring_rules_arm_per_stage() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let z = n.add_output("z");
        let mv = lib.find_id("ND2_X1_MV").unwrap();
        let u = n.add_instance("u", mv, &lib);
        n.connect_by_name(u, "A", a, &lib).unwrap();
        n.connect_by_name(u, "B", b, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        // VGND unconnected: fine mid-flow...
        let relaxed = analyze(&n, &lib, &LintPolicy::for_stage("mt_replace"));
        assert!(relaxed.is_clean(), "{relaxed:?}");
        // ...an error once switch insertion is declared done.
        let strict = analyze(&n, &lib, &LintPolicy::for_stage("insert_holders"));
        assert!(!strict.is_clean());
        assert!(rules(&strict).contains(&RuleId::UnwiredMtPin));
    }

    #[test]
    fn vgnd_net_requires_one_switch() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let z = n.add_output("z");
        let mte = n.add_input("mte");
        let mv = lib.find_id("ND2_X1_MV").unwrap();
        let u = n.add_instance("u", mv, &lib);
        n.connect_by_name(u, "A", a, &lib).unwrap();
        n.connect_by_name(u, "B", b, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        let vg = n.add_net("vgnd0");
        n.connect_by_name(u, "VGND", vg, &lib).unwrap();
        // No switch on vgnd0 yet -> error under the signoff policy.
        let strict = LintPolicy::signoff();
        let report = analyze(&n, &lib, &strict);
        assert!(!report.is_clean());
        assert!(rules(&report).contains(&RuleId::VgndTopology), "{report:?}");
        // Attach a switch: becomes clean.
        let sw = n.add_instance("sw0", lib.find_id("SW_W8").unwrap(), &lib);
        n.connect_by_name(sw, "VGND", vg, &lib).unwrap();
        n.connect_by_name(sw, "MTE", mte, &lib).unwrap();
        let report = analyze(&n, &lib, &strict);
        assert!(report.is_clean(), "{report:?}");
        let _ = VthClass::MtVgnd;
    }

    #[test]
    fn combinational_loop_is_detected_as_scc() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let inv = lib.find_id("INV_X1_L").unwrap();
        let n1 = n.add_net("n1");
        let n2 = n.add_net("n2");
        let n3 = n.add_net("n3");
        let u = n.add_instance("u", inv, &lib);
        let v = n.add_instance("v", inv, &lib);
        let w = n.add_instance("w", inv, &lib);
        n.connect_by_name(u, "A", n3, &lib).unwrap();
        n.connect_by_name(u, "Z", n1, &lib).unwrap();
        n.connect_by_name(v, "A", n1, &lib).unwrap();
        n.connect_by_name(v, "Z", n2, &lib).unwrap();
        n.connect_by_name(w, "A", n2, &lib).unwrap();
        n.connect_by_name(w, "Z", n3, &lib).unwrap();
        n.expose_output("z", n3);
        let report = analyze(&n, &lib, &LintPolicy::structural());
        let loops: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::CombinationalLoop)
            .collect();
        assert_eq!(loops.len(), 1, "{report:?}");
        assert_eq!(loops[0].severity, Severity::Error);
        assert!(
            loops[0].message.contains("3 gate(s)"),
            "{}",
            loops[0].message
        );
    }

    #[test]
    fn fanout_limit_is_policy_overridable() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let w = n.add_net("w");
        let drv = n.add_instance("drv", lib.find_id("BUF_X4_L").unwrap(), &lib);
        n.connect_by_name(drv, "A", a, &lib).unwrap();
        n.connect_by_name(drv, "Z", w, &lib).unwrap();
        for i in 0..10 {
            let z = n.add_output(&format!("z{i}"));
            let u = n.add_instance(&format!("u{i}"), lib.find_id("INV_X1_L").unwrap(), &lib);
            n.connect_by_name(u, "A", w, &lib).unwrap();
            n.connect_by_name(u, "Z", z, &lib).unwrap();
        }
        // Under the library default (64) the net is fine.
        let report = analyze(&n, &lib, &LintPolicy::structural());
        assert!(!rules(&report).contains(&RuleId::MaxFanout), "{report:?}");
        // A policy override tightens it.
        let tight = LintPolicy::structural().fanout_limit(8);
        let report = analyze(&n, &lib, &tight);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == RuleId::MaxFanout && d.object == DiagObject::Net(w)));
    }

    #[test]
    fn constant_logic_is_reported() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let z = n.add_output("z");
        // XOR(a, a) == 0, whatever `a` is.
        let u = n.add_instance("u", lib.find_id("XOR2_X1_L").unwrap(), &lib);
        n.connect_by_name(u, "A", a, &lib).unwrap();
        n.connect_by_name(u, "B", a, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        let report = analyze(&n, &lib, &LintPolicy::structural());
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::ConstantLogic)
            .unwrap_or_else(|| panic!("no constant-logic finding: {report:?}"));
        assert_eq!(diag.severity, Severity::Info);
        assert!(diag.message.contains("constant 0"), "{}", diag.message);
    }

    #[test]
    fn unreachable_cone_is_reported() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let z = n.add_output("z");
        let inv = lib.find_id("INV_X1_L").unwrap();
        let u = n.add_instance("u", inv, &lib);
        n.connect_by_name(u, "A", a, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        // Dead chain: d1 -> d2 -> (nothing).
        let w1 = n.add_net("w1");
        let w2 = n.add_net("w2");
        let d1 = n.add_instance("d1", inv, &lib);
        let d2 = n.add_instance("d2", inv, &lib);
        n.connect_by_name(d1, "A", a, &lib).unwrap();
        n.connect_by_name(d1, "Z", w1, &lib).unwrap();
        n.connect_by_name(d2, "A", w1, &lib).unwrap();
        n.connect_by_name(d2, "Z", w2, &lib).unwrap();
        let report = analyze(&n, &lib, &LintPolicy::structural());
        // The head of the chain is unreachable; the tail's unloaded
        // output is the `unloaded-net` finding.
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == RuleId::UnreachableLogic && d.object == DiagObject::Inst(d1)),
            "{report:?}"
        );
        assert!(rules(&report).contains(&RuleId::UnloadedNet));
    }

    #[test]
    fn unconstrained_endpoint_when_clock_never_arrives() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let clk = n.add_clock("clk");
        let d = n.add_input("d");
        let q = n.add_output("q");
        let ff = n.add_instance("ff", lib.find_id("DFF_X1_L").unwrap(), &lib);
        n.connect_by_name(ff, "D", d, &lib).unwrap();
        n.connect_by_name(ff, "CK", clk, &lib).unwrap();
        n.connect_by_name(ff, "Q", q, &lib).unwrap();
        let report = analyze(&n, &lib, &LintPolicy::structural());
        assert!(!rules(&report).contains(&RuleId::UnconstrainedEndpoint));
        // Rewire CK onto the data net: the probe no longer reaches it.
        let ck_pin = lib.cell(n.inst(ff).cell).pin_index("CK").unwrap();
        n.disconnect(ff, ck_pin);
        n.connect(ff, ck_pin, d).unwrap();
        let report = analyze(&n, &lib, &LintPolicy::structural());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == RuleId::UnconstrainedEndpoint),
            "{report:?}"
        );
    }

    #[test]
    fn waivers_and_severity_overrides_apply() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let w = n.add_net("w");
        let z = n.add_output("z");
        let u = n.add_instance("u", lib.find_id("INV_X1_L").unwrap(), &lib);
        n.connect_by_name(u, "A", w, &lib).unwrap();
        n.connect_by_name(u, "Z", z, &lib).unwrap();
        // Waived by object name: the finding disappears entirely.
        let waived = LintPolicy::structural().waive(RuleId::UndrivenNet, "w");
        let report = analyze(&n, &lib, &waived);
        assert!(report.is_clean(), "{report:?}");
        // Demoted to a warning: still reported, no longer an error.
        let demoted = LintPolicy::structural().severity(RuleId::UndrivenNet, Severity::Warning);
        let report = analyze(&n, &lib, &demoted);
        assert!(report.is_clean());
        assert!(rules(&report).contains(&RuleId::UndrivenNet));
    }

    #[test]
    fn digest_is_thread_count_invariant() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let mut prev = a;
        for i in 0..300 {
            let w = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), lib.find_id("INV_X1_L").unwrap(), &lib);
            n.connect_by_name(u, "A", prev, &lib).unwrap();
            n.connect_by_name(u, "Z", w, &lib).unwrap();
            prev = w;
        }
        // Leave the tail unloaded so the report is non-empty.
        let policy = LintPolicy::signoff();
        let one = analyze_with_threads(&n, &lib, &policy, 1);
        let eight = analyze_with_threads(&n, &lib, &policy, 8);
        assert_eq!(one, eight);
        assert_eq!(one.digest(), eight.digest());
        assert!(!one.diagnostics.is_empty());
    }

    #[test]
    fn rule_keys_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for r in RuleId::ALL {
            assert!(seen.insert(r.key()), "duplicate key {}", r.key());
            assert_eq!(RuleId::from_key(r.key()), Some(r));
        }
        assert_eq!(RuleId::from_key("no-such-rule"), None);
    }
}
