//! Dual-Vth assignment (the paper's baseline, ref \[1\] Wei et al.
//! CICC'00, and step 2 of the Fig. 4 flow).
//!
//! Starting from the all-low-Vth netlist (timing met by construction),
//! cells are moved to high-Vth in slack order: the largest-slack cells are
//! the cheapest to slow down. Each pass binary-searches the largest
//! slack-sorted prefix whose wholesale swap keeps setup timing met — a
//! handful of STA runs per pass instead of one per cell — and passes
//! repeat until no further cell can be swapped. A peephole pass then
//! retries the worst-leaking cells left low one at a time.
//!
//! The probes share one resident timing state per assignment: one
//! [`TimingGraph`], one [`SinkCache`], one [`Derating`] and one
//! [`TimingState`] holding the gathered inputs and every corner's
//! forward timing. A swap is a same-pin [`Netlist::replace_cell`]; it
//! sets the swapped cell's derating factor and records the swap in the
//! state. The next probe re-gathers only the rows the swaps touched,
//! re-times only the cone whose inputs changed, and takes the WNS
//! without the full required-time pass; once per pass the
//! candidate-slack reports come from the same state plus the full
//! required-time pass. Every WNS and report is bit-identical to timing
//! the probe from scratch.
//!
//! Cells left at low-Vth after this stage are, by definition, the
//! timing-critical set: they are exactly the cells the Selective-MT
//! transforms replace with MT-cells.

use smt_base::units::Time;
use smt_cells::cell::{Cell, CellId, CellRole, VthClass};
use smt_cells::library::Library;
use smt_netlist::netlist::{InstId, Netlist};
use smt_route::Parasitics;
use smt_sta::{Derating, SinkCache, StaConfig, TimingGraph, TimingReport, TimingState};

/// Options for the assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct DualVthConfig {
    /// Slack that must remain after swapping (guard band for extraction
    /// error and clock skew).
    pub slack_margin: Time,
    /// Maximum improvement passes.
    pub max_passes: usize,
    /// Also consider flip-flops for high-Vth swap.
    pub include_ffs: bool,
    /// Upper bound on the fraction of candidate cells moved to high-Vth
    /// (`None` = unbounded). Table 1 reproduction uses this to emulate the
    /// paper-era assignment operating point, where ~40% (circuit A) / ~26%
    /// (circuit B) of the cells remained low-Vth/MT: modern slack-driven
    /// assignment otherwise leaves far fewer cells critical, shrinking the
    /// absolute SMT area overheads while preserving every relative claim.
    pub max_high_fraction: Option<f64>,
    /// Delay derate applied to cells *while they are still low-Vth*. The
    /// SMT flows set this to the MT-cell penalty (VGND-port or embedded
    /// variant, plus the worst-case bounce derate) so that whatever stays
    /// low-Vth is guaranteed to tolerate its upcoming conversion to an
    /// MT-cell — without over-constraining cells that move to high-Vth
    /// (in particular flip-flops, which are never gated).
    pub low_vth_derate: f64,
}

impl Default for DualVthConfig {
    fn default() -> Self {
        DualVthConfig {
            slack_margin: Time::ZERO,
            max_passes: 5,
            include_ffs: true,
            max_high_fraction: None,
            low_vth_derate: 1.0,
        }
    }
}

/// Outcome of the assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct DualVthReport {
    /// Cells moved to high-Vth.
    pub swapped_to_high: usize,
    /// Cells left low-Vth (the critical set).
    pub left_low: usize,
    /// Passes executed.
    pub passes: usize,
    /// Final timing report.
    pub final_wns: Time,
}

/// Errors from the assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignVthError {
    /// The all-low netlist already violates timing: the constraint is
    /// infeasible and no assignment exists.
    InfeasibleConstraint {
        /// WNS of the all-low design.
        wns: Time,
    },
    /// Levelisation failed.
    Cycle(smt_netlist::graph::CombinationalCycle),
}

impl std::fmt::Display for AssignVthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignVthError::InfeasibleConstraint { wns } => {
                write!(f, "timing infeasible even all-low-Vth (wns = {wns})")
            }
            AssignVthError::Cycle(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for AssignVthError {}

/// The timing state one assignment's probes share, kept in step with the
/// netlist swap by swap. The graph is built once by the caller: every
/// edit the assignment makes is a same-pin Vth swap, which keeps
/// topology and levels. The sink cache, the derating table and the
/// resident forward state are built once too, then updated per swap
/// instead of rebuilt per probe.
struct ProbeState<'a> {
    libs: &'a [&'a Library],
    low_vth_derate: f64,
    cache: SinkCache,
    /// `low_vth_derate` on low-Vth logic, 1.0 elsewhere; no table at all
    /// when the derate is 1.0.
    derating: Derating,
    timing: TimingState<'a>,
}

impl<'a> ProbeState<'a> {
    fn new(
        netlist: &Netlist,
        graph: &'a TimingGraph,
        libs: &'a [&'a Library],
        parasitics: &'a Parasitics,
        config: &'a StaConfig,
        low_vth_derate: f64,
    ) -> Self {
        let lib = libs[0];
        let cache = graph.build_cache(netlist);
        let derating = if low_vth_derate > 1.0 {
            let mut d = Derating::uniform(netlist);
            for (id, inst) in netlist.instances() {
                if is_derated(lib.cell(inst.cell)) {
                    d.set(id, low_vth_derate);
                }
            }
            d
        } else {
            Derating::none()
        };
        let timing = TimingState::new(graph, &cache, netlist, libs, parasitics, config, &derating);
        ProbeState {
            libs,
            low_vth_derate,
            cache,
            derating,
            timing,
        }
    }

    /// Swaps instance `id` to `cell` (a same-pin variant), sets its
    /// derating factor for the new cell, and records the swap in the
    /// timing state, which marks the nets on its input pins: the swap
    /// changed a pin cap there and moved the instance's pins to the end
    /// of those load lists.
    fn swap(&mut self, netlist: &mut Netlist, id: InstId, cell: CellId) {
        let lib = self.libs[0];
        netlist
            .replace_cell(id, cell, lib)
            .expect("variant swap preserves pins");
        if self.low_vth_derate > 1.0 {
            let factor = if is_derated(lib.cell(cell)) {
                self.low_vth_derate
            } else {
                1.0
            };
            self.derating.set(id, factor);
        }
        self.timing.mark_swap(&mut self.cache, netlist, id);
    }

    /// Full reports at every corner library, in `libs` order, from the
    /// updated state (the once-per-pass candidate slacks).
    fn reports(&mut self, netlist: &Netlist) -> Vec<TimingReport> {
        self.timing.update(&mut self.cache, netlist, &self.derating);
        (0..self.libs.len())
            .map(|k| self.timing.report(k, &self.cache, netlist, &self.derating))
            .collect()
    }

    /// Worst setup WNS across the corner libraries, from the updated
    /// state.
    fn wns(&mut self, netlist: &Netlist) -> Time {
        self.timing.update(&mut self.cache, netlist, &self.derating);
        (0..self.libs.len())
            .map(|k| self.timing.wns(k, &self.cache, netlist, &self.derating))
            .fold(Time::new(f64::INFINITY), Time::min)
    }
}

/// Cells that carry the low-Vth derate: low-Vth logic.
fn is_derated(cell: &Cell) -> bool {
    cell.vth == VthClass::Low && cell.role == CellRole::Logic
}

/// Worst instance slack across corner reports (the slack the assignment
/// must preserve at every corner).
fn worst_inst_slack(
    netlist: &Netlist,
    libs: &[&Library],
    reports: &[TimingReport],
    id: InstId,
) -> Time {
    libs.iter()
        .zip(reports)
        .map(|(lib, r)| r.inst_slack(netlist, lib, id))
        .fold(Time::new(f64::INFINITY), Time::min)
}

/// True for a low-Vth logic cell, or a low-Vth flip-flop when
/// `include_ffs` is set.
fn is_low(cell: &Cell, include_ffs: bool) -> bool {
    if cell.vth != VthClass::Low {
        return false;
    }
    match cell.role {
        CellRole::Logic => true,
        CellRole::Sequential => include_ffs,
        _ => false,
    }
}

/// A swap candidate: an instance whose cell [`is_low`] and has a
/// high-Vth variant. Returns its `(low, high)` cell pair.
fn candidate(
    lib: &Library,
    netlist: &Netlist,
    id: InstId,
    include_ffs: bool,
) -> Option<(CellId, CellId)> {
    let low = netlist.inst(id).cell;
    if !is_low(lib.cell(low), include_ffs) {
        return None;
    }
    lib.variant_id(low, VthClass::High).map(|high| (low, high))
}

/// Runs Dual-Vth assignment in place, preserving setup timing at *every*
/// corner library simultaneously: each swap decision is judged on the
/// worst-across-corners slack, so the assignment holds up at the slow
/// corner rather than just the corner it was tuned at.
///
/// All libraries must share cell ids (the [`smt_cells::corner`]
/// invariant); `libs[0]` is used for cell metadata and variant lookup.
/// A single-corner caller passes `&[lib]`. A low-Vth cell whose library
/// has no high-Vth variant is not a candidate: it stays low.
///
/// # Errors
///
/// [`AssignVthError::InfeasibleConstraint`] when even the all-low design
/// misses timing at some corner; [`AssignVthError::Cycle`] on
/// combinational loops.
pub fn assign_dual_vth_at_corners(
    netlist: &mut Netlist,
    libs: &[&Library],
    parasitics: &Parasitics,
    sta_config: &StaConfig,
    config: &DualVthConfig,
) -> Result<DualVthReport, AssignVthError> {
    assert!(!libs.is_empty(), "at least one corner library");
    let lib = libs[0];
    let margin = config.slack_margin;
    let graph = TimingGraph::build(netlist, lib).map_err(AssignVthError::Cycle)?;
    let mut probe = ProbeState::new(
        netlist,
        &graph,
        libs,
        parasitics,
        sta_config,
        config.low_vth_derate,
    );
    let base = probe.wns(netlist);
    if base < margin {
        return Err(AssignVthError::InfeasibleConstraint { wns: base });
    }

    let mut swapped_total = 0usize;
    let mut passes = 0usize;
    let initial_candidates = netlist
        .instances()
        .filter(|&(id, _)| candidate(lib, netlist, id, config.include_ffs).is_some())
        .count();
    let budget = config
        .max_high_fraction
        .map(|f| (f * initial_candidates as f64) as usize)
        .unwrap_or(usize::MAX);

    for _pass in 0..config.max_passes {
        passes += 1;
        let reports = probe.reports(netlist);
        // Candidates sorted by worst-across-corners slack, largest first.
        let mut cands: Vec<(Time, InstId, CellId, CellId)> = netlist
            .instances()
            .filter_map(|(id, _)| {
                let (low, high) = candidate(lib, netlist, id, config.include_ffs)?;
                Some((worst_inst_slack(netlist, libs, &reports, id), id, low, high))
            })
            .collect();
        if cands.is_empty() {
            break;
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
        // Respect the swap budget (paper-era operating-point emulation):
        // only the highest-slack remainder of the budget is eligible.
        let remaining = budget.saturating_sub(swapped_total);
        if remaining == 0 {
            break;
        }
        cands.truncate(remaining);

        // Binary search the largest prefix that still meets timing.
        let swap_prefix = |probe: &mut ProbeState, netlist: &mut Netlist, k: usize, high: bool| {
            for &(_, id, low_cell, high_cell) in &cands[..k] {
                probe.swap(netlist, id, if high { high_cell } else { low_cell });
            }
        };
        let mut lo = 0usize; // known-good prefix
        let mut hi = cands.len(); // first known-bad beyond
                                  // Probe the full swap first: often everything fits.
        swap_prefix(&mut probe, netlist, hi, true);
        if probe.wns(netlist) >= margin {
            lo = hi;
        } else {
            swap_prefix(&mut probe, netlist, hi, false);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                swap_prefix(&mut probe, netlist, mid, true);
                if probe.wns(netlist) >= margin {
                    lo = mid;
                } else {
                    hi = mid;
                }
                swap_prefix(&mut probe, netlist, mid, false);
            }
            swap_prefix(&mut probe, netlist, lo, true);
        }
        swapped_total += lo;
        if lo == 0 {
            break;
        }
    }

    // Peephole pass: the prefix search is coarse near the critical region;
    // retry the remaining low cells one at a time, worst leakers first
    // (flip-flops dominate this list — they cannot be power-gated, so a
    // low-Vth FF left behind costs the full subthreshold current forever).
    let mut singles: Vec<(f64, InstId, CellId, CellId)> = netlist
        .instances()
        .filter_map(|(id, _)| {
            let (low, high) = candidate(lib, netlist, id, config.include_ffs)?;
            Some((lib.cell(low).standby_leak.ua(), id, low, high))
        })
        .collect();
    singles.sort_by(|a, b| b.0.total_cmp(&a.0));
    let singles_budget = budget.saturating_sub(swapped_total).min(128);
    for (_, id, low, high) in singles.into_iter().take(singles_budget) {
        probe.swap(netlist, id, high);
        if probe.wns(netlist) >= margin {
            swapped_total += 1;
        } else {
            probe.swap(netlist, id, low);
        }
    }

    let left_low = netlist
        .instances()
        .filter(|(_, inst)| is_low(lib.cell(inst.cell), true))
        .count();
    let final_wns = probe.wns(netlist);
    debug_assert!(final_wns >= margin, "assignment must preserve timing");
    Ok(DualVthReport {
        swapped_to_high: swapped_total,
        left_low,
        passes,
        final_wns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_place::{place, PlacerConfig};
    use smt_sta::analyze;

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    /// Two register-to-register paths: one deep (critical), one shallow.
    fn two_path_design(lib: &Library, deep: usize, shallow: usize) -> Netlist {
        let mut n = Netlist::new("twopath");
        let clk = n.add_clock("clk");
        let dff = lib.find_id("DFF_X1_L").unwrap();
        let inv = lib.find_id("INV_X1_L").unwrap();
        for (tag, len) in [("deep", deep), ("shal", shallow)] {
            let src_q = n.add_net(&format!("{tag}_q"));
            let src = n.add_instance(&format!("{tag}_src"), dff, lib);
            n.connect_by_name(src, "CK", clk, lib).unwrap();
            n.connect_by_name(src, "Q", src_q, lib).unwrap();
            let mut prev = src_q;
            for i in 0..len {
                let w = n.add_net(&format!("{tag}_w{i}"));
                let u = n.add_instance(&format!("{tag}_u{i}"), inv, lib);
                n.connect_by_name(u, "A", prev, lib).unwrap();
                n.connect_by_name(u, "Z", w, lib).unwrap();
                prev = w;
            }
            let dst = n.add_instance(&format!("{tag}_dst"), dff, lib);
            n.connect_by_name(dst, "D", prev, lib).unwrap();
            n.connect_by_name(dst, "CK", clk, lib).unwrap();
            let q = n.add_output(&format!("{tag}_out"));
            n.connect_by_name(dst, "Q", q, lib).unwrap();
            // close the src FF's D input
            n.connect_by_name(src, "D", q, lib).unwrap();
        }
        n
    }

    #[test]
    fn shallow_path_goes_high_vth_deep_stays_low() {
        let lib = lib();
        let mut n = two_path_design(&lib, 30, 4);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        // Clock chosen to just fit the deep path on low-Vth.
        let cfg0 = StaConfig::default();
        let base = analyze(&n, &lib, &par, &cfg0, &Derating::none()).unwrap();
        let crit = cfg0.clock_period - base.wns;
        let sta_cfg = StaConfig {
            clock_period: crit * 1.08,
            ..cfg0
        };
        let report =
            assign_dual_vth_at_corners(&mut n, &[&lib], &par, &sta_cfg, &DualVthConfig::default())
                .unwrap();
        assert!(report.swapped_to_high > 0, "{report:?}");
        assert!(report.final_wns.ps() >= 0.0);
        // All shallow-path inverters should be high-Vth now.
        let mut shal_high = 0;
        let mut shal_total = 0;
        let mut deep_low = 0;
        for (_, inst) in n.instances() {
            let cell = lib.cell(inst.cell);
            if inst.name.starts_with("shal_u") {
                shal_total += 1;
                if cell.vth == VthClass::High {
                    shal_high += 1;
                }
            }
            if inst.name.starts_with("deep_u") && cell.vth == VthClass::Low {
                deep_low += 1;
            }
        }
        assert_eq!(shal_high, shal_total, "all shallow gates go high-Vth");
        assert!(deep_low >= 25, "deep path mostly stays low: {deep_low}");
    }

    #[test]
    fn multi_corner_assignment_guards_the_slow_corner() {
        use smt_cells::corner::{CornerLibrary, CornerSet};
        let lib = lib();
        let mut n = two_path_design(&lib, 24, 4);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let corners = CornerLibrary::build_set(&lib, &CornerSet::slow_typ_fast());
        let libs: Vec<&Library> = smt_cells::corner::setup_libs(&corners);
        // Clock sized off the *slow* corner so assignment is feasible there.
        let probe = analyze(&n, libs[0], &par, &StaConfig::default(), &Derating::none()).unwrap();
        let crit = StaConfig::default().clock_period - probe.wns;
        let sta_cfg = StaConfig {
            clock_period: crit * 1.15,
            ..StaConfig::default()
        };
        let report =
            assign_dual_vth_at_corners(&mut n, &libs, &par, &sta_cfg, &DualVthConfig::default())
                .unwrap();
        assert!(report.swapped_to_high > 0, "{report:?}");
        // Timing holds at every setup corner, not just typical.
        let graph = TimingGraph::build(&n, &lib).unwrap();
        let cache = graph.build_cache(&n);
        let der = Derating::none();
        let timing = TimingState::new(&graph, &cache, &n, &libs, &par, &sta_cfg, &der);
        for (k, l) in libs.iter().enumerate() {
            let r = timing.report(k, &cache, &n, &der);
            assert!(r.setup_met(), "corner lib {} wns {}", l.tech.name, r.wns);
        }
    }

    #[test]
    fn infeasible_clock_is_an_error() {
        let lib = lib();
        let mut n = two_path_design(&lib, 30, 4);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let sta_cfg = StaConfig {
            clock_period: Time::new(100.0), // absurdly fast
            ..StaConfig::default()
        };
        let e =
            assign_dual_vth_at_corners(&mut n, &[&lib], &par, &sta_cfg, &DualVthConfig::default())
                .unwrap_err();
        assert!(matches!(e, AssignVthError::InfeasibleConstraint { .. }));
        assert!(e.to_string().contains("infeasible"));
    }

    #[test]
    fn a_cell_without_a_high_vth_variant_stays_low() {
        use smt_cells::library::LibraryConfig;
        let base = lib();
        let cells = base
            .cells()
            .iter()
            .filter(|c| c.name != "INV_X1_H")
            .cloned()
            .collect();
        let lib = Library::from_cells(base.tech.clone(), LibraryConfig::default(), cells);
        let inv = lib.find_id("INV_X1_L").unwrap();
        assert_eq!(lib.variant_id(inv, VthClass::High), None);
        let mut n = two_path_design(&lib, 10, 4);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let sta_cfg = StaConfig {
            clock_period: Time::from_ns(50.0), // everything has slack
            ..StaConfig::default()
        };
        let report =
            assign_dual_vth_at_corners(&mut n, &[&lib], &par, &sta_cfg, &DualVthConfig::default())
                .unwrap();
        let invs = n.instances().filter(|(_, i)| i.cell == inv).count();
        assert_eq!(invs, 14, "every inverter stays INV_X1_L");
        assert_eq!(report.left_low, invs, "{report:?}");
        // The flip-flops, which have an H variant, still move.
        assert_eq!(report.swapped_to_high, 4, "{report:?}");
    }

    #[test]
    fn relaxed_clock_swaps_everything() {
        let lib = lib();
        let mut n = two_path_design(&lib, 10, 4);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let sta_cfg = StaConfig {
            clock_period: Time::from_ns(50.0), // everything has slack
            ..StaConfig::default()
        };
        let report =
            assign_dual_vth_at_corners(&mut n, &[&lib], &par, &sta_cfg, &DualVthConfig::default())
                .unwrap();
        assert_eq!(report.left_low, 0, "{report:?}");
        // Everything (including FFs) went high.
        for (_, inst) in n.instances() {
            assert_eq!(lib.cell(inst.cell).vth, VthClass::High, "{}", inst.name);
        }
    }
}
