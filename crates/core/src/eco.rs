//! ECO: setup recovery, hold fixing and the MTE distribution network.
//!
//! The last boxes of Fig. 4: buffer the heavily loaded MT-enable net,
//! recover setup on extracted RC by swapping critical-path cells to
//! faster variants, and fix hold violations (introduced by clock skew
//! after CTS) by padding short paths with delay buffers.

use crate::smtgen::mte_net;
use smt_base::units::Time;
use smt_cells::cell::VthClass;
use smt_cells::library::Library;
use smt_netlist::netlist::{InstId, Netlist, PinRef};
use smt_place::Placement;
use smt_route::{buffer_net, BufferingConfig, BufferingReport, Parasitics};
use smt_sta::{Derating, SinkCache, StaConfig, TimingGraph, TimingReport, TimingState};

/// Buffers the MTE net with always-on high-Vth buffers.
///
/// MTE must stay functional in standby, so its buffers cannot themselves
/// be power-gated: high-Vth buffers are the correct choice (slow is fine —
/// MTE switches at mode transitions only).
pub fn distribute_mte(
    netlist: &mut Netlist,
    placement: &mut Placement,
    lib: &Library,
    max_fanout: usize,
) -> BufferingReport {
    let mte = mte_net(netlist);
    let buffer = lib
        .buffer(4, VthClass::High)
        .or_else(|| lib.buffer(1, VthClass::High))
        .expect("library has high-Vth buffers");
    buffer_net(
        netlist,
        placement,
        lib,
        mte,
        &BufferingConfig { max_fanout, buffer },
    )
}

/// Outcome of hold fixing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HoldFixReport {
    /// Delay buffers inserted.
    pub buffers: usize,
    /// Hold violations remaining (0 on success).
    pub remaining: usize,
    /// Fixing rounds used.
    pub rounds: usize,
}

/// Hold violations merged across corner reports (worst slack per
/// flip-flop, via [`smt_sta::merge_hold_violations`]).
fn merge_hold_violations(reports: &[TimingReport]) -> Vec<smt_sta::HoldViolation> {
    smt_sta::merge_hold_violations(reports.iter().map(|r| r.hold_violations.clone()))
}

/// Times the netlist at every corner library from one graph, one sink
/// cache and one [`TimingState`]; reports come back in `libs` order.
pub(crate) fn corner_reports(
    netlist: &Netlist,
    libs: &[&Library],
    parasitics: &Parasitics,
    sta_config: &StaConfig,
    derating: &Derating,
) -> Result<Vec<TimingReport>, smt_netlist::graph::CombinationalCycle> {
    let graph = TimingGraph::build(netlist, libs[0])?;
    let cache = graph.build_cache(netlist);
    let timing = TimingState::new(
        &graph, &cache, netlist, libs, parasitics, sta_config, derating,
    );
    Ok((0..libs.len())
        .map(|k| timing.report(k, &cache, netlist, derating))
        .collect())
}

/// Fixes hold violations by inserting high-Vth delay buffers in front of
/// violating flip-flop `D` pins, iterating STA → pad → STA. Each round
/// pads against the union of hold violations across every corner library
/// (worst slack per flip-flop), so short paths are buffered enough to
/// survive the fast corner, not just the corner the flow was tuned at.
/// `libs[0]` supplies the buffer cell; a single-corner caller passes
/// `&[lib]`.
///
/// # Errors
///
/// Propagates combinational-cycle errors from STA (cannot occur on
/// netlists this flow produces).
pub fn fix_hold_at_corners(
    netlist: &mut Netlist,
    placement: &mut Placement,
    libs: &[&Library],
    parasitics: &Parasitics,
    sta_config: &StaConfig,
    derating: &Derating,
    max_rounds: usize,
) -> Result<HoldFixReport, smt_netlist::graph::CombinationalCycle> {
    assert!(!libs.is_empty(), "at least one corner library");
    let lib = libs[0];
    let buffer = lib.buffer(1, VthClass::High).expect("library has BUF_X1_H");
    let mut report = HoldFixReport::default();
    for round in 0..max_rounds {
        report.rounds = round + 1;
        // Buffer insertion changes topology every round, so the graph is
        // rebuilt per round — but shared (with its cache and one gather)
        // across the corner libraries.
        let reports = corner_reports(netlist, libs, parasitics, sta_config, derating)?;
        let violations = merge_hold_violations(&reports);
        if violations.is_empty() {
            report.remaining = 0;
            return Ok(report);
        }
        for v in &violations {
            let ff = v.ff;
            let cell = lib.cell(netlist.inst(ff).cell);
            let Some(dp) = cell.pin_index("D") else {
                continue;
            };
            let Some(dnet) = netlist.inst(ff).net_on(dp) else {
                continue;
            };
            // How many buffers this gap needs (each adds ~its intrinsic).
            let buf_cell = lib.cell(buffer);
            let per_buf = buf_cell.arcs[0].delay(
                Time::new(40.0),
                buf_cell.pins[0].cap + smt_base::units::Cap::new(2.0),
            );
            let deficit = v.required - v.arrival_min;
            let count = ((deficit.ps() / per_buf.ps()).ceil() as usize).clamp(1, 8);
            let loc = placement.loc(ff);
            let mut net = dnet;
            for _ in 0..count {
                let loads = vec![PinRef { inst: ff, pin: dp }];
                let (buf, new_net) = netlist.insert_buffer(net, &loads, buffer, "hold", lib);
                placement.set_loc(buf, loc);
                report.buffers += 1;
                net = new_net;
            }
        }
        // NOTE: `parasitics` is indexed by net id; new nets created above
        // fall back to zero-RC defaults in STA lookups, which is
        // conservative for hold (buffers' own delay still counts).
    }
    let reports = corner_reports(netlist, libs, parasitics, sta_config, derating)?;
    report.remaining = merge_hold_violations(&reports).len();
    Ok(report)
}

/// Outcome of setup recovery.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SetupFixReport {
    /// High→low Vth swaps applied on critical paths.
    pub vth_downgrades: usize,
    /// Drive upsizes applied on critical paths.
    pub upsizes: usize,
    /// Final WNS, ps.
    pub final_wns_ps: f64,
    /// Every instance whose cell (and so possibly footprint) changed —
    /// the work-list an incremental placer re-legalizes, instead of
    /// re-placing the whole design.
    pub touched: Vec<InstId>,
}

/// Post-route setup recovery: while setup fails, walk the worst path and
/// make its cells faster — high-Vth logic returns to low-Vth (trading
/// leakage for speed, exactly the Dual-Vth trade), and already-fast cells
/// are drive-upsized. Mirrors the "ECO" box of Fig. 4.
///
/// Each round times every corner library, stops when setup is met at
/// *all* of them, and otherwise walks the worst path of the *worst*
/// corner (the binding one). `libs[0]` is used for variant/drive
/// lookups; a single-corner caller passes `&[lib]`.
///
/// # Errors
///
/// Propagates combinational-cycle errors from STA.
pub fn recover_setup_at_corners(
    netlist: &mut Netlist,
    libs: &[&Library],
    parasitics: &Parasitics,
    sta_config: &StaConfig,
    derating: &Derating,
    max_rounds: usize,
) -> Result<SetupFixReport, smt_netlist::graph::CombinationalCycle> {
    use smt_sta::worst_path;
    assert!(!libs.is_empty(), "at least one corner library");
    let lib = libs[0];
    // One graph, sink cache and timing state serve the whole recovery:
    // every fix below is a same-pin variant/drive swap, so topology and
    // levels never change. Each swap is recorded in the state, and each
    // round's update re-gathers and re-times only what the swaps touched
    // at every corner library. (A future fix that inserts cells must
    // rebuild all three.)
    let graph = TimingGraph::build(netlist, lib)?;
    let mut cache = graph.build_cache(netlist);
    let mut timing = TimingState::new(
        &graph, &cache, netlist, libs, parasitics, sta_config, derating,
    );
    // The binding corner after the swaps so far: the first library with
    // the lowest WNS, with its full report.
    let worst_corner = |timing: &mut TimingState<'_>, cache: &mut SinkCache, netlist: &Netlist| {
        timing.update(cache, netlist, derating);
        let mut worst: Option<(usize, TimingReport)> = None;
        for k in 0..libs.len() {
            let t = timing.report(k, cache, netlist, derating);
            if worst.as_ref().map(|(_, w)| t.wns < w.wns).unwrap_or(true) {
                worst = Some((k, t));
            }
        }
        worst.expect("non-empty corner list")
    };
    let mut report = SetupFixReport::default();
    for _ in 0..max_rounds {
        let (k, worst) = worst_corner(&mut timing, &mut cache, netlist);
        report.final_wns_ps = worst.wns.ps();
        if worst.setup_met() {
            return Ok(report);
        }
        let path = worst_path(netlist, libs[k], &worst);
        let mut changed = 0usize;
        for inst in path {
            let cell = lib.cell(netlist.inst(inst).cell);
            if !cell.is_logic() {
                continue;
            }
            if cell.vth == VthClass::High {
                if let Some(low) = lib.variant_id(netlist.inst(inst).cell, VthClass::Low) {
                    netlist.replace_cell(inst, low, lib).expect("variant swap");
                    timing.mark_swap(&mut cache, netlist, inst);
                    report.vth_downgrades += 1;
                    report.touched.push(inst);
                    changed += 1;
                }
            } else if cell.drive < 4 {
                let next_drive = cell.drive * 2;
                let name = format!(
                    "{}_X{}_{}",
                    cell.kind.base_name(),
                    next_drive,
                    cell.vth.suffix()
                );
                if let Some(bigger) = lib.find_id(&name) {
                    netlist.replace_cell(inst, bigger, lib).expect("drive swap");
                    timing.mark_swap(&mut cache, netlist, inst);
                    report.upsizes += 1;
                    report.touched.push(inst);
                    changed += 1;
                }
            }
            if changed >= 12 {
                break; // re-time before touching more
            }
        }
        if changed == 0 {
            break;
        }
    }
    let (_, worst) = worst_corner(&mut timing, &mut cache, netlist);
    report.final_wns_ps = worst.wns.ps();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_place::{place, PlacerConfig};
    use smt_sta::analyze;

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    /// A shift register: classic hold-risk structure under skew.
    fn shift_register(lib: &Library, len: usize) -> Netlist {
        let mut n = Netlist::new("shift");
        let clk = n.add_clock("clk");
        let mut prev = n.add_input("d");
        let dff = lib.find_id("DFF_X1_L").unwrap();
        for i in 0..len {
            let q = n.add_net(&format!("q{i}"));
            let ff = n.add_instance(&format!("ff{i}"), dff, lib);
            n.connect_by_name(ff, "D", prev, lib).unwrap();
            n.connect_by_name(ff, "CK", clk, lib).unwrap();
            n.connect_by_name(ff, "Q", q, lib).unwrap();
            prev = q;
        }
        n.expose_output("z", prev);
        n
    }

    #[test]
    fn hold_fixing_converges() {
        let lib = lib();
        let mut n = shift_register(&lib, 8);
        let mut p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let cfg = StaConfig {
            clock_skew: Time::new(60.0), // CTS skew creates hold risk
            ..StaConfig::default()
        };
        let before = analyze(&n, &lib, &par, &cfg, &Derating::none()).unwrap();
        assert!(
            !before.hold_violations.is_empty(),
            "test needs violations to fix"
        );
        let report =
            fix_hold_at_corners(&mut n, &mut p, &[&lib], &par, &cfg, &Derating::none(), 6).unwrap();
        assert_eq!(report.remaining, 0, "{report:?}");
        assert!(report.buffers > 0);
        // And setup still holds (buffers only pad short paths).
        let after = analyze(&n, &lib, &par, &cfg, &Derating::none()).unwrap();
        assert!(after.setup_met(), "wns = {}", after.wns);
    }

    #[test]
    fn setup_recovery_makes_critical_cells_faster() {
        // An all-high-Vth chain misses a clock the low-Vth variant meets;
        // recovery must downgrade chain cells back to low-Vth until setup
        // closes.
        let lib = lib();
        let mut n = Netlist::new("slow");
        let clk = n.add_clock("clk");
        let mut prev = n.add_input("a");
        let inv_h = lib.find_id("INV_X1_H").unwrap();
        for i in 0..20 {
            let w = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv_h, &lib);
            n.connect_by_name(u, "A", prev, &lib).unwrap();
            n.connect_by_name(u, "Z", w, &lib).unwrap();
            prev = w;
        }
        let ff = n.add_instance("ff", lib.find_id("DFF_X1_H").unwrap(), &lib);
        n.connect_by_name(ff, "D", prev, &lib).unwrap();
        n.connect_by_name(ff, "CK", clk, &lib).unwrap();
        let q = n.add_output("q");
        n.connect_by_name(ff, "Q", q, &lib).unwrap();

        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        // Find the all-high critical delay, then demand ~70% of it.
        let probe = analyze(
            &n,
            &lib,
            &par,
            &StaConfig {
                clock_period: Time::from_ns(100.0),
                ..StaConfig::default()
            },
            &Derating::none(),
        )
        .unwrap();
        let crit = Time::from_ns(100.0) - probe.wns;
        let cfg = StaConfig {
            clock_period: crit * 0.72,
            ..StaConfig::default()
        };
        let before = analyze(&n, &lib, &par, &cfg, &Derating::none()).unwrap();
        assert!(!before.setup_met(), "test needs a violation to recover");

        let report =
            recover_setup_at_corners(&mut n, &[&lib], &par, &cfg, &Derating::none(), 30).unwrap();
        assert!(report.vth_downgrades > 0, "{report:?}");
        let after = analyze(&n, &lib, &par, &cfg, &Derating::none()).unwrap();
        assert!(after.setup_met(), "wns {} after {report:?}", after.wns);
    }

    #[test]
    fn multi_round_two_corner_recovery_is_pinned() {
        // An all-high-Vth random design under a clock it misses at the
        // slow corner: recovery runs several rounds against two corner
        // libraries, swapping cells between analyses on one kept graph
        // and sink cache. The report and the netlist it leaves are
        // pinned; any drift in the swaps or in the timing they saw moves
        // them.
        use smt_base::Fnv64;
        use smt_cells::corner::{Corner, CornerLibrary};
        use smt_circuits::gen::{random_logic, RandomLogicConfig};
        let lib = lib();
        let mut n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates: 400,
                seed: 9,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        let ids: Vec<InstId> = n.instances().map(|(id, _)| id).collect();
        for id in ids {
            if let Some(high) = lib.variant_id(n.inst(id).cell, VthClass::High) {
                n.replace_cell(id, high, &lib).expect("variant swap");
            }
        }
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let slow = CornerLibrary::build(&lib, Corner::slow());
        let probe = analyze(
            &n,
            &slow.lib,
            &par,
            &StaConfig {
                clock_period: Time::from_ns(100.0),
                ..StaConfig::default()
            },
            &Derating::none(),
        )
        .unwrap();
        let cfg = StaConfig {
            clock_period: (Time::from_ns(100.0) - probe.wns) * 0.8,
            ..StaConfig::default()
        };
        let libs = [&lib, &slow.lib];
        let report =
            recover_setup_at_corners(&mut n, &libs, &par, &cfg, &Derating::none(), 20).unwrap();
        assert!(report.touched.len() > 12, "one round only: {report:?}");
        let mut touched = Fnv64::new();
        for id in &report.touched {
            touched.write_u64(id.index() as u64);
        }
        let got = format!(
            "{} {} {:016x} {} {:016x} {:016x}",
            report.vth_downgrades,
            report.upsizes,
            report.final_wns_ps.to_bits(),
            report.touched.len(),
            touched.finish(),
            n.fingerprint()
        );
        assert_eq!(
            got,
            "55 17 40562c76d8f60f80 72 749ddff78550b8e0 f22169d7dd9d8cec"
        );
    }

    #[test]
    fn mte_distribution_buffers_high_fanout() {
        use crate::cluster::{construct_switch_structure, ClusterConfig};
        use crate::smtgen::{insert_output_holders, to_improved_mt_cells};
        use smt_circuits::gen::{random_logic, RandomLogicConfig};
        let lib = lib();
        let mut n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates: 400,
                seed: 5,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        to_improved_mt_cells(&mut n, &lib);
        insert_output_holders(&mut n, &lib);
        let mut p = place(&n, &lib, &PlacerConfig::default());
        construct_switch_structure(&mut n, &lib, &mut p, &ClusterConfig::default());
        let mte = n.find_net("mte").unwrap();
        let fanout_before = n.net(mte).loads.len();
        let report = distribute_mte(&mut n, &mut p, &lib, 12);
        assert!(fanout_before > 12, "test design has high MTE fanout");
        assert!(report.buffers > 0);
        assert!(n.net(mte).loads.len() <= 12);
        // All MTE buffers are high-Vth (must stay powered in standby).
        for (_, inst) in n.instances() {
            if inst.name.starts_with("hfb") {
                assert_eq!(lib.cell(inst.cell).vth, VthClass::High);
            }
        }
    }
}
