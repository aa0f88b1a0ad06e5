//! Flow signoff report: one text block combining the route congestion
//! summary, the stage walkthrough, the timing report (top paths), the
//! standby power breakdown, the cluster electrical state and the
//! crosstalk exposure — the "final layout" readout of Fig. 4.

use crate::crosstalk::{analyze_crosstalk, worst_noise, CrosstalkConfig};
use crate::flow::FlowResult;
use smt_cells::library::Library;
use smt_power::{render_standby_report, StateSource};
use smt_sta::render_report;
use std::fmt::Write as _;

/// Renders the complete signoff view of a flow result.
pub fn render_signoff(result: &FlowResult, lib: &Library, top_paths: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== signoff: {} ===", result.netlist.name);
    let _ = writeln!(
        out,
        "clock {} | area {} | standby {} | verification {}",
        result.clock_period,
        result.area,
        result.standby_leakage,
        if result.verify.passed() {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let eq = &result.verify.equivalence;
    let _ = writeln!(
        out,
        "equiv: {} outputs ({} fraig-proven), {} cycles x {} lanes{}{}",
        eq.outputs_compared,
        eq.outputs_proven,
        eq.cycles,
        eq.lanes,
        if eq.truncated {
            " [truncated by mismatch cap]"
        } else {
            ""
        },
        match eq.mismatches.first() {
            Some(m) => format!(", {} mismatches (first: {m})", eq.mismatches.len()),
            None => String::new(),
        }
    );
    let _ = writeln!(
        out,
        "route: overflow {} tracks over capacity, peak edge utilization {:.2}",
        result.overflow, result.peak_utilization
    );

    let _ = writeln!(out, "\n-- flow stages --");
    for s in &result.stages {
        let _ = writeln!(
            out,
            "  {:<48} cells {:>5}  area {:>10.1}  leak {:>9.4}{}",
            s.stage,
            s.cells,
            s.area.um2(),
            s.leak_quick.ua(),
            s.wns
                .map(|w| format!("  wns {:.1}", w.ps()))
                .unwrap_or_default()
        );
    }

    // Timing: the top paths of the signoff analysis (extracted RC).
    let _ = writeln!(out, "\n-- timing --");
    let _ = write!(
        out,
        "{}",
        render_report(&result.netlist, lib, &result.timing, top_paths)
    );

    let _ = writeln!(out, "-- power --");
    let _ = write!(
        out,
        "{}",
        render_standby_report(&result.netlist, lib, StateSource::Mean, 5)
    );

    // Per-corner signoff table (multi-corner configurations only, so the
    // single-corner report text is byte-identical to the original).
    if result.corner_signoff.len() > 1 {
        let _ = writeln!(out, "-- corners --");
        let _ = writeln!(
            out,
            "  {:<8} {:>6} {:>12} {:>12} {:>6} {:>14} {:>14}",
            "corner", "checks", "wns ps", "tns ps", "hold", "standby uA", "active uA"
        );
        for c in &result.corner_signoff {
            let checks = match (c.corner.check_setup, c.corner.check_hold) {
                (true, true) => "S+H",
                (true, false) => "S",
                (false, true) => "H",
                (false, false) => "-",
            };
            let _ = writeln!(
                out,
                "  {:<8} {:>6} {:>12.1} {:>12.1} {:>6} {:>14.6} {:>14.6}",
                c.corner.name,
                checks,
                c.wns.ps(),
                c.tns.ps(),
                c.hold_violations,
                c.standby_leakage.ua(),
                c.active_leakage.ua(),
            );
        }
    }

    if let Some(cluster) = &result.cluster {
        let _ = writeln!(out, "-- MTCMOS --");
        let _ = writeln!(
            out,
            "  {} clusters / {} MT-cells, switch width {:.1} um (area {:.1} um^2)",
            cluster.clusters,
            cluster.mt_cells,
            cluster.total_switch_width_um,
            cluster.switch_area_um2
        );
        let _ = writeln!(
            out,
            "  worst bounce {:.1} mV, worst VGND length {:.0} um, largest cluster {}",
            cluster.worst_bounce.millivolts(),
            cluster.worst_length_um,
            cluster.largest_cluster
        );
        let xtalk = analyze_crosstalk(
            &result.netlist,
            lib,
            &result.placement,
            &CrosstalkConfig::default(),
        );
        let _ = writeln!(
            out,
            "  VGND crosstalk: worst injected noise {:.2} mV over {} nets",
            worst_noise(&xtalk).millivolts(),
            xtalk.len()
        );
        // Mode-transition cost.
        let placement = &result.placement;
        let netlist = &result.netlist;
        let wake =
            smt_power::analyze_wakeup(netlist, lib, |net| placement.net_hpwl(netlist, net) * 1.2);
        let saved = result.active_leakage - result.standby_leakage;
        let _ = writeln!(
            out,
            "  wake-up: {:.1} fJ per sleep cycle, worst latency {:.1} ps, break-even standby {:.2} us",
            wake.total_energy_fj,
            wake.worst_latency.ps(),
            wake.break_even(saved, lib.tech.vdd).ps() / 1e6,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow, FlowConfig, Technique};
    use smt_cells::library::Library;
    use smt_circuits::rtl::circuit_b_rtl_sized;

    #[test]
    fn signoff_report_covers_all_sections() {
        let lib = Library::industrial_130nm();
        let r = run_flow(
            &circuit_b_rtl_sized(8),
            &lib,
            &FlowConfig {
                technique: Technique::ImprovedSmt,
                ..FlowConfig::default()
            },
        )
        .unwrap();
        let text = render_signoff(&r, &lib, 2);
        for needle in [
            "=== signoff",
            "route: overflow",
            "flow stages",
            "-- timing --",
            "endpoint:",
            "-- power --",
            "standby power report",
            "-- MTCMOS --",
            "crosstalk",
        ] {
            assert!(text.contains(needle), "missing `{needle}`:\n{text}");
        }
    }

    #[test]
    fn dual_vth_signoff_skips_mtcmos_section() {
        let lib = Library::industrial_130nm();
        let r = run_flow(
            &circuit_b_rtl_sized(8),
            &lib,
            &FlowConfig {
                technique: Technique::DualVth,
                ..FlowConfig::default()
            },
        )
        .unwrap();
        let text = render_signoff(&r, &lib, 1);
        assert!(!text.contains("-- MTCMOS --"));
        assert!(text.contains("-- power --"));
    }
}
