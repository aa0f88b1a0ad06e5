//! Human-readable timing reports: top-K worst paths with per-stage
//! breakdown, in the spirit of `report_timing`.
//!
//! Every figure comes from the [`TimingReport`] being rendered: stage
//! arrivals are its per-net arrivals and slacks its per-net slacks, so
//! the report can never disagree with the analysis it describes.

use crate::analysis::{trace_back, TimingReport};
use smt_base::units::Time;
use smt_cells::library::Library;
use smt_netlist::netlist::{InstId, NetDriver, NetId, Netlist, PortDir};
use std::fmt::Write as _;

/// One stage of a reported path.
#[derive(Debug, Clone)]
pub struct PathStage {
    /// Driving instance (None for a launching input port).
    pub inst: Option<InstId>,
    /// The net this stage drives.
    pub net: NetId,
    /// Display name (instance output pin or port).
    pub what: String,
    /// Cell type name, if an instance.
    pub cell: String,
    /// Stage delay: this stage's arrival minus the previous stage's (the
    /// incoming wire plus the cell arc).
    pub delay: Time,
    /// Arrival at this stage's driver pin (the report's arrival of
    /// [`PathStage::net`]).
    pub arrival: Time,
}

/// A reported timing path.
#[derive(Debug, Clone)]
pub struct ReportedPath {
    /// Endpoint description (FF `D` pin or output port).
    pub endpoint: String,
    /// Slack at the endpoint.
    pub slack: Time,
    /// Stages, launch first.
    pub stages: Vec<PathStage>,
}

impl ReportedPath {
    /// Renders the path like a classic STA report block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "endpoint: {}   slack: {}", self.endpoint, self.slack);
        let _ = writeln!(
            out,
            "  {:<28} {:<12} {:>10} {:>12}",
            "point", "cell", "delay", "arrival"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<28} {:<12} {:>10.2} {:>12.2}",
                s.what,
                s.cell,
                s.delay.ps(),
                s.arrival.ps()
            );
        }
        out
    }
}

/// Collects the `k` worst setup paths of a timed design.
///
/// Endpoints are ranked by slack; for each, the path is traced backwards
/// through the worst-arrival fan-in (the walk
/// [`worst_path`](crate::analysis::worst_path) uses), then reported
/// launch-first with the analysis's own arrivals.
pub fn worst_paths(
    netlist: &Netlist,
    lib: &Library,
    report: &TimingReport,
    k: usize,
) -> Vec<ReportedPath> {
    // Endpoint list: (slack, endpoint net, description).
    let mut endpoints: Vec<(Time, NetId, String)> = Vec::new();
    for (_, port) in netlist.ports() {
        if port.dir == PortDir::Output {
            endpoints.push((
                report.slack(port.net),
                port.net,
                format!("output port {}", port.name),
            ));
        }
    }
    for (_, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if !cell.is_sequential() {
            continue;
        }
        if let Some(dp) = cell.pin_index("D") {
            if let Some(dnet) = inst.net_on(dp) {
                endpoints.push((
                    report.slack(dnet),
                    dnet,
                    format!("{}/D ({})", inst.name, cell.name),
                ));
            }
        }
    }
    endpoints.sort_by(|a, b| a.0.total_cmp(&b.0));
    endpoints.truncate(k);

    endpoints
        .into_iter()
        .map(|(slack, net, endpoint)| ReportedPath {
            endpoint,
            slack,
            stages: trace(netlist, lib, report, net),
        })
        .collect()
}

fn trace(
    netlist: &Netlist,
    lib: &Library,
    report: &TimingReport,
    endpoint: NetId,
) -> Vec<PathStage> {
    let mut stages = Vec::new();
    let mut prev = Time::ZERO;
    for net in trace_back(netlist, lib, report, endpoint).into_iter().rev() {
        let (inst, what, cell) = match netlist.net(net).driver {
            Some(NetDriver::Port(p)) => (
                None,
                format!("input port {}", netlist.port(p).name),
                String::new(),
            ),
            Some(NetDriver::Inst(pr)) => {
                let inst = netlist.inst(pr.inst);
                let cell = lib.cell(inst.cell);
                (
                    Some(pr.inst),
                    format!("{}/{}", inst.name, cell.pins[pr.pin].name),
                    cell.name.clone(),
                )
            }
            None => continue,
        };
        let arrival = report.arrival[net.index()];
        stages.push(PathStage {
            inst,
            net,
            what,
            cell,
            delay: arrival - prev,
            arrival,
        });
        prev = arrival;
    }
    stages
}

/// Renders a summary header plus the top-K paths as one text report.
pub fn render_report(netlist: &Netlist, lib: &Library, report: &TimingReport, k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timing report: clock {} | wns {} | tns {} | hold violations {}",
        report.clock_period,
        report.wns,
        report.tns,
        report.hold_violations.len()
    );
    for p in worst_paths(netlist, lib, report, k) {
        let _ = writeln!(out, "{}", p.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, Derating, StaConfig};
    use smt_place::{place, PlacerConfig};
    use smt_route::Parasitics;

    fn chain(lib: &Library, len: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let clk = n.add_clock("clk");
        let mut prev = n.add_input("a");
        let inv = lib.find_id("INV_X1_L").unwrap();
        for i in 0..len {
            let w = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv, lib);
            n.connect_by_name(u, "A", prev, lib).unwrap();
            n.connect_by_name(u, "Z", w, lib).unwrap();
            prev = w;
        }
        let q = n.add_output("q");
        let ff = n.add_instance("ff", lib.find_id("DFF_X1_H").unwrap(), lib);
        n.connect_by_name(ff, "D", prev, lib).unwrap();
        n.connect_by_name(ff, "CK", clk, lib).unwrap();
        n.connect_by_name(ff, "Q", q, lib).unwrap();
        n
    }

    #[test]
    fn report_contains_whole_chain() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 8);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let cfg = StaConfig::default();
        let r = analyze(&n, &lib, &par, &cfg, &Derating::none()).unwrap();
        let paths = worst_paths(&n, &lib, &r, 2);
        assert!(!paths.is_empty());
        let worst = &paths[0];
        assert!(worst.endpoint.contains("ff/D"), "{}", worst.endpoint);
        // Launch stage + 8 inverters.
        assert!(worst.stages.len() >= 9, "stages: {}", worst.stages.len());
        // Arrival is monotone along the path.
        for w in worst.stages.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        let text = worst.render();
        assert!(text.contains("u7/Z"));
        assert!(text.contains("INV_X1_L"));
    }

    #[test]
    fn render_report_has_header_and_paths() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 4);
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let cfg = StaConfig::default();
        let r = analyze(&n, &lib, &par, &cfg, &Derating::none()).unwrap();
        let text = render_report(&n, &lib, &r, 3);
        assert!(text.contains("timing report"));
        assert!(text.contains("wns"));
        assert!(text.contains("endpoint:"));
    }

    #[test]
    fn endpoint_ranking_is_by_slack() {
        let lib = Library::industrial_130nm();
        // Two chains of different depth to two FFs.
        let mut n = Netlist::new("two");
        let clk = n.add_clock("clk");
        let inv = lib.find_id("INV_X1_L").unwrap();
        for (tag, len) in [("deep", 12), ("shal", 2)] {
            let mut prev = n.add_input(&format!("{tag}_in"));
            for i in 0..len {
                let w = n.add_net(&format!("{tag}_w{i}"));
                let u = n.add_instance(&format!("{tag}_u{i}"), inv, &lib);
                n.connect_by_name(u, "A", prev, &lib).unwrap();
                n.connect_by_name(u, "Z", w, &lib).unwrap();
                prev = w;
            }
            let q = n.add_output(&format!("{tag}_q"));
            let ff = n.add_instance(&format!("{tag}_ff"), lib.find_id("DFF_X1_H").unwrap(), &lib);
            n.connect_by_name(ff, "D", prev, &lib).unwrap();
            n.connect_by_name(ff, "CK", clk, &lib).unwrap();
            n.connect_by_name(ff, "Q", q, &lib).unwrap();
        }
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let cfg = StaConfig::default();
        let r = analyze(&n, &lib, &par, &cfg, &Derating::none()).unwrap();
        let paths = worst_paths(&n, &lib, &r, 4);
        assert!(
            paths[0].endpoint.contains("deep_ff"),
            "{}",
            paths[0].endpoint
        );
        assert!(paths[0].slack < paths.last().unwrap().slack);
    }

    #[test]
    fn path_arrivals_and_slacks_are_the_analysis_figures() {
        // The report prints the analysis it was handed: every stage's
        // arrival is the STA arrival of the net it drives (propagated
        // slews, per-sink wire delays), and every path's slack is the STA
        // slack of its endpoint, on both endpoints of each chain.
        let lib = Library::industrial_130nm();
        for len in [4usize, 8, 16] {
            let n = chain(&lib, len);
            let p = place(&n, &lib, &PlacerConfig::default());
            let par = Parasitics::estimate(&n, &lib, &p);
            let r = analyze(&n, &lib, &par, &StaConfig::default(), &Derating::none()).unwrap();
            let paths = worst_paths(&n, &lib, &r, 2);
            assert_eq!(paths.len(), 2, "{len} inverters: ff/D and port q");
            for path in &paths {
                let end = path.stages.last().unwrap().net;
                assert_eq!(
                    path.slack,
                    r.slack(end),
                    "{len} inverters: {}",
                    path.endpoint
                );
                for s in &path.stages {
                    assert_eq!(
                        s.arrival,
                        r.arrival[s.net.index()],
                        "{len} inverters: {}",
                        s.what
                    );
                }
            }
            let d = paths.iter().find(|p| p.endpoint.contains("ff/D")).unwrap();
            let d_net = n.find_net(&format!("w{}", len - 1)).unwrap();
            assert_eq!(d.stages.len(), len + 1, "input port + {len} inverters");
            assert_eq!(d.stages.last().unwrap().net, d_net);
            assert_eq!(d.slack, r.slack(d_net));
        }
    }
}
