//! Switch-structure construction — the CoolPower-substitute back-end
//! optimizer at the heart of the paper.
//!
//! "The tool generates clusters of MT-cells, and all VGND ports of
//! MT-cells in one cluster are connected to the same switch transistor. It
//! also decides the size of each switch transistor, so that the voltage
//! bounce of each VGND line may not exceed the upper limit which the
//! designer specifies. The switch transistor structure is constructed so
//! that the wire length of each VGND line may not exceed an upper limit,
//! as a long VGND line tends to suffer from the crosstalk. The number of
//! MT-cell which shares the same switch transistor is also cared to
//! prevent the electromigration."
//!
//! Implementation: MT-cells are visited in a row-snake placement order and
//! grown greedily into clusters; a cell joins the current cluster only if
//! all three constraints (bounce with the best feasible switch, VGND
//! wirelength, cells-per-switch) still hold. Each closed cluster gets a
//! fresh VGND net and the smallest feasible switch placed at its centroid.

use crate::smtgen::{mt_vgnd_cells, mte_net};
use smt_base::geom::{Point, Rect};
use smt_base::units::Volt;
use smt_cells::cell::CellRole;
use smt_cells::library::Library;
use smt_netlist::netlist::{InstId, Netlist};
use smt_place::Placement;
use smt_power::{analyze_vgnd, cluster_current, ClusterBounce};

/// Constraints for switch-structure construction (the designer knobs the
/// paper describes).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// VGND voltage-bounce upper limit.
    pub bounce_limit: Volt,
    /// VGND net wirelength upper limit (crosstalk), µm.
    pub max_vgnd_length_um: f64,
    /// Maximum MT-cells sharing one switch (electromigration).
    pub max_cells_per_switch: usize,
    /// Detour factor converting cluster bbox half-perimeter into an
    /// estimated VGND net length.
    pub length_detour: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            bounce_limit: Volt::from_millivolts(50.0),
            max_vgnd_length_um: 400.0,
            max_cells_per_switch: 24,
            length_detour: 1.2,
        }
    }
}

/// Outcome of switch-structure construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchStructureReport {
    /// Clusters (= switches) created.
    pub clusters: usize,
    /// MT-cells clustered.
    pub mt_cells: usize,
    /// Total switch device width, µm — the quantity the improved technique
    /// minimises vs the conventional per-cell embedded switches.
    pub total_switch_width_um: f64,
    /// Total switch cell area, µm².
    pub switch_area_um2: f64,
    /// Worst estimated VGND bounce across clusters.
    pub worst_bounce: Volt,
    /// Worst estimated VGND net length, µm.
    pub worst_length_um: f64,
    /// Largest cluster size.
    pub largest_cluster: usize,
}

/// Removes any existing switch structure (switch instances and their VGND
/// nets' MT-side connections), leaving MT-cells with floating VGND pins.
pub fn strip_switch_structure(netlist: &mut Netlist, lib: &Library) {
    let switches: Vec<InstId> = netlist
        .instances()
        .filter(|(_, i)| lib.cell(i.cell).role == CellRole::Switch)
        .map(|(id, _)| id)
        .collect();
    for s in switches {
        netlist.remove_instance(s);
    }
    let mvs = mt_vgnd_cells(netlist, lib);
    for id in mvs {
        if let Some(pin) = lib.cell(netlist.inst(id).cell).pin_index("VGND") {
            netlist.disconnect(id, pin);
        }
    }
}

/// Estimated VGND net length for a member set: bounding box of the cells
/// (plus the switch at the centroid) half-perimeter times a detour factor.
fn est_length(points: &[Point], detour: f64) -> f64 {
    Rect::bounding(points.iter().copied())
        .map(|r| r.half_perimeter() * detour)
        .unwrap_or(0.0)
}

/// Checks the three constraints for a candidate member set; returns the
/// chosen switch cell when feasible.
fn feasible(
    netlist: &Netlist,
    lib: &Library,
    config: &ClusterConfig,
    members: &[InstId],
    points: &[Point],
) -> Option<smt_cells::cell::CellId> {
    if members.len() > config.max_cells_per_switch {
        return None;
    }
    let len = est_length(points, config.length_detour);
    if len > config.max_vgnd_length_um {
        return None;
    }
    let current = cluster_current(lib, netlist, members);
    // Wire IR eats into the bounce budget; the switch gets the rest.
    let wire_ir = Volt::new(
        current.ua() * lib.tech.wire_res(len).kohm() * 0.5 * lib.tech.vgnd_wire_res_factor * 1e-3,
    );
    let budget = config.bounce_limit - wire_ir;
    if budget.volts() <= 0.0 {
        return None;
    }
    lib.pick_switch(current, budget).filter(|&sw| {
        let spec = lib.cell(sw).switch.expect("switch");
        current.ua() <= spec.max_current.ua()
    })
}

/// Constructs the clustered switch structure (replacing whatever structure
/// exists). Returns the construction report.
///
/// # Panics
///
/// Panics if an individual MT-cell cannot be given *any* switch within the
/// bounce limit — i.e. the designer's constraints are infeasible even for
/// a one-cell cluster. Choose a wider switch set or a looser limit.
pub fn construct_switch_structure(
    netlist: &mut Netlist,
    lib: &Library,
    placement: &mut Placement,
    config: &ClusterConfig,
) -> SwitchStructureReport {
    strip_switch_structure(netlist, lib);
    let mte = mte_net(netlist);

    // Row-snake ordering over MT-cells.
    let mut cells: Vec<(InstId, Point)> = mt_vgnd_cells(netlist, lib)
        .into_iter()
        .map(|id| (id, placement.loc(id)))
        .collect();
    let row_h = lib.tech.row_height_um;
    cells.sort_by(|a, b| {
        let ra = (a.1.y / row_h) as i64;
        let rb = (b.1.y / row_h) as i64;
        ra.cmp(&rb).then_with(|| {
            let (xa, xb) = if ra % 2 == 0 {
                (a.1.x, b.1.x)
            } else {
                (b.1.x, a.1.x)
            };
            xa.total_cmp(&xb)
        })
    });

    let mut clusters: Vec<(Vec<InstId>, Vec<Point>, smt_cells::cell::CellId)> = Vec::new();
    let mut cur: Vec<InstId> = Vec::new();
    let mut cur_pts: Vec<Point> = Vec::new();
    let mut cur_switch: Option<smt_cells::cell::CellId> = None;

    for (id, pt) in cells.iter().copied() {
        let mut trial = cur.clone();
        let mut trial_pts = cur_pts.clone();
        trial.push(id);
        trial_pts.push(pt);
        match feasible(netlist, lib, config, &trial, &trial_pts) {
            Some(sw) => {
                cur = trial;
                cur_pts = trial_pts;
                cur_switch = Some(sw);
            }
            None => {
                if let Some(sw) = cur_switch.take() {
                    clusters.push((std::mem::take(&mut cur), std::mem::take(&mut cur_pts), sw));
                }
                // Start a new cluster with this cell alone.
                let alone = vec![id];
                let alone_pts = vec![pt];
                let sw = feasible(netlist, lib, config, &alone, &alone_pts).unwrap_or_else(|| {
                    panic!(
                        "switch constraints infeasible even for a single MT-cell ({})",
                        netlist.inst(id).name
                    )
                });
                cur = alone;
                cur_pts = alone_pts;
                cur_switch = Some(sw);
            }
        }
    }
    if let Some(sw) = cur_switch {
        if !cur.is_empty() {
            clusters.push((cur, cur_pts, sw));
        }
    }

    // Materialise: VGND nets + switch instances.
    let mut total_width = 0.0;
    let mut switch_area = 0.0;
    let mut largest = 0usize;
    let mut mt_total = 0usize;
    for (k, (members, pts, sw_cell)) in clusters.iter().enumerate() {
        let vg_name = netlist.fresh_net_name(&format!("vgnd{k}"));
        let vg = netlist.add_net(&vg_name);
        for &m in members {
            netlist
                .connect_by_name(m, "VGND", vg, lib)
                .expect("MV cell VGND pin");
        }
        let sw_name = netlist.fresh_inst_name(&format!("sw{k}"));
        let sw = netlist.add_instance(&sw_name, *sw_cell, lib);
        netlist
            .connect_by_name(sw, "VGND", vg, lib)
            .expect("switch VGND");
        netlist
            .connect_by_name(sw, "MTE", mte, lib)
            .expect("switch MTE");
        let centroid = Point::new(
            pts.iter().map(|p| p.x).sum::<f64>() / pts.len() as f64,
            pts.iter().map(|p| p.y).sum::<f64>() / pts.len() as f64,
        );
        placement.set_loc(sw, centroid);
        let spec = lib.cell(*sw_cell).switch.expect("switch");
        total_width += spec.width_um;
        switch_area += lib.cell(*sw_cell).area.um2();
        largest = largest.max(members.len());
        mt_total += members.len();
    }

    // Electrical report from the shared analysis path.
    let detour = config.length_detour;
    let bounces = analyze_vgnd(netlist, lib, |net| {
        let pts: Vec<Point> = netlist
            .net(net)
            .loads
            .iter()
            .map(|pr| placement.loc(pr.inst))
            .collect();
        est_length(&pts, detour)
    });
    let worst_bounce = bounces.iter().map(|b| b.bounce).fold(Volt::ZERO, Volt::max);
    let worst_length = bounces
        .iter()
        .map(|b| b.wire_length_um)
        .fold(0.0f64, f64::max);

    SwitchStructureReport {
        clusters: clusters.len(),
        mt_cells: mt_total,
        total_switch_width_um: total_width,
        switch_area_um2: switch_area,
        worst_bounce,
        worst_length_um: worst_length,
        largest_cluster: largest,
    }
}

/// Convenience: per-cluster electrical state with placement-estimated
/// lengths (used by the flow to derate STA).
pub fn cluster_state(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    detour: f64,
) -> Vec<ClusterBounce> {
    analyze_vgnd(netlist, lib, |net| {
        let pts: Vec<Point> = netlist
            .net(net)
            .loads
            .iter()
            .map(|pr| placement.loc(pr.inst))
            .collect();
        est_length(&pts, detour)
    })
}

/// Total embedded-switch width the *conventional* technique would need for
/// the same MT set — the comparison the paper's area/leakage win rests on.
pub fn embedded_width_equivalent(netlist: &Netlist, lib: &Library) -> f64 {
    netlist
        .instances()
        .filter_map(|(_, i)| {
            let c = lib.cell(i.cell);
            if c.is_mt() {
                c.mt.map(|m| {
                    if m.embedded_switch_width_um > 0.0 {
                        m.embedded_switch_width_um
                    } else {
                        // MV cell: what its MC sibling embeds.
                        lib.variant_of(c, smt_cells::cell::VthClass::MtEmbedded)
                            .and_then(|mc| mc.mt)
                            .map(|m| m.embedded_switch_width_um)
                            .unwrap_or(0.0)
                    }
                })
            } else {
                None
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smtgen::{insert_initial_switch, insert_output_holders, to_improved_mt_cells};
    use smt_circuits::gen::{random_logic, RandomLogicConfig};
    use smt_netlist::check::{analyze, LintPolicy};
    use smt_place::{place, PlacerConfig};

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    /// A random design where every logic cell becomes an MT-cell.
    fn mt_design(lib: &Library, gates: usize, seed: u64) -> (Netlist, Placement) {
        let mut n = random_logic(
            lib,
            &RandomLogicConfig {
                gates,
                seed,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        to_improved_mt_cells(&mut n, lib);
        insert_output_holders(&mut n, lib);
        let p = place(&n, lib, &PlacerConfig::default());
        (n, p)
    }

    #[test]
    fn clustering_satisfies_all_constraints() {
        let lib = lib();
        let (mut n, mut p) = mt_design(&lib, 400, 11);
        let cfg = ClusterConfig::default();
        let report = construct_switch_structure(&mut n, &lib, &mut p, &cfg);
        assert!(report.clusters >= 2, "{report:?}");
        assert!(report.largest_cluster <= cfg.max_cells_per_switch);
        assert!(
            report.worst_length_um <= cfg.max_vgnd_length_um * 1.01,
            "{report:?}"
        );
        assert!(
            report.worst_bounce.volts() <= cfg.bounce_limit.volts() * 1.01,
            "worst bounce {} vs limit {}",
            report.worst_bounce,
            cfg.bounce_limit
        );
        // Structure is structurally valid.
        let lint = analyze(&n, &lib, &LintPolicy::signoff());
        assert!(lint.is_clean(), "{lint:?}");
        // Every MT cell is in exactly one cluster.
        assert_eq!(report.mt_cells, mt_vgnd_cells(&n, &lib).len());
    }

    #[test]
    fn shared_structure_beats_embedded_width() {
        // The headline physics: Σ shared switch widths << Σ embedded.
        let lib = lib();
        let (mut n, mut p) = mt_design(&lib, 400, 13);
        let report = construct_switch_structure(&mut n, &lib, &mut p, &ClusterConfig::default());
        let embedded = embedded_width_equivalent(&n, &lib);
        assert!(
            report.total_switch_width_um < embedded * 0.6,
            "shared {} vs embedded {}",
            report.total_switch_width_um,
            embedded
        );
    }

    #[test]
    fn replaces_initial_single_switch() {
        let lib = lib();
        let (mut n, mut p) = mt_design(&lib, 200, 17);
        insert_initial_switch(&mut n, &lib, Volt::from_millivolts(40.0));
        let before_switches = n
            .instances()
            .filter(|(_, i)| lib.cell(i.cell).role == CellRole::Switch)
            .count();
        assert_eq!(before_switches, 1);
        let report = construct_switch_structure(&mut n, &lib, &mut p, &ClusterConfig::default());
        let after_switches = n
            .instances()
            .filter(|(_, i)| lib.cell(i.cell).role == CellRole::Switch)
            .count();
        assert_eq!(after_switches, report.clusters);
        assert!(report.clusters > 1);
    }

    #[test]
    fn tighter_bounce_means_more_switch_width() {
        let lib = lib();
        let (mut n1, mut p1) = mt_design(&lib, 300, 19);
        let (mut n2, mut p2) = mt_design(&lib, 300, 19);
        let loose = construct_switch_structure(
            &mut n1,
            &lib,
            &mut p1,
            &ClusterConfig {
                bounce_limit: Volt::from_millivolts(80.0),
                ..ClusterConfig::default()
            },
        );
        let tight = construct_switch_structure(
            &mut n2,
            &lib,
            &mut p2,
            &ClusterConfig {
                bounce_limit: Volt::from_millivolts(20.0),
                ..ClusterConfig::default()
            },
        );
        assert!(
            tight.total_switch_width_um > loose.total_switch_width_um,
            "tight {} vs loose {}",
            tight.total_switch_width_um,
            loose.total_switch_width_um
        );
    }

    #[test]
    fn em_cap_limits_cluster_size() {
        let lib = lib();
        let (mut n, mut p) = mt_design(&lib, 300, 23);
        let report = construct_switch_structure(
            &mut n,
            &lib,
            &mut p,
            &ClusterConfig {
                max_cells_per_switch: 4,
                ..ClusterConfig::default()
            },
        );
        assert!(report.largest_cluster <= 4);
        assert!(report.clusters >= report.mt_cells / 4);
    }
}
