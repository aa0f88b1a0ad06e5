//! Post-route switch re-optimization.
//!
//! "After it is extracted, the re-optimization of the switch transistor
//! structure is executed ... The size of each switch transistor is
//! adjusted, so that the voltage bounce of each VGND line may not exceed
//! the upper limit." Pre-route clustering worked from estimated wire RC;
//! once real routed lengths exist, some clusters bounce more than
//! estimated (upsize their switch) and some were over-provisioned
//! (downsize, recovering area).

use smt_base::units::Volt;
use smt_cells::library::Library;
use smt_netlist::netlist::{NetId, Netlist};
use smt_power::analyze_vgnd;

/// Outcome of re-optimization.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReoptReport {
    /// Switches made wider (bounce violations fixed).
    pub upsized: usize,
    /// Switches made narrower (area recovered).
    pub downsized: usize,
    /// Switch width change, µm (negative = net area recovered).
    pub width_delta_um: f64,
    /// Clusters whose bounce still exceeds the limit with the widest
    /// switch available (requires re-clustering; 0 in healthy flows).
    pub unresolved: usize,
}

/// Re-sizes every cluster's switch against post-route VGND lengths,
/// for the *binding* corner — the one demanding the widest switch once
/// its own on-resistance, wire resistance and peak current are accounted
/// for (the slow corner's resistive devices bounce hardest). A cluster
/// is `unresolved` if *any* corner cannot be satisfied by the widest
/// switch available. `libs[0]` performs the netlist edits; cell ids are
/// shared across corner libraries, and a single-corner caller passes
/// `&[lib]`.
///
/// `net_length` should come from extraction
/// ([`smt_route::Parasitics::extract`], via `|n| par.net(n).length_um`).
pub fn reoptimize_switches_at_corners(
    netlist: &mut Netlist,
    libs: &[&Library],
    bounce_limit: Volt,
    net_length: impl Fn(NetId) -> f64,
) -> ReoptReport {
    assert!(!libs.is_empty(), "at least one corner library");
    let lib = libs[0];
    // Cluster structure is identical at every corner (it depends only on
    // the netlist); electrical state differs, so analyze each corner and
    // zip the cluster lists.
    let per_corner: Vec<_> = libs
        .iter()
        .map(|l| analyze_vgnd(netlist, l, &net_length))
        .collect();
    let mut report = ReoptReport::default();
    for (ci, c) in per_corner[0].iter().enumerate() {
        let old_spec = lib
            .cell(netlist.inst(c.switch).cell)
            .switch
            .expect("switch cell");
        // Pick per corner, then keep the widest requirement; any corner
        // that cannot be satisfied at all marks the cluster unresolved.
        let mut pick: Option<smt_cells::cell::CellId> = None;
        let mut infeasible = false;
        for (l, clusters) in libs.iter().zip(&per_corner) {
            let cc = &clusters[ci];
            debug_assert_eq!(cc.switch, c.switch, "cluster order differs across corners");
            let wire_ir = Volt::new(cc.current.ua() * cc.wire_res.kohm() * 1e-3);
            let budget = bounce_limit - wire_ir;
            let corner_pick = if budget.volts() <= 0.0 {
                None
            } else {
                l.pick_switch(cc.current, budget)
            };
            match corner_pick {
                Some(id) => {
                    let w = lib.cell(id).switch.expect("switch cell").width_um;
                    let cur = pick.map(|p| lib.cell(p).switch.expect("switch").width_um);
                    if cur.map(|cw| w > cw).unwrap_or(true) {
                        pick = Some(id);
                    }
                }
                None => infeasible = true,
            }
        }
        match (infeasible, pick) {
            (false, Some(new_id)) => {
                let new_spec = lib.cell(new_id).switch.expect("switch cell");
                if (new_spec.width_um - old_spec.width_um).abs() < 1e-9 {
                    continue;
                }
                if new_spec.width_um > old_spec.width_um {
                    report.upsized += 1;
                } else {
                    report.downsized += 1;
                }
                report.width_delta_um += new_spec.width_um - old_spec.width_um;
                netlist
                    .replace_cell(c.switch, new_id, lib)
                    .expect("switch cells share pin names");
            }
            _ => {
                // Use the widest switch and flag for re-clustering.
                let widest = *lib.switch_cells().last().expect("switches exist");
                let widest_spec = lib.cell(widest).switch.expect("switch");
                if widest_spec.width_um > old_spec.width_um {
                    report.upsized += 1;
                    report.width_delta_um += widest_spec.width_um - old_spec.width_um;
                    netlist
                        .replace_cell(c.switch, widest, lib)
                        .expect("switch cells share pin names");
                }
                report.unresolved += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{construct_switch_structure, ClusterConfig};
    use crate::smtgen::{insert_output_holders, to_improved_mt_cells};
    use smt_circuits::gen::{random_logic, RandomLogicConfig};
    use smt_place::{place, PlacerConfig};

    fn setup() -> (Library, Netlist, smt_place::Placement) {
        let lib = Library::industrial_130nm();
        let mut n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates: 300,
                seed: 31,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        to_improved_mt_cells(&mut n, &lib);
        insert_output_holders(&mut n, &lib);
        let mut p = place(&n, &lib, &PlacerConfig::default());
        construct_switch_structure(&mut n, &lib, &mut p, &ClusterConfig::default());
        (lib, n, p)
    }

    #[test]
    fn longer_real_wires_force_upsizing() {
        let (lib, mut n, _p) = setup();
        // Pretend routing tripled every VGND length vs the estimate.
        let r =
            reoptimize_switches_at_corners(&mut n, &[&lib], Volt::from_millivolts(50.0), |_| 900.0);
        assert!(r.upsized > 0, "{r:?}");
        assert!(r.width_delta_um > 0.0);
        // After upsizing, bounce is within limits again.
        let after = analyze_vgnd(&n, &lib, |_| 900.0);
        let ok = after.iter().filter(|c| c.bounce.volts() <= 0.0501).count();
        assert!(ok + r.unresolved >= after.len(), "{r:?}");
    }

    #[test]
    fn shorter_real_wires_recover_area() {
        let (lib, mut n, _p) = setup();
        // Real lengths shorter than the estimate: allow downsizing.
        let r =
            reoptimize_switches_at_corners(&mut n, &[&lib], Volt::from_millivolts(50.0), |_| 1.0);
        assert!(r.downsized > 0, "{r:?}");
        assert!(r.width_delta_um < 0.0);
        assert_eq!(r.unresolved, 0);
    }

    #[test]
    fn idempotent_when_lengths_match() {
        let (lib, mut n, p) = setup();
        let detour = ClusterConfig::default().length_detour;
        let len = |net: smt_netlist::netlist::NetId| {
            let pts: Vec<smt_base::geom::Point> =
                n.net(net).loads.iter().map(|pr| p.loc(pr.inst)).collect();
            smt_base::geom::Rect::bounding(pts.iter().copied())
                .map(|r| r.half_perimeter() * detour)
                .unwrap_or(0.0)
        };
        let lens: Vec<f64> = n.nets().map(|(id, _)| len(id)).collect();
        let r =
            reoptimize_switches_at_corners(&mut n, &[&lib], Volt::from_millivolts(50.0), |id| {
                lens[id.index()]
            });
        // Same lengths the clusterer used: at most trivial adjustments.
        assert_eq!(r.upsized, 0, "{r:?}");
    }
}
