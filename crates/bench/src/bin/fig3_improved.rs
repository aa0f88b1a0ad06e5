//! Regenerates the paper's Fig. 3: the improved Selective-MT circuit —
//! the same example as Fig. 2, but the MT-cells share one switch
//! transistor, and output holders appear only on nets where an MT-cell
//! drives a non-MT consumer.
//!
//! ```text
//! cargo run -p smt-bench --bin fig3_improved
//! ```

use smt_base::report::Table;
use smt_base::units::Time;
use smt_cells::cell::{CellRole, VthClass};
use smt_cells::library::Library;
use smt_circuits::figures::fig_example;
use smt_core::cluster::{construct_switch_structure, ClusterConfig};
use smt_core::dualvth::{assign_dual_vth_at_corners, DualVthConfig};
use smt_core::smtgen::{insert_output_holders, to_improved_mt_cells};
use smt_netlist::netlist::NetDriver;
use smt_place::{place, PlacerConfig};
use smt_route::Parasitics;
use smt_sta::{analyze, Derating, StaConfig};

fn main() {
    let lib = Library::industrial_130nm();
    let fig = fig_example(&lib);
    let mut n = fig.netlist;

    let mut p = place(&n, &lib, &PlacerConfig::default());
    let par = Parasitics::estimate(&n, &lib, &p);
    let probe = analyze(
        &n,
        &lib,
        &par,
        &StaConfig {
            clock_period: Time::from_ns(100.0),
            ..Default::default()
        },
        &Derating::none(),
    )
    .expect("acyclic");
    let crit = Time::from_ns(100.0) - probe.wns;
    let sta_cfg = StaConfig {
        clock_period: crit * 1.15,
        ..Default::default()
    };
    assign_dual_vth_at_corners(&mut n, &[&lib], &par, &sta_cfg, &DualVthConfig::default())
        .expect("feasible");
    to_improved_mt_cells(&mut n, &lib);
    let holders = insert_output_holders(&mut n, &lib);
    let report = construct_switch_structure(&mut n, &lib, &mut p, &ClusterConfig::default());

    println!("Fig. 3: improved Selective-MT circuit\n");
    println!(
        "MT-cells: {}   shared switches: {}   output holders: {}\n",
        report.mt_cells, report.clusters, holders
    );

    // The holder rule, demonstrated per net.
    let mut t = Table::new(
        "output-holder rule per MT-driven net",
        &["net", "driver", "fanouts", "non-MT fanout?", "holder?"],
    );
    for (_net_id, net) in n.nets() {
        let Some(NetDriver::Inst(pr)) = net.driver else {
            continue;
        };
        if !lib.cell(n.inst(pr.inst).cell).is_mt() {
            continue;
        }
        let non_mt = net.loads.iter().any(|l| {
            let c = lib.cell(n.inst(l.inst).cell);
            !c.is_mt() && c.role != CellRole::Holder
        }) || !net.port_loads.is_empty();
        let has_holder = net
            .loads
            .iter()
            .any(|l| lib.cell(n.inst(l.inst).cell).role == CellRole::Holder);
        t.row_owned(vec![
            net.name.clone(),
            n.inst(pr.inst).name.clone(),
            format!("{}", net.loads.len() + net.port_loads.len()),
            if non_mt { "yes".into() } else { "no".into() },
            if has_holder {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    println!("{t}");

    // Switch sharing vs embedded.
    let embedded = smt_core::cluster::embedded_width_equivalent(&n, &lib);
    println!(
        "shared switch width: {:.1} um vs {:.1} um the conventional style would embed\n\
         ({}x reduction) — worst VGND bounce {:.1} mV against the {:.0} mV limit.",
        report.total_switch_width_um,
        embedded,
        (embedded / report.total_switch_width_um).round(),
        report.worst_bounce.millivolts(),
        ClusterConfig::default().bounce_limit.millivolts(),
    );
    let mv = n
        .instances()
        .filter(|(_, i)| lib.cell(i.cell).vth == VthClass::MtVgnd)
        .count();
    assert_eq!(mv, report.mt_cells, "census consistency");
}
