//! Regenerates the paper's Fig. 2: the conventional Selective-MT circuit —
//! MT-cells (each with an embedded switch) on the critical path, high-Vth
//! cells elsewhere, on the 7-flip-flop example the figure draws.
//!
//! ```text
//! cargo run -p smt-bench --bin fig2_conventional
//! ```

use smt_base::report::Table;
use smt_base::units::Time;
use smt_cells::cell::VthClass;
use smt_cells::library::Library;
use smt_circuits::figures::fig_example;
use smt_core::dualvth::{assign_dual_vth_at_corners, DualVthConfig};
use smt_core::smtgen::to_conventional_smt;
use smt_place::{place, PlacerConfig};
use smt_route::Parasitics;
use smt_sta::{analyze, Derating, StaConfig};

fn main() {
    let lib = Library::industrial_130nm();
    let fig = fig_example(&lib);
    let mut n = fig.netlist;

    // Assign Vth with the clock chosen so the drawn critical path stays
    // low-Vth (as in the figure), then apply the conventional transform.
    let p = place(&n, &lib, &PlacerConfig::default());
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
    let rep = to_conventional_smt(&mut n, &lib);

    println!(
        "Fig. 2: conventional Selective-MT circuit ({} MT-cells inserted)\n",
        rep.converted
    );
    let mut t = Table::new(
        "instance roles after the conventional transform",
        &["instance", "cell", "class", "on drawn critical path"],
    );
    for (id, inst) in n.instances() {
        let cell = lib.cell(inst.cell);
        if cell.is_sequential() {
            continue;
        }
        t.row_owned(vec![
            inst.name.clone(),
            cell.name.clone(),
            cell.vth.to_string(),
            if fig.critical.contains(&id) {
                "yes".into()
            } else {
                "".into()
            },
        ]);
    }
    println!("{t}");

    let mc = n
        .instances()
        .filter(|(_, i)| lib.cell(i.cell).vth == VthClass::MtEmbedded)
        .count();
    let mte = n.find_net("mte").expect("MTE net exists");
    println!(
        "MT-cells: {mc}; each carries its own embedded switch and holder;\n\
         the MTE net fans out to {} embedded switches (one per MT-cell) —\n\
         no separate switch or holder instances exist in this style.",
        n.net(mte).loads.len()
    );
}
