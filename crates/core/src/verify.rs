//! Final verification (the last box of Fig. 4): structural lint,
//! active-mode functional equivalence against the golden netlist, and a
//! standby-safety check that no powered cell is left staring at a
//! floating net — the failure mode the output holders exist to prevent.

use smt_cells::cell::CellRole;
use smt_cells::library::Library;
use smt_netlist::check::{analyze, LintPolicy, LintReport};
use smt_netlist::graph::CombinationalCycle;
use smt_netlist::netlist::{Netlist, PortDir};
use smt_sim::{
    check_equivalence, check_equivalence_cached, EquivCache, EquivOptions, EquivReport, Mode,
    Simulator, Value,
};

/// Combined verification outcome.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Static-analysis report under the signoff policy (full rule
    /// catalog, MT-wiring rules armed). Any `Error` finding fails
    /// verification; warnings and infos ride along as health counters
    /// for the suite rows.
    pub lint: LintReport,
    /// Functional equivalence result (active mode).
    pub equivalence: EquivReport,
    /// Powered-cell inputs observed floating in standby (instance, pin
    /// name). Empty = the holder rule did its job.
    pub floating_in_standby: Vec<(String, String)>,
}

impl VerifyReport {
    /// True when all three checks pass.
    pub fn passed(&self) -> bool {
        self.lint.is_clean()
            && self.equivalence.is_equivalent()
            && self.floating_in_standby.is_empty()
    }
}

/// Verification error (simulation setup failure).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "verification error: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Mirrors onto `reference` any standby-control input port the SMT
/// transforms added to `dut` (today just `mte`), so port-name matching
/// in equivalence checks succeeds. The one rule every pre- vs post-flow
/// comparison must apply — [`verify`], the suite batch driver and the
/// equivalence tests all share this helper.
pub fn mirror_control_ports(reference: &mut Netlist, dut: &Netlist) {
    if dut.find_net("mte").is_some() && reference.find_net("mte").is_none() {
        reference.add_input("mte");
    }
}

/// The standby snapshot signoff checks and prices: the fixed
/// alternating input vector (every other non-clock input high, starting
/// with the first), every flip-flop at 0, the design gated
/// (`Mode::Standby`) and propagated. [`verify`] looks for floating
/// powered inputs in it, and the flow's signoff prices standby leakage
/// from the same snapshot.
///
/// # Errors
///
/// The combinational cycle that keeps `netlist` from being simulated.
pub(crate) fn standby_snapshot(
    netlist: &Netlist,
    lib: &Library,
) -> Result<Simulator, CombinationalCycle> {
    let mut sim = Simulator::new(netlist, lib)?;
    for (i, (_, port)) in netlist
        .ports()
        .filter(|(_, p)| p.dir == PortDir::Input && !p.is_clock)
        .enumerate()
    {
        sim.set_input(port.net, Value::from_bool(i % 2 == 0));
    }
    for (id, inst) in netlist.instances() {
        if lib.cell(inst.cell).is_sequential() {
            sim.set_ff_state(id, Value::Zero);
        }
    }
    sim.set_mode(Mode::Standby);
    sim.propagate(netlist, lib);
    Ok(sim)
}

fn simulation_error(e: impl std::fmt::Display) -> VerifyError {
    VerifyError {
        message: e.to_string(),
    }
}

/// Runs the full verification suite.
///
/// `golden` is the pre-transform netlist (after synthesis, before any Vth
/// assignment); the DUT is the final Selective-MT netlist. The `mte` port
/// added by the transforms is tolerated in port matching.
///
/// # Errors
///
/// [`VerifyError`] when either netlist cannot be simulated.
pub fn verify(
    golden: &Netlist,
    dut: &Netlist,
    lib: &Library,
    cycles: usize,
    seed: u64,
) -> Result<VerifyReport, VerifyError> {
    let standby = standby_snapshot(dut, lib).map_err(simulation_error)?;
    verify_inner(golden, dut, lib, cycles, seed, &standby, None)
}

/// [`verify`] through an [`EquivCache`] verdict memo: the equivalence
/// step replays the stored verdict of every residue cone whose DUT
/// fingerprint is unchanged, and the report — digest included — stays
/// bit-identical to the uncached run. A different golden or different
/// options empty the memo (correct, just not incremental).
///
/// # Errors
///
/// See [`verify`].
pub fn verify_cached(
    golden: &Netlist,
    dut: &Netlist,
    lib: &Library,
    cycles: usize,
    seed: u64,
    cache: &mut EquivCache,
) -> Result<VerifyReport, VerifyError> {
    let standby = standby_snapshot(dut, lib).map_err(simulation_error)?;
    verify_inner(golden, dut, lib, cycles, seed, &standby, Some(cache))
}

/// [`verify`] against a prebuilt [`standby_snapshot`] of `dut`, with an
/// optional verdict memo for the equivalence step.
pub(crate) fn verify_inner(
    golden: &Netlist,
    dut: &Netlist,
    lib: &Library,
    cycles: usize,
    seed: u64,
    standby: &Simulator,
    cache: Option<&mut EquivCache>,
) -> Result<VerifyReport, VerifyError> {
    // 1. Static analysis under the signoff policy (full catalog, strict
    // MT wiring). This pre-filters equivalence checking: a structural
    // error here is a transform bug, reported long before the
    // simulation-based comparison would trip over its symptoms.
    let lint = analyze(dut, lib, &LintPolicy::signoff());

    // 2. Active-mode equivalence. Give the golden design an `mte` port if
    // the DUT grew one, so the port sets match.
    let mut golden2 = golden.clone();
    mirror_control_ports(&mut golden2, dut);
    let equivalence = match cache {
        Some(cache) => check_equivalence_cached(
            &golden2,
            dut,
            lib,
            &EquivOptions {
                cycles,
                seed,
                ..EquivOptions::default()
            },
            cache,
        ),
        None => check_equivalence(&golden2, dut, lib, cycles, seed),
    }
    .map_err(simulation_error)?;

    // 3. Standby safety: in the gated standby snapshot, look for
    // powered cells with X inputs.
    let mut floating_in_standby = Vec::new();
    for (_, inst) in dut.instances() {
        let cell = lib.cell(inst.cell);
        // Powered consumers: plain logic, FFs. (MT cells are gated; their
        // inputs floating costs nothing. Holders/switches are the gating
        // fabric itself. Clock buffers see the stopped clock.)
        let powered = match cell.role {
            CellRole::Logic => !cell.is_mt(),
            CellRole::Sequential => true,
            _ => false,
        };
        if !powered {
            continue;
        }
        let pins: Vec<usize> = if cell.is_sequential() {
            cell.pin_index("D").into_iter().collect()
        } else {
            cell.logic_input_pins()
        };
        for pin in pins {
            if let Some(net) = inst.net_on(pin) {
                if standby.value(net) == Value::X {
                    floating_in_standby.push((inst.name.clone(), cell.pins[pin].name.clone()));
                }
            }
        }
    }

    Ok(VerifyReport {
        lint,
        equivalence,
        floating_in_standby,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smtgen::{insert_initial_switch, insert_output_holders, to_improved_mt_cells};
    use smt_base::units::Volt;

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    fn design(lib: &Library) -> Netlist {
        let mut n = Netlist::new("d");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let w = n.add_net("w");
        let z = n.add_output("z");
        let g1 = n.add_instance("g1", lib.find_id("ND2_X1_L").unwrap(), lib);
        let g2 = n.add_instance("g2", lib.find_id("INV_X1_H").unwrap(), lib);
        n.connect_by_name(g1, "A", a, lib).unwrap();
        n.connect_by_name(g1, "B", b, lib).unwrap();
        n.connect_by_name(g1, "Z", w, lib).unwrap();
        n.connect_by_name(g2, "A", w, lib).unwrap();
        n.connect_by_name(g2, "Z", z, lib).unwrap();
        n
    }

    #[test]
    fn full_transform_passes_verification() {
        let lib = lib();
        let golden = design(&lib);
        let mut dut = design(&lib);
        to_improved_mt_cells(&mut dut, &lib);
        insert_output_holders(&mut dut, &lib);
        insert_initial_switch(&mut dut, &lib, Volt::from_millivolts(50.0));
        let report = verify(&golden, &dut, &lib, 64, 1).unwrap();
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn missing_holder_is_caught_by_standby_check() {
        let lib = lib();
        let golden = design(&lib);
        let mut dut = design(&lib);
        to_improved_mt_cells(&mut dut, &lib);
        // Deliberately skip holder insertion.
        insert_initial_switch(&mut dut, &lib, Volt::from_millivolts(50.0));
        let report = verify(&golden, &dut, &lib, 32, 1).unwrap();
        assert!(!report.passed());
        assert!(
            report
                .floating_in_standby
                .iter()
                .any(|(inst, pin)| inst == "g2" && pin == "A"),
            "{:?}",
            report.floating_in_standby
        );
    }

    #[test]
    fn broken_function_is_caught_by_equivalence() {
        let lib = lib();
        let golden = design(&lib);
        let mut dut = design(&lib);
        // Sabotage: swap the NAND for a NOR.
        let g1 = dut.find_inst("g1").unwrap();
        dut.replace_cell(g1, lib.find_id("NR2_X1_L").unwrap(), &lib)
            .unwrap();
        let report = verify(&golden, &dut, &lib, 64, 1).unwrap();
        assert!(!report.equivalence.is_equivalent());
        assert!(!report.passed());
    }

    #[test]
    fn unwired_vgnd_is_caught_by_lint() {
        let lib = lib();
        let golden = design(&lib);
        let mut dut = design(&lib);
        to_improved_mt_cells(&mut dut, &lib);
        insert_output_holders(&mut dut, &lib);
        // Skip switch insertion: VGND pins float.
        let report = verify(&golden, &dut, &lib, 32, 1).unwrap();
        assert!(!report.lint.is_clean());
        assert!(report
            .lint
            .errors()
            .any(|d| d.rule == smt_netlist::check::RuleId::UnwiredMtPin));
        assert!(!report.passed());
    }
}
