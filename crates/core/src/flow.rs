//! The complete Fig. 4 design flow, runnable under all three techniques
//! so the paper's Table 1 comparison falls out of one driver:
//!
//! 1. RTL → synthesis on low-Vth cells → initial netlist & placement;
//! 2. Dual-Vth assignment with timing optimization;
//! 3. *(SMT only)* replacement of the remaining low-Vth cells by MT-cells
//!    — embedded (conventional) or VGND-port (improved);
//! 4. *(improved only)* output-holder insertion, initial switch, then
//!    clustered switch-structure construction under the bounce /
//!    wirelength / EM constraints, with a timing check that tightens the
//!    bounce budget and re-clusters when the VGND derate breaks setup;
//! 5. routing (CTS, MTE buffering, global route) and extraction;
//! 6. *(improved only)* post-route switch re-optimization on extracted
//!    wire lengths;
//! 7. ECO hold fixing and final STA + functional/structural/standby
//!    verification.
//!
//! This module is the **compatibility surface** over the composable
//! [`engine`](crate::engine): [`run_flow`] / [`run_flow_netlist`] execute
//! the whole pipeline in one call, exactly as before the stage-graph
//! redesign. New code should prefer [`FlowEngine`] directly — it exposes
//! per-stage observers, checkpoint/fork, and parallel sweeps
//! ([`run_sweep`]).

pub use crate::engine::{
    run_sweep, run_three_techniques, Checkpoint, CornerSignoff, DesignState, FlowConfig,
    FlowContext, FlowEngine, FlowError, FlowResult, Observer, Stage, StageId, StageLogger,
    StageMetrics, SweepOutcome, SweepRun, Technique,
};
use smt_cells::library::Library;
use smt_netlist::netlist::Netlist;

/// Runs the flow from RTL-lite source (one-shot wrapper over
/// [`FlowEngine::run`]).
///
/// # Errors
///
/// See [`FlowError`].
pub fn run_flow(rtl: &str, lib: &Library, config: &FlowConfig) -> Result<FlowResult, FlowError> {
    FlowEngine::new(lib, config.clone()).run(rtl)
}

/// Runs the flow on an existing (all-low-Vth) netlist (one-shot wrapper
/// over [`FlowEngine::run_netlist`]).
///
/// # Errors
///
/// See [`FlowError`].
pub fn run_flow_netlist(
    netlist: Netlist,
    lib: &Library,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    FlowEngine::new(lib, config.clone()).run_netlist(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_circuits::families::{generate, standard_suite, SuiteScale};
    use smt_circuits::rtl::circuit_b_rtl_sized;
    use smt_route::route_global;

    #[test]
    fn reported_overflow_is_the_final_designs_global_route() {
        let lib = Library::industrial_130nm();
        let cfg = FlowConfig::default();
        for w in standard_suite(SuiteScale::Smoke) {
            let netlist = generate(&lib, &w.config).unwrap();
            let r =
                run_flow_netlist(netlist, &lib, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let gr = route_global(&r.netlist, &lib, &r.placement, &cfg.route);
            assert_eq!(
                (r.overflow, r.peak_utilization),
                (gr.overflow, gr.peak_utilization),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn dual_vth_flow_runs_clean() {
        let lib = Library::industrial_130nm();
        let cfg = FlowConfig {
            technique: Technique::DualVth,
            ..FlowConfig::default()
        };
        let r = run_flow(&circuit_b_rtl_sized(8), &lib, &cfg).unwrap();
        assert!(r.timing.setup_met());
        assert!(r.verify.passed(), "lint: {:?}", r.verify.lint);
        assert!(r.census.high > 0, "some cells went high-Vth");
        assert_eq!(r.census.mt_vgnd + r.census.mt_embedded, 0);
        assert!(r.hold_fix.remaining == 0);
    }

    #[test]
    fn improved_flow_runs_clean_and_saves_leakage() {
        let lib = Library::industrial_130nm();
        let dual = run_flow(
            &circuit_b_rtl_sized(8),
            &lib,
            &FlowConfig {
                technique: Technique::DualVth,
                ..FlowConfig::default()
            },
        )
        .unwrap();
        let imp = run_flow(
            &circuit_b_rtl_sized(8),
            &lib,
            &FlowConfig {
                technique: Technique::ImprovedSmt,
                clock_period: Some(dual.clock_period),
                ..FlowConfig::default()
            },
        )
        .unwrap();
        assert!(imp.timing.setup_met());
        assert!(imp.verify.passed(), "{:?}", imp.verify.lint);
        assert!(imp.census.mt_vgnd > 0);
        assert!(imp.cluster.is_some());
        // The paper's direction: big standby-leakage cut, some area cost.
        assert!(
            imp.standby_leakage.ua() < dual.standby_leakage.ua() * 0.6,
            "imp {} vs dual {}",
            imp.standby_leakage,
            dual.standby_leakage
        );
        assert!(imp.area > dual.area);
    }

    #[test]
    fn conventional_flow_runs_clean() {
        let lib = Library::industrial_130nm();
        let r = run_flow(
            &circuit_b_rtl_sized(8),
            &lib,
            &FlowConfig {
                technique: Technique::ConventionalSmt,
                ..FlowConfig::default()
            },
        )
        .unwrap();
        assert!(r.timing.setup_met());
        assert!(r.verify.passed(), "{:?}", r.verify.lint);
        assert!(r.census.mt_embedded > 0);
        assert!(r.cluster.is_none());
    }
}
