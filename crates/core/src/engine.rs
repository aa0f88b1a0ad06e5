//! The composable Fig. 4 flow engine.
//!
//! The paper's methodology is a staged pipeline (synthesis → dual-Vth →
//! MT-cell replacement → clustering → route → re-opt → ECO → signoff).
//! This module exposes each box of Fig. 4 as a named, typed [`Stage`]
//! operating on a shared [`DesignState`], driven by a [`FlowEngine`]:
//!
//! ```text
//!  Synthesize ──► PlaceAndClock ──► AssignDualVth ──► MtReplace*
//!                                                        │
//!        ┌───────────────────────────────────────────────┘
//!        ▼
//!  InsertHolders* ──► ClusterSwitches* ──► Cts ──► RouteExtract
//!                                                        │
//!        ┌───────────────────────────────────────────────┘
//!        ▼
//!  ReoptSwitches* ──► EcoHoldFix ──► Signoff          (* technique-gated)
//! ```
//!
//! On top of the per-stage decomposition the engine provides
//!
//! * [`Observer`] callbacks with per-stage [`StageMetrics`] and wall-clock
//!   time;
//! * [`Checkpoint`] snapshot/restore between stages, so sweeps can fork a
//!   shared synthesis + placement prefix instead of re-running it;
//! * [`run_sweep`], a thread-parallel driver fanning one RTL out across
//!   many [`FlowConfig`]s, and [`run_three_techniques`], the paper's
//!   Table 1 comparison as a one-checkpoint-fork special case.
//!
//! The monolithic [`run_flow`](crate::flow::run_flow) /
//! [`run_flow_netlist`](crate::flow::run_flow_netlist) entry points remain
//! available as thin wrappers over the engine.

use crate::cluster::{
    cluster_state, construct_switch_structure, ClusterConfig, SwitchStructureReport,
};
use crate::dualvth::{assign_dual_vth_at_corners, AssignVthError, DualVthConfig, DualVthReport};
use crate::eco::{corner_reports, distribute_mte, fix_hold_at_corners, HoldFixReport};
use crate::reopt::{reoptimize_switches_at_corners, ReoptReport};
use crate::smtgen::{
    insert_initial_switch, insert_output_holders, to_conventional_smt, to_improved_mt_cells,
};
use crate::verify::{standby_snapshot, verify_inner, VerifyError, VerifyReport};
use smt_base::par::{panic_message, parallel_map};
use smt_base::units::{Area, Current, Time};
use smt_cells::corner::{hold_libs, setup_libs, Corner, CornerLibrary, CornerSet};
use smt_cells::library::Library;
use smt_netlist::check::{analyze_with_threads, Diagnostic, LintPolicy};
use smt_netlist::netlist::{Netlist, VthCensus};
use smt_place::{PlaceError, Placement, Placer, PlacerConfig};
use smt_power::{bounce_derates, LeakageLedger, PricingMode};
use smt_route::{CtsConfig, CtsReport, CtsSession, Parasitics, RouteConfig, RouteError, Router};
use smt_sim::EquivCache;
use smt_sta::{Derating, StaConfig, TimingGraph, TimingReport, TimingState};
use smt_synth::{synthesize, SynthError, SynthOptions};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Floor on the clock period, applied both to auto-selected and pinned
/// clocks (a sub-100ps clock is meaningless in this 130nm library).
pub const MIN_CLOCK_PERIOD: Time = Time::new(100.0);

/// Which of the paper's three techniques to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Baseline: Dual-Vth assignment only (ref \[1\]).
    DualVth,
    /// Conventional Selective-MT: per-cell embedded switches (ref \[2\]).
    ConventionalSmt,
    /// Improved Selective-MT: shared, clustered switches (this paper).
    ImprovedSmt,
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Technique::DualVth => "Dual-Vth",
            Technique::ConventionalSmt => "Conventional-SMT",
            Technique::ImprovedSmt => "Improved-SMT",
        })
    }
}

/// All flow knobs.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Technique to apply.
    pub technique: Technique,
    /// Clock period; `None` sets it automatically to the all-low-Vth
    /// critical delay times [`FlowConfig::period_margin`].
    pub clock_period: Option<Time>,
    /// Auto-period margin over the all-low critical delay.
    pub period_margin: f64,
    /// Base STA settings (input delay, margins; period is overridden).
    pub sta: StaConfig,
    /// PVT corners the flow signs off against. The default (the identity
    /// [`CornerSet::typical_only`]) reproduces the original single-corner
    /// flow bit-for-bit; [`CornerSet::slow_typ_fast`] signs setup off at
    /// the slow corner and hold at the fast one, and every
    /// timing-sensitive stage (clock probe, Vth assignment, switch
    /// re-opt, ECO, signoff) then works on worst-across-corners slack.
    pub corners: CornerSet,
    /// Dual-Vth assignment options.
    pub dualvth: DualVthConfig,
    /// Switch clustering constraints (improved technique).
    pub cluster: ClusterConfig,
    /// Re-clustering attempts when the bounce derate breaks timing.
    pub recluster_retries: usize,
    /// Placement options.
    pub placer: PlacerConfig,
    /// Routing options.
    pub route: RouteConfig,
    /// CTS options.
    pub cts: CtsConfig,
    /// Max fanout on the MTE net before buffering.
    pub mte_max_fanout: usize,
    /// Hold-fix rounds.
    pub hold_rounds: usize,
    /// Random-stimulus cycles in final verification.
    pub verify_cycles: usize,
    /// Seed for verification stimulus.
    pub seed: u64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            technique: Technique::ImprovedSmt,
            clock_period: None,
            period_margin: 1.25,
            sta: StaConfig::default(),
            corners: CornerSet::typical_only(),
            dualvth: DualVthConfig::default(),
            cluster: ClusterConfig::default(),
            recluster_retries: 2,
            placer: PlacerConfig::default(),
            route: RouteConfig::default(),
            cts: CtsConfig::default(),
            mte_max_fanout: 16,
            hold_rounds: 6,
            verify_cycles: 96,
            seed: 2005,
        }
    }
}

// ---------------------------------------------------------------------------
// Stage identities and metrics
// ---------------------------------------------------------------------------

/// The named boxes of the Fig. 4 stage graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// RTL-lite → mapped all-low-Vth netlist.
    Synthesize,
    /// Initial placement, RC estimation, and clock-period selection.
    PlaceAndClock,
    /// Timing-driven low→high Vth assignment.
    AssignDualVth,
    /// Replacement of remaining low-Vth cells by MT-cells.
    MtReplace,
    /// Output-holder insertion and the initial (per-cell) switch.
    InsertHolders,
    /// Clustered switch-structure construction with timing feedback.
    ClusterSwitches,
    /// Clock-tree synthesis and MTE-net buffering.
    Cts,
    /// Global routing and RC extraction.
    RouteExtract,
    /// Post-route switch re-optimization on extracted wire lengths.
    ReoptSwitches,
    /// Setup-recovery and hold-fix ECO.
    EcoHoldFix,
    /// Final STA, functional/structural/standby verification, power.
    Signoff,
}

impl StageId {
    /// Every stage, in full Fig. 4 plan order — the canonical ordering
    /// the suite's stage-profile table and report serialisation use.
    pub const ALL: [StageId; 11] = [
        StageId::Synthesize,
        StageId::PlaceAndClock,
        StageId::AssignDualVth,
        StageId::MtReplace,
        StageId::InsertHolders,
        StageId::ClusterSwitches,
        StageId::Cts,
        StageId::RouteExtract,
        StageId::ReoptSwitches,
        StageId::EcoHoldFix,
        StageId::Signoff,
    ];

    /// A stable machine-readable key (JSON report field; see
    /// [`StageId::from_key`]).
    pub fn key(self) -> &'static str {
        match self {
            StageId::Synthesize => "synthesize",
            StageId::PlaceAndClock => "place_and_clock",
            StageId::AssignDualVth => "assign_dual_vth",
            StageId::MtReplace => "mt_replace",
            StageId::InsertHolders => "insert_holders",
            StageId::ClusterSwitches => "cluster_switches",
            StageId::Cts => "cts",
            StageId::RouteExtract => "route_extract",
            StageId::ReoptSwitches => "reopt_switches",
            StageId::EcoHoldFix => "eco_hold_fix",
            StageId::Signoff => "signoff",
        }
    }

    /// Inverse of [`StageId::key`].
    pub fn from_key(key: &str) -> Option<StageId> {
        StageId::ALL.into_iter().find(|s| s.key() == key)
    }

    /// Human-readable stage title (used in [`StageMetrics::stage`]).
    pub fn title(self) -> &'static str {
        match self {
            StageId::Synthesize => "synthesis",
            StageId::PlaceAndClock => "initial netlist & placement",
            StageId::AssignDualVth => "dual-Vth assignment",
            StageId::MtReplace => "replace by MT-cells",
            StageId::InsertHolders => "output holders + initial switch",
            StageId::ClusterSwitches => "switch structure construction",
            StageId::Cts => "clock tree synthesis & MTE buffering",
            StageId::RouteExtract => "global routing & extraction",
            StageId::ReoptSwitches => "post-route switch re-optimization",
            StageId::EcoHoldFix => "ECO (setup recovery & hold fixing)",
            StageId::Signoff => "signoff STA & verification",
        }
    }

    /// The ordered stage plan for a technique — the Fig. 4 walk with the
    /// technique-gated boxes removed.
    pub fn plan(technique: Technique) -> &'static [StageId] {
        use StageId::*;
        match technique {
            Technique::DualVth => &[
                Synthesize,
                PlaceAndClock,
                AssignDualVth,
                Cts,
                RouteExtract,
                EcoHoldFix,
                Signoff,
            ],
            Technique::ConventionalSmt => &[
                Synthesize,
                PlaceAndClock,
                AssignDualVth,
                MtReplace,
                Cts,
                RouteExtract,
                EcoHoldFix,
                Signoff,
            ],
            Technique::ImprovedSmt => &[
                Synthesize,
                PlaceAndClock,
                AssignDualVth,
                MtReplace,
                InsertHolders,
                ClusterSwitches,
                Cts,
                RouteExtract,
                ReoptSwitches,
                EcoHoldFix,
                Signoff,
            ],
        }
    }
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.title())
    }
}

/// Snapshot of the design after one flow stage.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Which stage produced this snapshot.
    pub id: StageId,
    /// Stage title (matches the Fig. 4 boxes).
    pub stage: String,
    /// Total cell area.
    pub area: Area,
    /// Live instances.
    pub cells: usize,
    /// Quick standby-leakage figure (per-cell standby sums).
    pub leak_quick: Current,
    /// Setup WNS, when timing was run at this stage.
    pub wns: Option<Time>,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Unified flow failure, wrapping every stage's error type.
#[derive(Debug, Clone)]
pub enum FlowError {
    /// Synthesis failed.
    Synth(SynthError),
    /// Vth assignment failed (infeasible clock).
    Assign(AssignVthError),
    /// Levelisation failed (combinational loop) in placement, STA, CTS,
    /// routing or ECO.
    Cycle(smt_netlist::graph::CombinationalCycle),
    /// The placer refused its configuration
    /// ([`PlacerConfig::validate`]).
    Place(PlaceError),
    /// The router refused its configuration ([`RouteConfig::validate`]);
    /// checked before any stage runs.
    Route(RouteError),
    /// Verification machinery failed.
    Verify(VerifyError),
    /// The final design misses timing even after re-clustering retries.
    TimingNotMet {
        /// Final WNS.
        wns: Time,
    },
    /// A stage ran before the state it needs was produced (engine misuse,
    /// e.g. resuming a checkpoint past the stage that feeds it).
    MissingState {
        /// The stage that could not run.
        stage: StageId,
        /// What it was missing.
        what: &'static str,
    },
    /// `run_until`/`resume_until` named a stage the engine's plan does not
    /// contain (e.g. `ClusterSwitches` under [`Technique::DualVth`]).
    StageNotInPlan {
        /// The requested stop stage.
        stage: StageId,
    },
    /// A resumed config pins a `clock_period` different from the one the
    /// checkpoint's timing-dependent stages (dual-Vth assignment onward)
    /// were computed with; honouring it would silently invalidate them.
    ClockRepinnedAfterTiming {
        /// The clock the resuming config pins.
        pinned: Time,
        /// The clock the checkpoint was computed with.
        committed: Time,
    },
    /// A sweep run's flow panicked (isolated by [`fork_sweep`] so the
    /// other runs still complete).
    RunPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The configured [`CornerSet`] violates its invariants (empty, no
    /// setup corner, no hold corner, duplicate names).
    InvalidCorners {
        /// Which invariant failed.
        message: String,
    },
    /// The per-stage lint gate found `Error`-severity diagnostics
    /// after a stage ran: the stage left the netlist structurally
    /// broken, caught here before any downstream stage (or the
    /// simulation-based equivalence check) trips over the symptoms.
    Lint {
        /// The stage whose output failed analysis.
        stage: StageId,
        /// The error-severity findings, in canonical report order.
        errors: Vec<Diagnostic>,
    },
    /// An error reloaded from a serialised suite report
    /// (`SuiteReport::from_json`): the original structured variant is
    /// gone, only its rendered message survives the round trip.
    Reported {
        /// The original error's `Display` output.
        message: String,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Synth(e) => write!(f, "{e}"),
            FlowError::Assign(e) => write!(f, "{e}"),
            FlowError::Cycle(e) => write!(f, "{e}"),
            FlowError::Place(e) => write!(f, "{e}"),
            FlowError::Route(e) => write!(f, "{e}"),
            FlowError::Verify(e) => write!(f, "{e}"),
            FlowError::TimingNotMet { wns } => {
                write!(f, "flow result misses timing (wns = {wns})")
            }
            FlowError::MissingState { stage, what } => {
                write!(f, "stage `{stage}` is missing prerequisite state: {what}")
            }
            FlowError::StageNotInPlan { stage } => {
                write!(f, "stage `{stage}` is not in this engine's plan")
            }
            FlowError::ClockRepinnedAfterTiming { pinned, committed } => {
                write!(
                    f,
                    "cannot re-pin the clock to {pinned} on a checkpoint whose \
                     timing stages were computed for {committed}"
                )
            }
            FlowError::RunPanicked { message } => {
                write!(f, "flow panicked: {message}")
            }
            FlowError::InvalidCorners { message } => {
                write!(f, "invalid corner set: {message}")
            }
            FlowError::Lint { stage, errors } => {
                write!(f, "stage `{stage}` left {} lint error(s)", errors.len())?;
                if let Some(first) = errors.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            FlowError::Reported { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Synth(e) => Some(e),
            FlowError::Assign(e) => Some(e),
            FlowError::Cycle(e) => Some(e),
            FlowError::Place(e) => Some(e),
            FlowError::Route(e) => Some(e),
            FlowError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Design state
// ---------------------------------------------------------------------------

/// Everything the stages read and write: the netlist under transformation,
/// its golden reference, physical data, timing context and per-stage
/// reports. Cloning a `DesignState` is how [`Checkpoint::restore`] forks
/// flows.
#[derive(Debug, Clone)]
pub struct DesignState {
    /// The netlist being transformed.
    pub netlist: Netlist,
    /// The post-synthesis reference for equivalence checking.
    pub golden: Netlist,
    /// The placement session (from [`StageId::PlaceAndClock`] onward):
    /// holds the current [`Placement`] plus the incremental re-place
    /// machinery, and forks with the rest of the state in checkpoints.
    pub placer: Option<Placer>,
    /// Estimated (pre-route) parasitics.
    pub estimated: Option<Parasitics>,
    /// Extracted (post-route) parasitics.
    pub extracted: Option<Parasitics>,
    /// Chosen clock period.
    pub clock_period: Option<Time>,
    /// Working STA configuration (period and, post-CTS, skew filled in).
    pub sta: Option<StaConfig>,
    /// Current timing derates (VGND bounce; uniform otherwise).
    pub derating: Option<Derating>,
    /// Stage-by-stage metrics (the Fig. 4 walkthrough).
    pub stages: Vec<StageMetrics>,
    /// Stages already executed, in order.
    pub completed: Vec<StageId>,
    /// WNS reported by the most recent stage that ran timing.
    pub last_wns: Option<Time>,
    /// Dual-Vth assignment report.
    pub dualvth: Option<DualVthReport>,
    /// Clustering report (improved technique only).
    pub cluster: Option<SwitchStructureReport>,
    /// CTS report (designs with a clock).
    pub cts: Option<CtsReport>,
    /// Post-route switch re-optimization (improved only).
    pub reopt: Option<ReoptReport>,
    /// Hold-fix report.
    pub hold_fix: Option<HoldFixReport>,
    /// Final timing.
    pub timing: Option<TimingReport>,
    /// Final verification.
    pub verify: Option<VerifyReport>,
    /// Standby leakage from a gated-mode simulation snapshot.
    pub standby_leakage: Option<Current>,
    /// Active-mode leakage.
    pub active_leakage: Option<Current>,
    /// Per-corner signoff rows (filled by [`StageId::Signoff`]; one row
    /// per configured corner, in corner-set order).
    pub corner_signoff: Vec<CornerSignoff>,
    /// The routing session (from [`StageId::RouteExtract`] onward):
    /// per-net base routes keyed by pin fingerprints. Every refresh
    /// re-fingerprints all nets and re-routes only those whose pins
    /// moved or rebound.
    pub router: Option<Router>,
    /// The CTS session: a recording of the clock tree keyed by a clock
    /// fabric fingerprint, replayed bit-identically when it matches.
    pub cts_session: Option<CtsSession>,
    /// Signoff's equivalence verdict memo: residue-cone simulation
    /// results keyed by DUT cone fingerprint.
    pub equiv_cache: Option<EquivCache>,
    /// Per-instance leakage rows, rebuilt at every signoff and re-priced
    /// at each corner library.
    pub power_ledger: Option<LeakageLedger>,
}

impl DesignState {
    /// Empty state: the [`StageId::Synthesize`] stage will fill it from RTL.
    pub fn new() -> Self {
        DesignState {
            netlist: Netlist::new("design"),
            golden: Netlist::new("design"),
            placer: None,
            estimated: None,
            extracted: None,
            clock_period: None,
            sta: None,
            derating: None,
            stages: Vec::new(),
            completed: Vec::new(),
            last_wns: None,
            dualvth: None,
            cluster: None,
            cts: None,
            reopt: None,
            hold_fix: None,
            timing: None,
            verify: None,
            standby_leakage: None,
            active_leakage: None,
            corner_signoff: Vec::new(),
            router: None,
            cts_session: None,
            equiv_cache: None,
            power_ledger: None,
        }
    }

    /// State seeded from an existing (all-low-Vth) netlist;
    /// [`StageId::Synthesize`] is recorded as already done.
    pub fn from_netlist(netlist: Netlist) -> Self {
        let mut s = Self::new();
        s.golden = netlist.clone();
        s.netlist = netlist;
        s.completed.push(StageId::Synthesize);
        s
    }

    /// Whether `stage` has already executed on this state.
    pub fn is_done(&self, stage: StageId) -> bool {
        self.completed.contains(&stage)
    }

    /// The most recently executed stage.
    pub fn last_stage(&self) -> Option<StageId> {
        self.completed.last().copied()
    }

    fn snapshot(&mut self, id: StageId, lib: &Library) {
        self.stages.push(StageMetrics {
            id,
            stage: id.title().to_owned(),
            area: self.netlist.total_area(lib),
            cells: self.netlist.num_instances(),
            leak_quick: self.netlist.standby_leak_quick(lib),
            wns: self.last_wns,
        });
    }

    fn placement(&self, stage: StageId) -> Result<&Placement, FlowError> {
        self.placer
            .as_ref()
            .map(Placer::placement)
            .ok_or(FlowError::MissingState {
                stage,
                what: "placement",
            })
    }

    fn sta(&self, stage: StageId) -> Result<&StaConfig, FlowError> {
        self.sta.as_ref().ok_or(FlowError::MissingState {
            stage,
            what: "STA configuration",
        })
    }
}

impl Default for DesignState {
    fn default() -> Self {
        Self::new()
    }
}

/// Borrows just the placer's placement mutably — a free function (not a
/// `DesignState` method) so stages can hold it alongside
/// `&mut state.netlist`.
fn placement_mut(placer: &mut Option<Placer>, stage: StageId) -> Result<&mut Placement, FlowError> {
    placer
        .as_mut()
        .map(Placer::placement_mut)
        .ok_or(FlowError::MissingState {
            stage,
            what: "placement",
        })
}

/// Borrows the whole placer session mutably (stages that re-place
/// incrementally rather than just recording new-cell locations).
fn placer_mut(placer: &mut Option<Placer>, stage: StageId) -> Result<&mut Placer, FlowError> {
    placer.as_mut().ok_or(FlowError::MissingState {
        stage,
        what: "placement",
    })
}

/// Brings routing and extraction in sync with the current netlist and
/// placement. A warm router re-fingerprints every net and re-routes only
/// the stale ones, and [`Parasitics::update`] re-extracts only nets
/// whose extraction fingerprint moved; without warm sessions this is a
/// full route and extraction. The fingerprint scan is sound against any
/// netlist, including checkpoint forks with divergent edit histories,
/// so no stage needs to record what it edited.
fn sync_routing(
    state: &mut DesignState,
    ctx: &FlowContext<'_>,
    stage: StageId,
) -> Result<(), FlowError> {
    let warm_router = state.router.take();
    let prev_extracted = state.extracted.take();
    let placement = state.placement(stage)?;
    let router = match warm_router {
        Some(mut r) => {
            r.refresh(&state.netlist, ctx.lib, placement, &ctx.config.route, 0);
            r
        }
        None => Router::route(&state.netlist, ctx.lib, placement, &ctx.config.route, 0),
    };
    // Unmoved nets keep their extracted entries byte for byte.
    let extracted = match prev_extracted {
        Some(prev) => Parasitics::update(prev, &state.netlist, ctx.lib, placement, router.global()),
        None => Parasitics::extract(&state.netlist, ctx.lib, placement, router.global()),
    };
    state.extracted = Some(extracted);
    state.router = Some(router);
    Ok(())
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One corner's signoff row: timing and leakage of the *final* design
/// evaluated at that corner's re-characterised library (the per-corner
/// Table 1 view).
#[derive(Debug, Clone)]
pub struct CornerSignoff {
    /// The corner (name, derates, which checks apply).
    pub corner: Corner,
    /// Setup WNS at this corner.
    pub wns: Time,
    /// Total negative slack at this corner.
    pub tns: Time,
    /// Hold violations at this corner.
    pub hold_violations: usize,
    /// Standby leakage at this corner (same gated-mode snapshot as the
    /// primary signoff, re-priced at the corner's technology).
    pub standby_leakage: Current,
    /// Active-mode leakage at this corner.
    pub active_leakage: Current,
}

/// Everything the flow produces.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The final netlist.
    pub netlist: Netlist,
    /// The golden (post-synthesis) netlist used for equivalence.
    pub golden: Netlist,
    /// Final placement.
    pub placement: Placement,
    /// Chosen clock period.
    pub clock_period: Time,
    /// Stage-by-stage metrics (the Fig. 4 walkthrough).
    pub stages: Vec<StageMetrics>,
    /// Dual-Vth assignment report.
    pub dualvth: DualVthReport,
    /// Clustering report (improved technique only).
    pub cluster: Option<SwitchStructureReport>,
    /// CTS report (designs with a clock).
    pub cts: Option<CtsReport>,
    /// Post-route switch re-optimization (improved only).
    pub reopt: Option<ReoptReport>,
    /// Hold-fix report.
    pub hold_fix: HoldFixReport,
    /// Final timing.
    pub timing: TimingReport,
    /// Final verification.
    pub verify: VerifyReport,
    /// Final Vth census.
    pub census: VthCensus,
    /// Total cell area.
    pub area: Area,
    /// Standby leakage from a gated-mode simulation snapshot.
    pub standby_leakage: Current,
    /// Active-mode leakage.
    pub active_leakage: Current,
    /// Per-corner signoff rows, in corner-set order (a single `typ` row
    /// for the default single-corner configuration).
    pub corner_signoff: Vec<CornerSignoff>,
    /// Track demand above capacity, summed over the final global
    /// route's tile edges (0 = congestion-free). The router reports
    /// overflow; it resolves none unless rip-up & reroute is configured.
    pub overflow: u64,
    /// Peak tile-edge utilisation (demand / capacity) of the final
    /// global route.
    pub peak_utilization: f64,
}

impl FlowResult {
    fn from_state(state: DesignState, lib: &Library) -> Result<Self, FlowError> {
        let missing = |what| FlowError::MissingState {
            stage: StageId::Signoff,
            what,
        };
        let route = state
            .router
            .as_ref()
            .map(Router::global)
            .ok_or(missing("global route"))?;
        Ok(FlowResult {
            census: state.netlist.vth_census(lib),
            area: state.netlist.total_area(lib),
            golden: state.golden,
            placement: state
                .placer
                .map(Placer::into_placement)
                .ok_or(missing("placement"))?,
            clock_period: state.clock_period.ok_or(missing("clock period"))?,
            stages: state.stages,
            dualvth: state.dualvth.ok_or(missing("dual-Vth report"))?,
            cluster: state.cluster,
            cts: state.cts,
            reopt: state.reopt,
            hold_fix: state.hold_fix.ok_or(missing("hold-fix report"))?,
            timing: state.timing.ok_or(missing("timing report"))?,
            verify: state.verify.ok_or(missing("verification report"))?,
            standby_leakage: state.standby_leakage.ok_or(missing("standby leakage"))?,
            active_leakage: state.active_leakage.ok_or(missing("active leakage"))?,
            corner_signoff: state.corner_signoff,
            overflow: route.overflow,
            peak_utilization: route.peak_utilization,
            netlist: state.netlist,
        })
    }

    /// [`FlowResult::from_state`] on a borrowed state: clones only the
    /// fields a result owns (netlist, golden, placement, reports), never
    /// the router, parasitics or warm caches. `None` when a required
    /// field is missing; the caller then takes the owning path, which
    /// reports which one.
    fn from_finished(state: &DesignState, lib: &Library) -> Option<Self> {
        let route = state.router.as_ref()?.global();
        Some(FlowResult {
            clock_period: state.clock_period?,
            standby_leakage: state.standby_leakage?,
            active_leakage: state.active_leakage?,
            placement: state.placer.as_ref()?.placement().clone(),
            dualvth: state.dualvth.clone()?,
            hold_fix: state.hold_fix?,
            timing: state.timing.clone()?,
            verify: state.verify.clone()?,
            census: state.netlist.vth_census(lib),
            area: state.netlist.total_area(lib),
            stages: state.stages.clone(),
            cluster: state.cluster.clone(),
            cts: state.cts.clone(),
            reopt: state.reopt,
            corner_signoff: state.corner_signoff.clone(),
            overflow: route.overflow,
            peak_utilization: route.peak_utilization,
            golden: state.golden.clone(),
            netlist: state.netlist.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// Stage trait and observers
// ---------------------------------------------------------------------------

/// Shared, read-only context every stage receives.
pub struct FlowContext<'a> {
    /// Cell library (the base/primary corner).
    pub lib: &'a Library,
    /// The configured corners, each with its re-characterised library.
    /// Always non-empty for engine-driven stages; the identity corner
    /// set makes `corners[0].lib` a clone of [`FlowContext::lib`].
    pub corners: &'a [CornerLibrary],
    /// Flow configuration.
    pub config: &'a FlowConfig,
    /// RTL-lite source ([`StageId::Synthesize`] input; absent when the
    /// flow was seeded from a netlist).
    pub rtl: Option<&'a str>,
}

impl<'a> FlowContext<'a> {
    /// Libraries of the corners that sign off setup timing (falls back to
    /// the base library for hand-built contexts with no corners).
    pub fn setup_libs(&self) -> Vec<&'a Library> {
        let libs = setup_libs(self.corners);
        if libs.is_empty() {
            vec![self.lib]
        } else {
            libs
        }
    }

    /// Libraries of the corners that sign off hold timing (falls back to
    /// the base library for hand-built contexts with no corners).
    pub fn hold_libs(&self) -> Vec<&'a Library> {
        let libs = hold_libs(self.corners);
        if libs.is_empty() {
            vec![self.lib]
        } else {
            libs
        }
    }

    /// Libraries of every configured corner (base library when none).
    pub fn corner_libs(&self) -> Vec<&'a Library> {
        if self.corners.is_empty() {
            vec![self.lib]
        } else {
            self.corners.iter().map(|c| &c.lib).collect()
        }
    }
}

/// One box of the Fig. 4 stage graph: a named transformation of
/// [`DesignState`].
pub trait Stage {
    /// Stable identity of this stage.
    fn id(&self) -> StageId;

    /// Executes the stage, mutating `state` in place.
    ///
    /// # Errors
    ///
    /// Any [`FlowError`]; the engine stops at the first failing stage.
    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError>;
}

/// Callback hook receiving per-stage progress from a [`FlowEngine`].
pub trait Observer {
    /// Called before a stage executes.
    fn on_stage_start(&mut self, _stage: StageId) {}
    /// Called after a stage executes, with the metrics snapshot it
    /// produced and its wall-clock time.
    fn on_stage_end(&mut self, _stage: StageId, _metrics: &StageMetrics, _elapsed: Duration) {}
}

/// An [`Observer`] that logs stage completion to stderr — handy in the
/// regeneration binaries.
#[derive(Debug, Default)]
pub struct StageLogger;

impl Observer for StageLogger {
    fn on_stage_end(&mut self, stage: StageId, metrics: &StageMetrics, elapsed: Duration) {
        eprintln!(
            "[flow] {:36} {:>6} cells  {:>10.1} um^2  {:>9.2?}{}",
            stage.title(),
            metrics.cells,
            metrics.area.um2(),
            elapsed,
            metrics
                .wns
                .map(|w| format!("  wns {:.1} ps", w.ps()))
                .unwrap_or_default(),
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A frozen [`DesignState`] taken between stages. Cloning a checkpoint
/// shares the frozen state; [`Checkpoint::restore`] is the one deep copy,
/// so one checkpoint can fork arbitrarily many downstream flows (sweeps,
/// the Table 1 three-technique comparison, ablations) and each fork pays
/// for exactly one copy.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    state: Arc<DesignState>,
}

impl Checkpoint {
    /// Wraps a state as a checkpoint.
    pub fn new(state: DesignState) -> Self {
        Checkpoint {
            state: Arc::new(state),
        }
    }

    /// The last stage executed before the snapshot.
    pub fn stage(&self) -> Option<StageId> {
        self.state.last_stage()
    }

    /// A fresh, independent working copy of the frozen state.
    pub fn restore(&self) -> DesignState {
        (*self.state).clone()
    }

    /// Read-only view of the frozen state.
    pub fn state(&self) -> &DesignState {
        &self.state
    }
}

// ---------------------------------------------------------------------------
// Lint gate
// ---------------------------------------------------------------------------

/// The per-stage static-analysis gate: after every completed stage but
/// [`StageId::Signoff`] the engine analyzes the working netlist under
/// [`LintPolicy::for_stage`] (MT-wiring rules only arm once the switch
/// network exists) and converts `Error`-severity findings into
/// [`FlowError::Lint`]. A transform bug therefore fails the flow at the
/// stage that introduced it instead of surfacing as a confusing
/// equivalence mismatch three stages later.
fn lint_gate(netlist: &Netlist, lib: &Library, stage: StageId) -> Result<(), FlowError> {
    let report = analyze_with_threads(netlist, lib, &LintPolicy::for_stage(stage.key()), 0);
    if report.is_clean() {
        return Ok(());
    }
    Err(FlowError::Lint {
        stage,
        errors: report.errors().cloned().collect(),
    })
}

/// Resolves a lint policy name, as `smt-lint --policy` and the `smtd`
/// `lint` verb accept it: `signoff`, `structural`, or a [`StageId::key`]
/// (that stage's gate policy, [`LintPolicy::for_stage`]).
///
/// # Errors
///
/// A message listing every accepted name, so a misspelled policy is
/// refused instead of silently dropping rules.
pub fn lint_policy(name: &str) -> Result<LintPolicy, String> {
    match name {
        "signoff" => Ok(LintPolicy::signoff()),
        "structural" => Ok(LintPolicy::structural()),
        key => StageId::from_key(key)
            .map(|_| LintPolicy::for_stage(key))
            .ok_or_else(|| {
                let stages: Vec<&str> = StageId::ALL.iter().map(|s| s.key()).collect();
                format!(
                    "unknown lint policy `{name}` (expected signoff, structural, or a stage key: {})",
                    stages.join(", ")
                )
            }),
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Drives a stage plan over a [`DesignState`], with observer callbacks and
/// checkpointing. Construct with [`FlowEngine::new`] (plan derived from
/// the configured [`Technique`]) or [`FlowEngine::with_stages`] (custom
/// stage graph).
pub struct FlowEngine<'a> {
    lib: &'a Library,
    config: FlowConfig,
    /// Per-corner libraries, characterised once per engine (empty when
    /// the configured corner set is invalid — surfaced as
    /// [`FlowError::InvalidCorners`] on the first run).
    corner_libs: Vec<CornerLibrary>,
    stages: Vec<Box<dyn Stage + 'a>>,
    observers: Vec<Box<dyn Observer + 'a>>,
}

/// Characterises the configured corners against the base library; an
/// invalid set yields an empty vec (reported at run time). Shared with
/// the suite batch driver so N designs reuse one characterisation.
pub(crate) fn build_corner_libs(lib: &Library, corners: &CornerSet) -> Vec<CornerLibrary> {
    if corners.validate().is_err() {
        return Vec::new();
    }
    CornerLibrary::build_set(lib, corners)
}

impl<'a> FlowEngine<'a> {
    /// An engine running the standard Fig. 4 plan for `config.technique`.
    pub fn new(lib: &'a Library, config: FlowConfig) -> Self {
        let corner_libs = build_corner_libs(lib, &config.corners);
        Self::with_corner_libraries(lib, config, corner_libs)
    }

    /// An engine reusing already-characterised corner libraries (they
    /// must have been built for `config.corners`); [`fork_sweep`] uses
    /// this so N parallel runs share one characterisation instead of
    /// regenerating the non-identity corners N times.
    pub fn with_corner_libraries(
        lib: &'a Library,
        config: FlowConfig,
        corner_libs: Vec<CornerLibrary>,
    ) -> Self {
        debug_assert!(
            corner_libs.is_empty()
                || corner_libs
                    .iter()
                    .map(|c| &c.corner)
                    .eq(config.corners.corners.iter()),
            "corner libraries must match config.corners"
        );
        let stages = StageId::plan(config.technique)
            .iter()
            .map(|&id| instantiate(id))
            .collect();
        FlowEngine {
            lib,
            config,
            corner_libs,
            stages,
            observers: Vec::new(),
        }
    }

    /// An engine running a caller-assembled stage list.
    pub fn with_stages(
        lib: &'a Library,
        config: FlowConfig,
        stages: Vec<Box<dyn Stage + 'a>>,
    ) -> Self {
        let corner_libs = build_corner_libs(lib, &config.corners);
        FlowEngine {
            lib,
            config,
            corner_libs,
            stages,
            observers: Vec::new(),
        }
    }

    /// The per-corner libraries this engine signs off against, in
    /// corner-set order.
    pub fn corner_libraries(&self) -> &[CornerLibrary] {
        &self.corner_libs
    }

    /// Registers an observer (builder style).
    #[must_use]
    pub fn observe(mut self, observer: impl Observer + 'a) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// The engine's flow configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The ordered stage plan this engine will execute.
    pub fn plan(&self) -> Vec<StageId> {
        self.stages.iter().map(|s| s.id()).collect()
    }

    /// Runs the full flow from RTL-lite source.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn run(&mut self, rtl: &str) -> Result<FlowResult, FlowError> {
        let mut state = DesignState::new();
        self.drive(&mut state, Some(rtl), None)?;
        FlowResult::from_state(state, self.lib)
    }

    /// Runs the full flow on an existing (all-low-Vth) netlist.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn run_netlist(&mut self, netlist: Netlist) -> Result<FlowResult, FlowError> {
        self.resume_owned(DesignState::from_netlist(netlist))
    }

    /// Runs the plan from RTL up to and including `until`, returning a
    /// [`Checkpoint`] that later flows (same or different config) can
    /// resume or fork from.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn run_until(&mut self, rtl: &str, until: StageId) -> Result<Checkpoint, FlowError> {
        let mut state = DesignState::new();
        self.drive(&mut state, Some(rtl), Some(until))?;
        Ok(Checkpoint::new(state))
    }

    /// Resumes a checkpoint and runs the remaining stages of this engine's
    /// plan to completion. Stages recorded as completed in the checkpoint
    /// are skipped; a pinned `config.clock_period` is re-applied so sweeps
    /// can fork one placed prefix across different clocks.
    ///
    /// A checkpoint that has already completed this plan is read without
    /// a restore: the result clones only the fields it owns out of the
    /// frozen state.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn resume(&mut self, checkpoint: &Checkpoint) -> Result<FlowResult, FlowError> {
        if let Some(result) = self.read_finished(checkpoint.state())? {
            return Ok(result);
        }
        self.resume_owned(checkpoint.restore())
    }

    /// Drives an owned working state through the rest of the plan: the
    /// copy-free [`FlowEngine::resume`] for forks that built their own
    /// state.
    pub(crate) fn resume_owned(&mut self, mut state: DesignState) -> Result<FlowResult, FlowError> {
        self.drive(&mut state, None, None)?;
        FlowResult::from_state(state, self.lib)
    }

    /// What [`FlowEngine::resume`] returns for a state that completed the
    /// plan, computed on the borrowed state: the same checks as `drive`,
    /// then [`FlowResult::from_finished`]. `Ok(None)` when a stage is
    /// left to run, a pinned clock would change the state, or a report
    /// is missing; the restoring path handles those.
    fn read_finished(&self, state: &DesignState) -> Result<Option<FlowResult>, FlowError> {
        if !self.stages.iter().all(|s| state.is_done(s.id())) {
            return Ok(None);
        }
        self.preflight(None)?;
        if let Some(pinned) = self.pinned_clock(state)? {
            let sta_period = state.sta.as_ref().map(|sta| sta.clock_period);
            if sta_period != Some(pinned) || state.clock_period != Some(pinned) {
                return Ok(None);
            }
        }
        Ok(FlowResult::from_finished(state, self.lib))
    }

    /// Like [`FlowEngine::resume`], but stops (inclusive) at `until` and
    /// returns a new checkpoint.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn resume_until(
        &mut self,
        checkpoint: &Checkpoint,
        until: StageId,
    ) -> Result<Checkpoint, FlowError> {
        let mut state = checkpoint.restore();
        self.drive(&mut state, None, Some(until))?;
        Ok(Checkpoint::new(state))
    }

    /// The checks made before any state is touched: `until` is in the
    /// plan, and the corner set and route config are valid.
    fn preflight(&self, until: Option<StageId>) -> Result<(), FlowError> {
        if let Some(stop) = until {
            if !self.stages.iter().any(|s| s.id() == stop) {
                return Err(FlowError::StageNotInPlan { stage: stop });
            }
        }
        if let Err(message) = self.config.corners.validate() {
            return Err(FlowError::InvalidCorners { message });
        }
        self.config
            .route
            .validate(self.lib)
            .map_err(FlowError::Route)
    }

    /// The period a pinned `config.clock_period` re-applies to `state`
    /// (`None` when nothing is pinned or no STA context exists yet).
    ///
    /// Re-pinning lets a fork of a checkpoint whose prefix selected a
    /// different (auto) period run at the pinned one, with the same
    /// floor `PlaceAndClock` enforces so resumed runs match fresh ones.
    /// It is only legal while nothing timing-dependent has run: past
    /// `AssignDualVth` the Vth assignment embeds the old period, and
    /// re-pinning would silently invalidate it.
    fn pinned_clock(&self, state: &DesignState) -> Result<Option<Time>, FlowError> {
        let (Some(_), Some(pinned)) = (&state.sta, self.config.clock_period) else {
            return Ok(None);
        };
        let pinned = pinned.max(MIN_CLOCK_PERIOD);
        let committed = state.clock_period.unwrap_or(pinned);
        let timing_done = state
            .completed
            .iter()
            .any(|s| !matches!(s, StageId::Synthesize | StageId::PlaceAndClock));
        if timing_done && pinned != committed {
            return Err(FlowError::ClockRepinnedAfterTiming { pinned, committed });
        }
        Ok(Some(pinned))
    }

    fn drive(
        &mut self,
        state: &mut DesignState,
        rtl: Option<&str>,
        until: Option<StageId>,
    ) -> Result<(), FlowError> {
        self.preflight(until)?;
        let pinned = self.pinned_clock(state)?;
        if let (Some(sta), Some(pinned)) = (state.sta.as_mut(), pinned) {
            sta.clock_period = pinned;
            state.clock_period = Some(pinned);
        }
        let ctx = FlowContext {
            lib: self.lib,
            corners: &self.corner_libs,
            config: &self.config,
            rtl,
        };
        for stage in &self.stages {
            let id = stage.id();
            if !state.is_done(id) {
                for o in &mut self.observers {
                    o.on_stage_start(id);
                }
                let t0 = std::time::Instant::now();
                state.last_wns = None;
                stage.run(state, &ctx)?;
                // Gate the stage's output before committing it: an
                // `Error` finding is a transform bug in *this* stage.
                // Signoff is exempt — `verify` just ran the full
                // signoff-policy analysis itself.
                if id != StageId::Signoff {
                    lint_gate(&state.netlist, self.lib, id)?;
                }
                state.completed.push(id);
                state.snapshot(id, self.lib);
                let elapsed = t0.elapsed();
                let metrics = state.stages.last().expect("snapshot just pushed");
                for o in &mut self.observers {
                    o.on_stage_end(id, metrics, elapsed);
                }
            }
            if until == Some(id) {
                break;
            }
        }
        Ok(())
    }
}

/// Builds the standard stage object for a [`StageId`].
pub fn instantiate(id: StageId) -> Box<dyn Stage> {
    match id {
        StageId::Synthesize => Box::new(Synthesize),
        StageId::PlaceAndClock => Box::new(PlaceAndClock),
        StageId::AssignDualVth => Box::new(AssignDualVth),
        StageId::MtReplace => Box::new(MtReplace),
        StageId::InsertHolders => Box::new(InsertHolders),
        StageId::ClusterSwitches => Box::new(ClusterSwitches),
        StageId::Cts => Box::new(Cts),
        StageId::RouteExtract => Box::new(RouteExtract),
        StageId::ReoptSwitches => Box::new(ReoptSwitches),
        StageId::EcoHoldFix => Box::new(EcoHoldFix),
        StageId::Signoff => Box::new(Signoff),
    }
}

// ---------------------------------------------------------------------------
// Stage implementations (the Fig. 4 boxes)
// ---------------------------------------------------------------------------

/// RTL-lite → mapped all-low-Vth netlist ([`StageId::Synthesize`]).
pub struct Synthesize;

impl Stage for Synthesize {
    fn id(&self) -> StageId {
        StageId::Synthesize
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        let rtl = ctx.rtl.ok_or(FlowError::MissingState {
            stage: StageId::Synthesize,
            what: "RTL source (seed the engine with run() or run_netlist())",
        })?;
        let netlist =
            synthesize(rtl, ctx.lib, &SynthOptions::default()).map_err(FlowError::Synth)?;
        state.golden = netlist.clone();
        state.netlist = netlist;
        Ok(())
    }
}

/// Initial placement, RC estimation and clock selection
/// ([`StageId::PlaceAndClock`]).
pub struct PlaceAndClock;

impl Stage for PlaceAndClock {
    fn id(&self) -> StageId {
        StageId::PlaceAndClock
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        let cfg = ctx.config;
        let placer = Placer::new(&state.netlist, ctx.lib, &cfg.placer).map_err(FlowError::Place)?;
        let parasitics = Parasitics::estimate(&state.netlist, ctx.lib, placer.placement());

        // Clock selection: probe the all-low critical delay with a huge
        // period at every setup corner — the slowest corner's critical
        // delay is what the clock must accommodate — then apply the
        // margin (unless the period is pinned). The subtraction rounds
        // monotonically, so the period minus the worst WNS is the worst
        // corner's critical delay bit for bit.
        let probe_cfg = StaConfig {
            clock_period: Time::from_ns(1000.0),
            ..cfg.sta.clone()
        };
        let probe_wns = worst_wns(
            &state.netlist,
            &ctx.setup_libs(),
            &parasitics,
            &probe_cfg,
            &Derating::none(),
        )?;
        let crit = probe_cfg.clock_period - probe_wns;
        let clock_period = cfg
            .clock_period
            .unwrap_or(crit * cfg.period_margin)
            .max(MIN_CLOCK_PERIOD);

        state.placer = Some(placer);
        state.estimated = Some(parasitics);
        state.clock_period = Some(clock_period);
        state.sta = Some(StaConfig {
            clock_period,
            ..cfg.sta.clone()
        });
        state.last_wns = Some(probe_wns);
        Ok(())
    }
}

/// Timing-driven low→high Vth assignment ([`StageId::AssignDualVth`]).
pub struct AssignDualVth;

impl Stage for AssignDualVth {
    fn id(&self) -> StageId {
        StageId::AssignDualVth
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        let cfg = ctx.config;
        let lib = ctx.lib;
        // Reserve slack for what happens after assignment: extraction error
        // and CTS skew (all techniques), plus the MT-cell delay penalty —
        // embedded for conventional; VGND-port penalty + worst-case bounce
        // derate for improved. Without the guard, assignment consumes all
        // slack on estimated RC and the post-route STA fails.
        let technique_penalty = match cfg.technique {
            Technique::DualVth => 0.0,
            Technique::ConventionalSmt => lib.config.mt_delay_penalty_embedded - 1.0,
            Technique::ImprovedSmt => {
                (lib.config.mt_delay_penalty_vgnd - 1.0)
                    + lib.tech.bounce_delay_sens * cfg.cluster.bounce_limit.volts()
                        / lib.tech.vdd.volts()
            }
        };
        let sta_cfg = state.sta(StageId::AssignDualVth)?.clone();
        let guard = sta_cfg.clock_period * 0.08;
        let dualvth_cfg = DualVthConfig {
            slack_margin: cfg.dualvth.slack_margin.max(guard),
            low_vth_derate: 1.0 + technique_penalty,
            ..cfg.dualvth.clone()
        };
        let parasitics = state.estimated.as_ref().ok_or(FlowError::MissingState {
            stage: StageId::AssignDualVth,
            what: "estimated parasitics",
        })?;
        // Worst-across-corners assignment: whatever stays low-Vth must
        // tolerate its MT conversion at the slow corner too.
        let report = assign_dual_vth_at_corners(
            &mut state.netlist,
            &ctx.setup_libs(),
            parasitics,
            &sta_cfg,
            &dualvth_cfg,
        )
        .map_err(FlowError::Assign)?;
        state.last_wns = Some(report.final_wns);
        state.dualvth = Some(report);
        Ok(())
    }
}

/// MT-cell replacement ([`StageId::MtReplace`]): embedded switches for the
/// conventional technique, VGND-port MT-cells for the improved one.
pub struct MtReplace;

impl Stage for MtReplace {
    fn id(&self) -> StageId {
        StageId::MtReplace
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        match ctx.config.technique {
            Technique::DualVth => {}
            Technique::ConventionalSmt => {
                to_conventional_smt(&mut state.netlist, ctx.lib);
            }
            Technique::ImprovedSmt => {
                to_improved_mt_cells(&mut state.netlist, ctx.lib);
            }
        }
        Ok(())
    }
}

/// Output-holder insertion and the initial one-switch-per-cell gating
/// ([`StageId::InsertHolders`], improved technique).
pub struct InsertHolders;

impl Stage for InsertHolders {
    fn id(&self) -> StageId {
        StageId::InsertHolders
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        insert_output_holders(&mut state.netlist, ctx.lib);
        let placement = placement_mut(&mut state.placer, StageId::InsertHolders)?;
        place_new_support_cells(&state.netlist, ctx.lib, placement);
        insert_initial_switch(&mut state.netlist, ctx.lib, ctx.config.cluster.bounce_limit);
        Ok(())
    }
}

/// Clustered switch-structure construction under the bounce / wirelength /
/// EM constraints, with a timing check that tightens the bounce budget and
/// re-clusters when the VGND derate breaks setup
/// ([`StageId::ClusterSwitches`]).
pub struct ClusterSwitches;

impl Stage for ClusterSwitches {
    fn id(&self) -> StageId {
        StageId::ClusterSwitches
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        let cfg = ctx.config;
        let lib = ctx.lib;
        let sta_cfg = state.sta(StageId::ClusterSwitches)?.clone();
        let placement = placement_mut(&mut state.placer, StageId::ClusterSwitches)?;
        let mut cl_cfg = cfg.cluster.clone();
        for attempt in 0..=cfg.recluster_retries {
            let report = construct_switch_structure(&mut state.netlist, lib, placement, &cl_cfg);
            let derates = {
                let clusters = cluster_state(&state.netlist, lib, placement, cl_cfg.length_detour);
                let mut d = Derating::uniform(&state.netlist);
                for (inst, f) in bounce_derates(lib, &clusters) {
                    d.set(inst, f);
                }
                d
            };
            let par = Parasitics::estimate(&state.netlist, lib, placement);
            let wns = worst_wns(&state.netlist, &ctx.setup_libs(), &par, &sta_cfg, &derates)?;
            if wns.ps() >= 0.0 || attempt == cfg.recluster_retries {
                state.cluster = Some(report);
                break;
            }
            // Tighten the bounce budget and re-cluster.
            cl_cfg.bounce_limit = cl_cfg.bounce_limit * 0.7;
        }
        Ok(())
    }
}

/// Clock-tree synthesis plus MTE-net buffering ([`StageId::Cts`]).
pub struct Cts;

impl Stage for Cts {
    fn id(&self) -> StageId {
        StageId::Cts
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        // The session replays the recorded tree bit-identically when the
        // clock fabric fingerprint is unchanged (warm what-if re-runs),
        // and falls back to full synthesis otherwise.
        let mut session = state.cts_session.take().unwrap_or_default();
        let placement = placement_mut(&mut state.placer, StageId::Cts)?;
        let cts = session.run(&mut state.netlist, placement, ctx.lib, &ctx.config.cts);
        state.cts_session = Some(session);
        if let (Some(r), Some(sta)) = (&cts, state.sta.as_mut()) {
            sta.clock_skew = r.skew();
        }
        state.cts = cts;
        if state.netlist.find_net("mte").is_some() {
            let placement = placement_mut(&mut state.placer, StageId::Cts)?;
            distribute_mte(
                &mut state.netlist,
                placement,
                ctx.lib,
                ctx.config.mte_max_fanout,
            );
        }
        Ok(())
    }
}

/// Global routing and RC extraction ([`StageId::RouteExtract`]).
pub struct RouteExtract;

impl Stage for RouteExtract {
    fn id(&self) -> StageId {
        StageId::RouteExtract
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        sync_routing(state, ctx, StageId::RouteExtract)
    }
}

/// Post-route switch re-optimization on extracted wire lengths
/// ([`StageId::ReoptSwitches`], improved technique).
pub struct ReoptSwitches;

impl Stage for ReoptSwitches {
    fn id(&self) -> StageId {
        StageId::ReoptSwitches
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        let extracted = state.extracted.as_ref().ok_or(FlowError::MissingState {
            stage: StageId::ReoptSwitches,
            what: "extracted parasitics",
        })?;
        let lengths: Vec<f64> = state
            .netlist
            .nets()
            .map(|(id, _)| extracted.net(id).length_um)
            .collect();
        // Size each cluster's switch for its binding corner (the slow
        // corner's resistive devices bounce hardest).
        let report = reoptimize_switches_at_corners(
            &mut state.netlist,
            &ctx.corner_libs(),
            ctx.config.cluster.bounce_limit,
            |id| lengths.get(id.index()).copied().unwrap_or(0.0),
        );
        state.reopt = Some(report);
        Ok(())
    }
}

/// Setup-recovery and hold-fix ECO on extracted RC
/// ([`StageId::EcoHoldFix`]).
pub struct EcoHoldFix;

impl Stage for EcoHoldFix {
    fn id(&self) -> StageId {
        StageId::EcoHoldFix
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        let lib = ctx.lib;
        // Fold netlist edits made since routing (post-route switch
        // sizing) into routing and extraction before timing anything.
        if state.extracted.is_some() {
            sync_routing(state, ctx, StageId::EcoHoldFix)?;
        }
        let extracted = state.extracted.as_ref().ok_or(FlowError::MissingState {
            stage: StageId::EcoHoldFix,
            what: "extracted parasitics",
        })?;
        // Final derating from extracted lengths (VGND bounce, improved
        // technique only).
        let derating = if ctx.config.technique == Technique::ImprovedSmt {
            let lengths: Vec<f64> = state
                .netlist
                .nets()
                .map(|(id, _)| extracted.net(id).length_um)
                .collect();
            let clusters = smt_power::analyze_vgnd(&state.netlist, lib, |id| {
                lengths.get(id.index()).copied().unwrap_or(0.0)
            });
            let mut d = Derating::uniform(&state.netlist);
            for (inst, f) in bounce_derates(lib, &clusters) {
                d.set(inst, f);
            }
            d
        } else {
            Derating::none()
        };
        let sta_cfg = state.sta(StageId::EcoHoldFix)?.clone();
        // Setup recovery against the worst setup corner; hold padding
        // against the union of violations at the hold corners.
        //
        // Recovery and the row repack interact: an upsize can force the
        // repack to shift neighbours, and the shifted wires cost delay
        // that the recovery pass never saw. The old flow signed off on
        // the stale pre-repack RC and hid that cost; here each pass
        // re-routes and re-extracts exactly the nets whose fingerprints
        // moved (setup swaps, repack shifts) and recovers again against
        // fresh numbers until the moves die out — unmoved nets keep
        // their routed trees and extracted entries byte for byte.
        for _pass in 0..3 {
            let extracted = state.extracted.as_ref().ok_or(FlowError::MissingState {
                stage: StageId::EcoHoldFix,
                what: "extracted parasitics",
            })?;
            let setup_fix = crate::eco::recover_setup_at_corners(
                &mut state.netlist,
                &ctx.setup_libs(),
                extracted,
                &sta_cfg,
                &derating,
                20,
            )
            .map_err(FlowError::Cycle)?;
            if setup_fix.touched.is_empty() {
                break;
            }
            // Setup fixes are in-place variant/drive swaps; re-legalize
            // just the rows they touched instead of re-running placement.
            // The repack can shift *other* cells in those rows; the
            // fingerprint scan picks their nets up too.
            let placer = placer_mut(&mut state.placer, StageId::EcoHoldFix)?;
            placer.replace_cells(&state.netlist, ctx.lib, &setup_fix.touched);
            sync_routing(state, ctx, StageId::EcoHoldFix)?;
        }
        let extracted = state.extracted.as_ref().ok_or(FlowError::MissingState {
            stage: StageId::EcoHoldFix,
            what: "extracted parasitics",
        })?;
        let placement = placement_mut(&mut state.placer, StageId::EcoHoldFix)?;
        let hold_fix = fix_hold_at_corners(
            &mut state.netlist,
            placement,
            &ctx.hold_libs(),
            extracted,
            &sta_cfg,
            &derating,
            ctx.config.hold_rounds,
        )
        .map_err(FlowError::Cycle)?;
        state.hold_fix = Some(hold_fix);
        state.derating = Some(derating);
        Ok(())
    }
}

/// Final STA, verification, and power accounting ([`StageId::Signoff`]).
pub struct Signoff;

impl Stage for Signoff {
    fn id(&self) -> StageId {
        StageId::Signoff
    }

    fn run(&self, state: &mut DesignState, ctx: &FlowContext<'_>) -> Result<(), FlowError> {
        let lib = ctx.lib;
        let extracted = state.extracted.as_ref().ok_or(FlowError::MissingState {
            stage: StageId::Signoff,
            what: "extracted parasitics",
        })?;
        let sta_cfg = state.sta(StageId::Signoff)?.clone();
        let derating = state.derating.clone().unwrap_or_else(Derating::none);
        // One `TimingGraph`, sink cache and gather time the primary
        // library and every non-identity corner: topology and the
        // gathered loads and wire delays are corner-invariant. Each
        // corner keeps only its WNS, TNS and hold count, so the timing
        // state is gone before equivalence checking starts.
        let (timing, corner_timing) = {
            let netlist = &state.netlist;
            let graph = TimingGraph::build(netlist, lib).map_err(FlowError::Cycle)?;
            let cache = graph.build_cache(netlist);
            let libs: Vec<&Library> = std::iter::once(lib)
                .chain(
                    ctx.corners
                        .iter()
                        .filter(|cl| !cl.corner.is_identity())
                        .map(|cl| &cl.lib),
                )
                .collect();
            let timing_state = TimingState::new(
                &graph, &cache, netlist, &libs, extracted, &sta_cfg, &derating,
            );
            let timing = timing_state.report(0, &cache, netlist, &derating);
            state.last_wns = Some(timing.wns);
            if !timing.setup_met() {
                return Err(FlowError::TimingNotMet { wns: timing.wns });
            }
            // Per corner in `ctx.corners` order: its index into `libs`,
            // none for the identity corner, which reuses the primary.
            let mut next = 0;
            let indices: Vec<Option<usize>> = ctx
                .corners
                .iter()
                .map(|cl| {
                    (!cl.corner.is_identity()).then(|| {
                        next += 1;
                        next
                    })
                })
                .collect();
            // One corner per worker of the pool the sweeps use.
            let corner_timing = parallel_map(&indices, 0, |k| {
                k.map(|k| {
                    let t = timing_state.report(k, &cache, netlist, &derating);
                    (t.wns, t.tns, t.hold_violations.len())
                })
            });
            (timing, corner_timing)
        };

        // One standby snapshot serves the standby-safety check and the
        // leakage pricing below.
        let standby = standby_snapshot(&state.netlist, lib).map_err(FlowError::Cycle)?;
        // Equivalence: fraig proves what it can, and residue cones whose
        // DUT fingerprint the memo already holds replay their verdict.
        // The report digest stays bit-identical to an uncached run.
        let mut equiv_cache = state.equiv_cache.take().unwrap_or_default();
        let verify_report = verify_inner(
            &state.golden,
            &state.netlist,
            lib,
            ctx.config.verify_cycles,
            ctx.config.seed,
            &standby,
            Some(&mut equiv_cache),
        )
        .map_err(FlowError::Verify)?;
        state.equiv_cache = Some(equiv_cache);

        // Leakage through the ledger: refresh rebuilds the per-instance
        // rows, and pricing replays the exact accumulation sequence of
        // the from-scratch walks — at the primary library here and per
        // corner below — bit-identically.
        let mut ledger = state.power_ledger.take().unwrap_or_default();
        ledger.refresh(&state.netlist, lib, &standby);
        let standby_total = ledger.price(lib, PricingMode::Standby).total();
        let active_total = ledger.price(lib, PricingMode::ActiveMean).total();

        // Per-corner signoff table: the final design's timing at every
        // corner (above) and its leakage re-priced there. The identity
        // corner's row is the primary signoff verbatim — its library is a
        // clone of the base, so re-running analyze/leakage there would
        // only recompute the identical numbers.
        let corner_signoff: Vec<CornerSignoff> = ctx
            .corners
            .iter()
            .zip(&corner_timing)
            .map(|(cl, corner)| match *corner {
                None => CornerSignoff {
                    corner: cl.corner.clone(),
                    wns: timing.wns,
                    tns: timing.tns,
                    hold_violations: timing.hold_violations.len(),
                    standby_leakage: standby_total,
                    active_leakage: active_total,
                },
                Some((wns, tns, hold_violations)) => CornerSignoff {
                    corner: cl.corner.clone(),
                    wns,
                    tns,
                    hold_violations,
                    // Re-pricing the cached rows per corner replaces a
                    // netlist + snapshot walk per corner library.
                    standby_leakage: ledger.price(&cl.lib, PricingMode::Standby).total(),
                    active_leakage: ledger.price(&cl.lib, PricingMode::ActiveMean).total(),
                },
            })
            .collect();
        // Enforce setup at every corner that signs it off (the primary
        // corner was already enforced above and is reused verbatim for
        // the identity corner).
        if let Some(worst) = corner_signoff
            .iter()
            .filter(|c| c.corner.check_setup && c.wns.ps() < 0.0)
            .map(|c| c.wns)
            .min_by(Time::total_cmp)
        {
            return Err(FlowError::TimingNotMet { wns: worst });
        }

        state.timing = Some(timing);
        state.verify = Some(verify_report);
        state.standby_leakage = Some(standby_total);
        state.active_leakage = Some(active_total);
        state.corner_signoff = corner_signoff;
        state.power_ledger = Some(ledger);
        Ok(())
    }
}

/// The worst setup WNS of `netlist` across the corner libraries `libs`,
/// timed by one [`TimingState`] over all of them.
fn worst_wns(
    netlist: &Netlist,
    libs: &[&Library],
    parasitics: &Parasitics,
    config: &StaConfig,
    derating: &Derating,
) -> Result<Time, FlowError> {
    let reports =
        corner_reports(netlist, libs, parasitics, config, derating).map_err(FlowError::Cycle)?;
    Ok(reports
        .iter()
        .map(|r| r.wns)
        .fold(Time::new(f64::INFINITY), Time::min))
}

/// Places support cells added after initial placement (output holders) at
/// the location of the net driver they attach to.
fn place_new_support_cells(netlist: &Netlist, lib: &Library, placement: &mut Placement) {
    for (id, inst) in netlist.instances() {
        let cell = lib.cell(inst.cell);
        if cell.role != smt_cells::cell::CellRole::Holder {
            continue;
        }
        let Some(pin) = cell.pin_index("A") else {
            continue;
        };
        let Some(net) = inst.net_on(pin) else {
            continue;
        };
        if let Some(smt_netlist::netlist::NetDriver::Inst(pr)) = netlist.net(net).driver {
            let loc = placement.loc(pr.inst);
            placement.set_loc(id, loc);
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel sweeps
// ---------------------------------------------------------------------------

/// One run of a sweep: a label plus the full configuration to fork from
/// the shared prefix checkpoint.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Row label in reports.
    pub label: String,
    /// Flow configuration for this run.
    pub config: FlowConfig,
}

impl SweepRun {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, config: FlowConfig) -> Self {
        SweepRun {
            label: label.into(),
            config,
        }
    }
}

/// Outcome of one sweep run.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Label copied from the [`SweepRun`].
    pub label: String,
    /// The run's result (sweeps keep going when individual runs fail).
    pub result: Result<FlowResult, FlowError>,
}

/// Fans one RTL + library out across many configurations, sharing the
/// synthesis + placement + clock-selection prefix via a [`Checkpoint`] and
/// running the divergent suffixes on `threads` OS threads (`0` = one per
/// available core).
///
/// The prefix (stages [`StageId::Synthesize`] and
/// [`StageId::PlaceAndClock`]) is executed **once** under `base`; each
/// run's technique-specific suffix then forks the frozen state. Prefix
/// knobs (`placer`, `sta`, `period_margin`) are therefore taken from
/// `base` — per-run configs that pin `clock_period` are honoured at fork
/// time, everything downstream (technique, dual-Vth, clustering, routing,
/// ECO, verification) comes from the per-run config.
///
/// # Errors
///
/// Fails only when the shared prefix fails; per-run failures are reported
/// in each [`SweepOutcome`].
pub fn run_sweep(
    rtl: &str,
    lib: &Library,
    base: &FlowConfig,
    runs: &[SweepRun],
    threads: usize,
) -> Result<Vec<SweepOutcome>, FlowError> {
    let checkpoint = FlowEngine::new(lib, base.clone()).run_until(rtl, StageId::PlaceAndClock)?;
    Ok(fork_sweep(lib, &checkpoint, runs, threads, &mut |set| {
        build_corner_libs(lib, set)
    }))
}

// The shared fan-out worker pool lives in `smt_base::par::parallel_map`
// (the level-parallel timing kernel in `smt-sta` drains the same pool):
// [`fork_sweep`] runs one flow per thread and the multi-corner
// [`Signoff`] stage one corner per thread.

/// The fan-out half of [`run_sweep`]: forks an existing checkpoint across
/// `runs`, in parallel on up to `threads` OS threads (`0` = one per
/// available core). Results come back in `runs` order, and a run that
/// panics comes back as [`FlowError::RunPanicked`].
///
/// `corner_libs_for` resolves the characterised corner libraries of a
/// corner set: [`run_sweep`] characterises cold, the session what-ifs
/// read the daemon's warm [`LibraryPool`](crate::session::LibraryPool).
pub fn fork_sweep(
    lib: &Library,
    checkpoint: &Checkpoint,
    runs: &[SweepRun],
    threads: usize,
    corner_libs_for: &mut dyn FnMut(&CornerSet) -> Vec<CornerLibrary>,
) -> Vec<SweepOutcome> {
    // Resolve each distinct corner set once, serially and up front (the
    // resolver may be backed by a shared pool); the forked engines clone
    // the result instead of regenerating the non-identity corner
    // libraries per run.
    let mut corner_cache: Vec<(CornerSet, Vec<CornerLibrary>)> = Vec::new();
    for run in runs {
        if !corner_cache.iter().any(|(s, _)| *s == run.config.corners) {
            corner_cache.push((
                run.config.corners.clone(),
                corner_libs_for(&run.config.corners),
            ));
        }
    }
    let results = parallel_map(runs, threads, |run: &SweepRun| {
        let corners = corner_cache
            .iter()
            .find(|(s, _)| *s == run.config.corners)
            .map(|(_, l)| l.clone())
            .unwrap_or_default();
        // Isolate panics so one infeasible run surfaces as an Err
        // outcome instead of tearing down the whole sweep.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FlowEngine::with_corner_libraries(lib, run.config.clone(), corners).resume(checkpoint)
        }))
        .unwrap_or_else(|payload| {
            Err(FlowError::RunPanicked {
                message: panic_message(payload),
            })
        })
    });
    runs.iter()
        .zip(results)
        .map(|(run, result)| SweepOutcome {
            label: run.label.clone(),
            result,
        })
        .collect()
}

/// Convenience: runs all three techniques on the same RTL with the same
/// constraints and returns the results in `[Dual-Vth, Conv, Improved]`
/// order — the exact comparison of the paper's Table 1.
///
/// The synthesis + placement + clock-probe prefix runs **once**; the
/// Dual-Vth baseline completes first (it pins the clock for the other
/// two), then the conventional and improved flows fork the same checkpoint
/// in parallel.
///
/// # Errors
///
/// Fails if any individual flow fails.
pub fn run_three_techniques(
    rtl: &str,
    lib: &Library,
    base: &FlowConfig,
) -> Result<[FlowResult; 3], FlowError> {
    let mut probe_cfg = base.clone();
    probe_cfg.technique = Technique::DualVth;
    let mut engine = FlowEngine::new(lib, probe_cfg);
    let checkpoint = engine.run_until(rtl, StageId::PlaceAndClock)?;
    let dual = engine.resume(&checkpoint)?;

    // Pin the clock so all three see identical constraints.
    let clock = dual.clock_period;
    let mut conv_cfg = base.clone();
    conv_cfg.technique = Technique::ConventionalSmt;
    conv_cfg.clock_period = Some(clock);
    let mut imp_cfg = base.clone();
    imp_cfg.technique = Technique::ImprovedSmt;
    imp_cfg.clock_period = Some(clock);

    let runs = [
        SweepRun::new("conventional", conv_cfg),
        SweepRun::new("improved", imp_cfg),
    ];
    let mut outcomes = fork_sweep(lib, &checkpoint, &runs, 2, &mut |set| {
        build_corner_libs(lib, set)
    })
    .into_iter();
    let conv = outcomes.next().expect("two outcomes").result?;
    let imp = outcomes.next().expect("two outcomes").result?;
    Ok([dual, conv, imp])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_policy_accepts_exactly_the_documented_names() {
        assert_eq!(lint_policy("signoff"), Ok(LintPolicy::signoff()));
        assert_eq!(lint_policy("structural"), Ok(LintPolicy::structural()));
        for stage in StageId::ALL {
            assert_eq!(
                lint_policy(stage.key()),
                Ok(LintPolicy::for_stage(stage.key())),
                "{stage:?}"
            );
        }
        for bad in ["sigoff", "", "Signoff", "place"] {
            let err = lint_policy(bad).expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            for name in ["signoff", "structural"]
                .into_iter()
                .chain(StageId::ALL.iter().map(|s| s.key()))
            {
                assert!(err.contains(name), "`{name}` missing from: {err}");
            }
        }
    }
}
