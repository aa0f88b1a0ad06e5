//! # smt-bench
//!
//! Experiment harness for the reproduction: one function per table/figure
//! of the paper, shared between the `cargo run -p smt-bench --bin ...`
//! regeneration binaries and the Criterion performance benches.
//!
//! | Paper artefact | Regeneration |
//! |---|---|
//! | Table 1 | [`table1`] / `--bin table1` |
//! | Fig. 1 (MT-cell structures) | `--bin fig1_mtcell` |
//! | Fig. 2 (conventional circuit) | `--bin fig2_conventional` |
//! | Fig. 3 (improved circuit) | `--bin fig3_improved` |
//! | Fig. 4 (design flow) | `--bin fig4_flow` |
//! | Ablations (ours) | `--bin ablate_bounce`, `--bin ablate_cluster`, `--bin ablate_reopt` |

pub mod harness;

use smt_base::report::{percent, Table};
use smt_cells::corner::CornerSet;
use smt_cells::library::Library;
use smt_core::flow::{run_three_techniques, FlowConfig, FlowResult};

/// The two benchmark circuits of Table 1 and the flow margin that shapes
/// their critical fraction (see DESIGN.md: circuit A is datapath-dense,
/// circuit B slack-rich).
pub struct Table1Workload {
    /// Row label, `A` or `B`.
    pub name: &'static str,
    /// RTL-lite source.
    pub rtl: String,
    /// Auto-period margin over the all-low critical delay. A tighter
    /// margin leaves more cells timing-critical (more MT-cells), which is
    /// the property that separates circuit A from circuit B in the paper.
    pub period_margin: f64,
    /// Cap on the high-Vth swap fraction — emulates the paper-era
    /// assignment operating point (~40% of circuit A / ~26% of circuit B
    /// remained low-Vth/MT). See `DualVthConfig::max_high_fraction`.
    pub max_high_fraction: f64,
}

/// The default Table 1 workloads.
pub fn table1_workloads() -> Vec<Table1Workload> {
    vec![
        Table1Workload {
            name: "A",
            rtl: smt_circuits::rtl::circuit_a_rtl(),
            period_margin: 1.22,
            max_high_fraction: 0.60,
        },
        Table1Workload {
            name: "B",
            rtl: smt_circuits::rtl::circuit_b_rtl(),
            period_margin: 1.30,
            max_high_fraction: 0.74,
        },
    ]
}

/// One circuit's Table 1 measurements.
pub struct Table1Row {
    /// Circuit label.
    pub name: &'static str,
    /// `[Dual-Vth, Conventional, Improved]` flow results.
    pub results: [FlowResult; 3],
}

impl Table1Row {
    /// Area of each technique normalised to Dual-Vth.
    pub fn area_ratios(&self) -> [f64; 3] {
        let base = self.results[0].area.um2();
        [
            1.0,
            self.results[1].area.um2() / base,
            self.results[2].area.um2() / base,
        ]
    }

    /// Standby leakage of each technique normalised to Dual-Vth.
    pub fn leakage_ratios(&self) -> [f64; 3] {
        let base = self.results[0].standby_leakage.ua();
        [
            1.0,
            self.results[1].standby_leakage.ua() / base,
            self.results[2].standby_leakage.ua() / base,
        ]
    }
}

/// Runs the full Table 1 experiment: both circuits through all three
/// techniques under identical constraints.
///
/// # Panics
///
/// Panics if any flow fails — the bundled workloads are tested to pass.
pub fn table1(lib: &Library) -> Vec<Table1Row> {
    table1_at_corners(lib, &CornerSet::typical_only())
}

/// Runs the Table 1 experiment signed off at a set of PVT corners: each
/// flow evaluates setup at the slowest corner and hold at the fastest,
/// and every [`FlowResult`] carries the per-corner leakage/WNS rows (the
/// Table 1 comparison *at each corner*).
///
/// # Panics
///
/// Panics if any flow fails — the bundled workloads are tested to pass
/// at [`CornerSet::slow_typ_fast`].
pub fn table1_at_corners(lib: &Library, corners: &CornerSet) -> Vec<Table1Row> {
    table1_workloads()
        .into_iter()
        .map(|w| {
            let mut cfg = FlowConfig {
                period_margin: w.period_margin,
                corners: corners.clone(),
                ..FlowConfig::default()
            };
            cfg.dualvth.max_high_fraction = Some(w.max_high_fraction);
            let results = run_three_techniques(&w.rtl, lib, &cfg)
                .unwrap_or_else(|e| panic!("table1 circuit {} failed: {e}", w.name));
            Table1Row {
                name: w.name,
                results,
            }
        })
        .collect()
}

/// Paper reference values for Table 1, `[circuit][technique]`.
pub const PAPER_TABLE1_AREA: [[f64; 3]; 2] = [[1.0, 1.6484, 1.3318], [1.0, 1.4222, 1.1565]];
/// See [`PAPER_TABLE1_AREA`].
pub const PAPER_TABLE1_LEAK: [[f64; 3]; 2] = [[1.0, 0.1458, 0.0942], [1.0, 0.1942, 0.1221]];

/// The render-ready digest of one [`Table1Row`]: just the numbers the
/// report prints, decoupled from the heavyweight [`FlowResult`]s so the
/// report *format* can be golden-snapshot-tested on canned values
/// (`tests/golden_table1.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Summary {
    /// Circuit label.
    pub name: String,
    /// `[Dual-Vth, Conventional, Improved]` area, normalised to Dual-Vth.
    pub area_ratios: [f64; 3],
    /// `[Dual-Vth, Conventional, Improved]` standby leakage, normalised.
    pub leakage_ratios: [f64; 3],
    /// Per-corner signoff digests, technique-major then corner order.
    pub corners: Vec<CornerSummary>,
}

/// One technique × corner signoff line of the per-corner table.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSummary {
    /// Technique label.
    pub technique: String,
    /// Corner name.
    pub corner: String,
    /// Setup WNS, ps.
    pub wns_ps: f64,
    /// Hold violations.
    pub hold_violations: usize,
    /// Standby leakage, µA.
    pub standby_ua: f64,
    /// Active leakage, µA.
    pub active_ua: f64,
}

impl Table1Summary {
    /// Digests a measured row.
    pub fn from_row(row: &Table1Row) -> Self {
        let mut corners = Vec::new();
        for (r, tech) in row.results.iter().zip(["Dual-Vth", "Con.-SMT", "Imp.-SMT"]) {
            for c in &r.corner_signoff {
                corners.push(CornerSummary {
                    technique: tech.to_owned(),
                    corner: c.corner.name.clone(),
                    wns_ps: c.wns.ps(),
                    hold_violations: c.hold_violations,
                    standby_ua: c.standby_leakage.ua(),
                    active_ua: c.active_leakage.ua(),
                });
            }
        }
        Table1Summary {
            name: row.name.to_owned(),
            area_ratios: row.area_ratios(),
            leakage_ratios: row.leakage_ratios(),
            corners,
        }
    }
}

/// Digests every measured row (see [`Table1Summary`]).
pub fn summarize_table1(rows: &[Table1Row]) -> Vec<Table1Summary> {
    rows.iter().map(Table1Summary::from_row).collect()
}

/// Renders measured rows side by side with the paper's numbers.
pub fn render_table1(rows: &[Table1Row]) -> Table {
    render_table1_summaries(&summarize_table1(rows))
}

/// [`render_table1`] on pre-digested summaries.
pub fn render_table1_summaries(rows: &[Table1Summary]) -> Table {
    let mut t = Table::new(
        "Table 1: comparison of three techniques (measured vs paper)",
        &[
            "Circuit",
            "Metric",
            "Dual-Vth",
            "Con.-SMT",
            "Imp.-SMT",
            "paper Con.",
            "paper Imp.",
        ],
    );
    for (ci, row) in rows.iter().enumerate() {
        let a = row.area_ratios;
        let l = row.leakage_ratios;
        t.row_owned(vec![
            row.name.clone(),
            "Area".to_owned(),
            percent(a[0]),
            percent(a[1]),
            percent(a[2]),
            percent(PAPER_TABLE1_AREA[ci][1]),
            percent(PAPER_TABLE1_AREA[ci][2]),
        ]);
        t.row_owned(vec![
            row.name.clone(),
            "Leakage".to_owned(),
            percent(l[0]),
            percent(l[1]),
            percent(l[2]),
            percent(PAPER_TABLE1_LEAK[ci][1]),
            percent(PAPER_TABLE1_LEAK[ci][2]),
        ]);
    }
    t
}

/// Checks the qualitative claims of Table 1 on measured rows; returns the
/// list of violated claims (empty = shape reproduced).
pub fn check_table1_shape(rows: &[Table1Row]) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        let a = row.area_ratios();
        let l = row.leakage_ratios();
        let mut claim = |ok: bool, text: String| {
            if !ok {
                violations.push(format!("circuit {}: {}", row.name, text));
            }
        };
        claim(
            a[1] > a[2] && a[2] > 1.0,
            format!(
                "area ordering Dual < Imp < Conv (got {:.3} / {:.3} / {:.3})",
                a[0], a[2], a[1]
            ),
        );
        claim(
            l[1] < 0.5 && l[2] < l[1],
            format!(
                "leakage ordering Imp < Conv << Dual (got conv {:.3}, imp {:.3})",
                l[1], l[2]
            ),
        );
        claim(
            a[2] - 1.0 < 0.75 * (a[1] - 1.0),
            format!(
                "improved recovers a large share of the SMT area overhead (conv +{:.1}%, imp +{:.1}%)",
                (a[1] - 1.0) * 100.0,
                (a[2] - 1.0) * 100.0
            ),
        );
    }
    violations
}

/// Renders the per-corner signoff rows of every technique: circuit x
/// technique x corner, with WNS, hold count and leakage at that corner.
pub fn render_corner_table(rows: &[Table1Row]) -> Table {
    render_corner_summaries(&summarize_table1(rows))
}

/// [`render_corner_table`] on pre-digested summaries.
pub fn render_corner_summaries(rows: &[Table1Summary]) -> Table {
    let mut t = Table::new(
        "Per-corner signoff (leakage / WNS at each PVT corner)",
        &[
            "Circuit",
            "Technique",
            "Corner",
            "WNS ps",
            "Hold viol.",
            "Standby uA",
            "Active uA",
        ],
    );
    for row in rows {
        for c in &row.corners {
            t.row_owned(vec![
                row.name.clone(),
                c.technique.clone(),
                c.corner.clone(),
                format!("{:.1}", c.wns_ps),
                c.hold_violations.to_string(),
                format!("{:.6}", c.standby_ua),
                format!("{:.6}", c.active_ua),
            ]);
        }
    }
    t
}
