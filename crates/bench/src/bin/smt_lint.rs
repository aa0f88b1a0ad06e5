//! `smt-lint`: standalone static analysis of SNL netlists — the same
//! engine the flow's per-stage lint gate, the signoff verifier and the
//! `smtd` daemon run, packaged as a CI gate for any design artifact.
//!
//! ```text
//! cargo run --release -p smt-bench --bin smt-lint -- [options] [FILE.snl ...]
//!
//!   FILE.snl                     analyze an SNL netlist (repeatable)
//!   --suite smoke|standard|large analyze every generated suite design,
//!                                round-tripped through SNL text
//!   --policy signoff|structural|<stage-key>
//!                                rule selection [signoff]
//!   --threads N                  analyzer workers (0 = cores; the
//!                                report is identical at any count) [0]
//!   --waive RULE=OBJECT          suppress RULE on OBJECT (repeatable;
//!                                OBJECT `*` waives everywhere)
//!   --deny-warnings              exit non-zero on warnings too
//!   --json                       machine-readable output
//!
//! exit status: 0 clean, 1 diagnostics at denied severity, 2 usage or
//! file errors.
//! ```
//!
//! Every report line carries the rule's stable key (`undriven-net`,
//! `comb-loop`, ...) and each design's FNV diagnostic digest is
//! printed, so two runs — any thread count, any machine — are
//! comparable bit-for-bit.

use smt_base::json::Json;
use smt_cells::library::Library;
use smt_circuits::families::{generate, standard_suite, SuiteScale};
use smt_core::engine::lint_policy;
use smt_netlist::check::{analyze_with_threads, LintPolicy, LintReport, RuleId, Severity, Waiver};
use smt_netlist::netlist::Netlist;
use smt_synth::snl;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Options {
    files: Vec<String>,
    suite: Option<SuiteScale>,
    policy: LintPolicy,
    threads: usize,
    deny_warnings: bool,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        files: Vec::new(),
        suite: None,
        policy: LintPolicy::signoff(),
        threads: 0,
        deny_warnings: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--suite" => {
                o.suite = Some(match value("--suite")?.as_str() {
                    "smoke" => SuiteScale::Smoke,
                    "standard" => SuiteScale::Standard,
                    "large" => SuiteScale::Large,
                    other => return Err(format!("unknown scale `{other}`")),
                })
            }
            "--policy" => o.policy = lint_policy(&value("--policy")?)?,
            "--threads" | "--jobs" => {
                o.threads = value(&arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--waive" => {
                let spec = value("--waive")?;
                let (rule, object) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--waive wants RULE=OBJECT, got `{spec}`"))?;
                let rule = RuleId::from_key(rule)
                    .ok_or_else(|| format!("--waive: unknown rule `{rule}`"))?;
                o.policy.waivers.push(Waiver {
                    rule,
                    object: object.to_owned(),
                });
            }
            "--deny-warnings" => o.deny_warnings = true,
            "--json" => o.json = true,
            "--help" | "-h" => {
                print!("{}", USAGE);
                std::process::exit(0);
            }
            other if !other.starts_with('-') => o.files.push(other.to_owned()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if o.files.is_empty() && o.suite.is_none() {
        return Err("nothing to analyze: pass FILE.snl or --suite".to_owned());
    }
    Ok(o)
}

const USAGE: &str = "\
usage: smt-lint [options] [FILE.snl ...]
  --suite smoke|standard|large  analyze every generated suite design
  --policy signoff|structural|<stage-key>
  --threads N                   analyzer workers (0 = cores)
  --waive RULE=OBJECT           suppress RULE on OBJECT (repeatable)
  --deny-warnings               exit non-zero on warnings too
  --json                        machine-readable output
";

/// One analyzed design: where it came from and what the engine found.
struct Analyzed {
    label: String,
    report: LintReport,
    /// Object names resolved while the netlist was alive.
    objects: Vec<String>,
}

fn analyze_netlist(label: &str, netlist: &Netlist, lib: &Library, o: &Options) -> Analyzed {
    let report = analyze_with_threads(netlist, lib, &o.policy, o.threads);
    let objects = report
        .diagnostics
        .iter()
        .map(|d| d.object.name(netlist).to_owned())
        .collect();
    Analyzed {
        label: label.to_owned(),
        report,
        objects,
    }
}

fn run() -> Result<Vec<Analyzed>, String> {
    let o = parse_args()?;
    let lib = Library::industrial_130nm();
    let mut analyzed = Vec::new();
    for file in &o.files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let netlist = snl::load(&text, &lib).map_err(|e| format!("{file}: {e}"))?;
        analyzed.push(analyze_netlist(file, &netlist, &lib, &o));
    }
    if let Some(scale) = o.suite {
        // Round-trip every generated design through SNL text so the
        // suite mode exercises the same serialisation path a dumped
        // artifact would take.
        for workload in standard_suite(scale) {
            let netlist =
                generate(&lib, &workload.config).map_err(|e| format!("{}: {e}", workload.name))?;
            let text = snl::write(&netlist, &lib).map_err(|e| format!("{}: {e}", workload.name))?;
            let netlist = snl::load(&text, &lib).map_err(|e| format!("{}: {e}", workload.name))?;
            analyzed.push(analyze_netlist(&workload.name, &netlist, &lib, &o));
        }
    }
    emit(&analyzed, &o);
    let denied = |r: &LintReport| {
        !r.is_clean()
            || (o.deny_warnings
                && r.diagnostics
                    .iter()
                    .any(|d| d.severity == Severity::Warning))
    };
    if analyzed.iter().any(|a| denied(&a.report)) {
        return Err(String::new()); // findings already printed
    }
    Ok(analyzed)
}

fn emit(analyzed: &[Analyzed], o: &Options) {
    if o.json {
        let designs = analyzed
            .iter()
            .map(|a| {
                let counts = a.report.counts();
                let mut m = BTreeMap::new();
                m.insert("design".to_owned(), Json::Str(a.label.clone()));
                m.insert(
                    "digest".to_owned(),
                    Json::Str(format!("{:016x}", a.report.digest())),
                );
                m.insert("clean".to_owned(), Json::Bool(a.report.is_clean()));
                m.insert("errors".to_owned(), Json::Num(counts.errors as f64));
                m.insert("warnings".to_owned(), Json::Num(counts.warnings as f64));
                m.insert("infos".to_owned(), Json::Num(counts.infos as f64));
                let diags = a
                    .report
                    .diagnostics
                    .iter()
                    .zip(&a.objects)
                    .map(|(d, object)| {
                        let mut dm = BTreeMap::new();
                        dm.insert("rule".to_owned(), Json::Str(d.rule.key().to_owned()));
                        dm.insert(
                            "severity".to_owned(),
                            Json::Str(d.severity.key().to_owned()),
                        );
                        dm.insert("object".to_owned(), Json::Str(object.clone()));
                        dm.insert("message".to_owned(), Json::Str(d.message.clone()));
                        Json::Obj(dm)
                    })
                    .collect();
                m.insert("diagnostics".to_owned(), Json::Arr(diags));
                Json::Obj(m)
            })
            .collect();
        println!("{}", Json::Arr(designs).render());
        return;
    }
    for a in analyzed {
        let counts = a.report.counts();
        for d in &a.report.diagnostics {
            println!("{}: {d}", a.label);
        }
        println!(
            "{}: {} error(s), {} warning(s), {} info(s)  [digest {:016x}]",
            a.label,
            counts.errors,
            counts.warnings,
            counts.infos,
            a.report.digest()
        );
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(message) if message.is_empty() => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("smt-lint: {message}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
