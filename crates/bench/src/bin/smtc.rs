//! The `smtd` command-line client: one request per invocation, the
//! response JSON on stdout.
//!
//! ```text
//! cargo run --release -p smt-bench --bin smtc -- [--addr HOST:PORT] [--timeout-ms N] VERB ...
//!
//!   ping
//!   status
//!   shutdown
//!   flow DESIGN [--scale S] [--technique T] [--corners] [--session NAME]
//!   eco DESIGN --hold-rounds N [flow opts]
//!   vth-swap DESIGN [--max-high-fraction F] [--slack-margin-ps PS] [flow opts]
//!   signoff DESIGN --corners-set typical|slow-typ-fast [flow opts]
//!   raw METHOD PARAMS-JSON                   escape hatch (e.g. `lint`)
//! ```
//!
//! Exits 0 on a successful reply, 1 on a remote error, 2 on usage
//! errors.

use smt_base::json::Json;
use smt_serve::Client;
use std::collections::BTreeMap;
use std::time::Duration;

fn fail(code: i32, message: &str) -> ! {
    eprintln!("smtc: {message}");
    std::process::exit(code);
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A verb-specific flag handler: consumes a flag (and its value from
/// the iterator), answering whether it recognised the flag.
type ExtraFlag<'a> =
    dyn FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<bool, String> + 'a;

/// Flow-shaped verbs share design/scale/technique/corners/session
/// flags; verb-specific flags are handled by `extra`.
fn parse_flow_params(
    args: &[String],
    extra: &mut ExtraFlag<'_>,
) -> Result<BTreeMap<String, Json>, String> {
    let mut m = BTreeMap::new();
    let mut it = args.iter();
    let mut design: Option<String> = None;
    while let Some(arg) = it.next() {
        let value = |name: &str, it: &mut std::slice::Iter<'_, String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                m.insert("scale".to_owned(), Json::Str(value("--scale", &mut it)?));
            }
            "--technique" => {
                m.insert(
                    "technique".to_owned(),
                    Json::Str(value("--technique", &mut it)?),
                );
            }
            "--corners" => {
                m.insert("corners".to_owned(), Json::Bool(true));
            }
            "--session" => {
                m.insert(
                    "session".to_owned(),
                    Json::Str(value("--session", &mut it)?),
                );
            }
            other => {
                if extra(other, &mut it)? {
                    continue;
                }
                if other.starts_with('-') || design.is_some() {
                    return Err(format!("unexpected argument `{other}`"));
                }
                design = Some(other.to_owned());
            }
        }
    }
    let design = design.ok_or("this verb needs a DESIGN name")?;
    m.insert("design".to_owned(), Json::Str(design));
    Ok(m)
}

fn parse_num(name: &str, v: &str) -> Result<f64, String> {
    v.parse::<f64>().map_err(|e| format!("{name}: {e}"))
}

fn build_request(verb: &str, rest: &[String]) -> Result<(String, Json), String> {
    match verb {
        "ping" | "status" | "shutdown" => Ok((verb.to_owned(), obj(vec![]))),
        "flow" => {
            // No verb-specific flags; the shared parser takes the
            // positional DESIGN and rejects unknown flags itself.
            let m = parse_flow_params(rest, &mut |_, _| Ok(false))?;
            Ok(("flow".to_owned(), Json::Obj(m)))
        }
        "eco" => {
            let mut hold_rounds = None;
            let m = parse_flow_params(rest, &mut |a, it| match a {
                "--hold-rounds" => {
                    let v = it.next().ok_or("`--hold-rounds` needs a value")?;
                    hold_rounds = Some(parse_num("--hold-rounds", v)?);
                    Ok(true)
                }
                _ => Ok(false),
            })?;
            let mut m = m;
            m.insert(
                "hold_rounds".to_owned(),
                Json::Num(hold_rounds.ok_or("eco needs --hold-rounds N")?),
            );
            Ok(("eco".to_owned(), Json::Obj(m)))
        }
        "vth-swap" => {
            let mut dualvth = BTreeMap::new();
            let m = parse_flow_params(rest, &mut |a, it| match a {
                "--max-high-fraction" => {
                    let v = it.next().ok_or("`--max-high-fraction` needs a value")?;
                    dualvth.insert(
                        "max_high_fraction".to_owned(),
                        Json::Num(parse_num("--max-high-fraction", v)?),
                    );
                    Ok(true)
                }
                "--slack-margin-ps" => {
                    let v = it.next().ok_or("`--slack-margin-ps` needs a value")?;
                    dualvth.insert(
                        "slack_margin_ps".to_owned(),
                        Json::Num(parse_num("--slack-margin-ps", v)?),
                    );
                    Ok(true)
                }
                _ => Ok(false),
            })?;
            let mut m = m;
            m.insert("dualvth".to_owned(), Json::Obj(dualvth));
            Ok(("vth-swap".to_owned(), Json::Obj(m)))
        }
        "signoff" => {
            let mut corners_set = None;
            let mut m = parse_flow_params(rest, &mut |a, it| match a {
                "--corners-set" => {
                    corners_set = Some(
                        it.next()
                            .cloned()
                            .ok_or("`--corners-set` needs typical|slow-typ-fast")?,
                    );
                    Ok(true)
                }
                _ => Ok(false),
            })?;
            m.insert(
                "corners".to_owned(),
                Json::Str(corners_set.ok_or("signoff needs --corners-set")?),
            );
            Ok(("signoff".to_owned(), Json::Obj(m)))
        }
        "raw" => {
            let method = rest.first().ok_or("raw needs METHOD PARAMS-JSON")?;
            let params = rest.get(1).ok_or("raw needs METHOD PARAMS-JSON")?;
            let params = smt_base::json::parse(params).map_err(|e| format!("params: {e}"))?;
            Ok((method.clone(), params))
        }
        other => Err(format!("unknown verb `{other}`")),
    }
}

fn main() {
    let mut addr = "127.0.0.1:2005".to_owned();
    let mut timeout = None;
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    while let Some(first) = args.first().cloned() {
        match first.as_str() {
            "--addr" => {
                args.remove(0);
                if args.is_empty() {
                    fail(2, "`--addr` needs a value");
                }
                addr = args.remove(0);
            }
            "--timeout-ms" => {
                args.remove(0);
                if args.is_empty() {
                    fail(2, "`--timeout-ms` needs a value");
                }
                let ms: u64 = args
                    .remove(0)
                    .parse()
                    .unwrap_or_else(|e| fail(2, &format!("--timeout-ms: {e}")));
                timeout = Some(Duration::from_millis(ms));
            }
            _ => break,
        }
    }
    let Some(verb) = args.first().cloned() else {
        fail(
            2,
            "usage: smtc [--addr HOST:PORT] [--timeout-ms N] \
             ping|status|shutdown|flow|eco|vth-swap|signoff|raw ...",
        );
    };
    let (method, params) =
        build_request(&verb, &args[1..]).unwrap_or_else(|e| fail(2, &format!("{verb}: {e}")));

    let mut client = Client::connect(&addr, Duration::from_secs(5))
        .unwrap_or_else(|e| fail(1, &format!("connecting {addr}: {e}")));
    match client.call_timeout(&method, params, timeout) {
        Ok(reply) => println!("{}", reply.render()),
        Err(e) => fail(1, &format!("`{method}`: {e}")),
    }
}
