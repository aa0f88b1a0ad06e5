//! End-to-end contracts of the flow service, over real loopback TCP:
//!
//! * a cold `flow` through `smtd` is bit-identical (same outcome
//!   digest) to an in-process engine run on the same canonical
//!   netlist, and a warm second `flow` reuses the characterised
//!   library, the session, and the finals checkpoint, while it and a
//!   warm what-if read nothing from the design cache — asserted via
//!   the reply's stats, not timing;
//! * re-flowing that session under another technique re-opens it cold
//!   from the cached design and is bit-identical to an in-process run
//!   under that technique;
//! * `lint` digests identically to a local analysis, and a misspelled
//!   policy is refused;
//! * garbage frames and unknown methods (including the removed shard
//!   verbs) poison only their own connection, and a drain leaves no
//!   half-served requests behind;
//! * a hostile route config gets an error reply, and the daemon keeps
//!   serving.

use selective_mt::base::json::Json;
use selective_mt::cells::library::Library;
use selective_mt::circuits::families::{generate, standard_suite, SuiteScale, Workload};
use selective_mt::core::cache::DesignCache;
use selective_mt::core::engine::{FlowConfig, FlowEngine, Technique};
use selective_mt::core::suite::SuiteOutcome;
use selective_mt::serve::{CallError, Client, Daemon, DaemonConfig, DaemonHandle};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn daemon(tag: &str) -> DaemonHandle {
    Daemon::spawn(DaemonConfig {
        cache_dir: temp_dir(tag),
        drain_timeout: Duration::from_secs(60),
        ..DaemonConfig::default()
    })
    .expect("daemon boots")
}

fn connect(handle: &DaemonHandle) -> Client {
    Client::connect(&handle.addr().to_string(), Duration::from_secs(5)).expect("client connects")
}

fn obj(pairs: &[(&str, Json)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn stat_bool(reply: &Json, key: &str) -> Option<bool> {
    reply
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_bool)
}

/// The `(hits, misses)` design-cache delta a reply's stats report.
fn cache_reads(reply: &Json) -> (Option<usize>, Option<usize>) {
    let cache = reply.get("stats").and_then(|s| s.get("cache"));
    let count = |key| cache.and_then(|c| c.get(key)).and_then(Json::as_usize);
    (count("hits"), count("misses"))
}

/// The smallest Smoke workload keeps full-flow tests fast.
fn smallest_smoke() -> Workload {
    standard_suite(SuiteScale::Smoke)
        .into_iter()
        .min_by_key(|w| w.config.estimated_gates())
        .expect("smoke suite is non-empty")
}

fn await_finished(handle: &DaemonHandle) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "daemon did not drain in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn warm_flow_is_bit_identical_to_cold_and_in_process_runs() {
    let handle = daemon("flow");
    let mut client = connect(&handle);
    let workload = smallest_smoke();
    let params = obj(&[
        ("design", Json::Str(workload.name.clone())),
        ("session", Json::Str("warm".to_owned())),
    ]);

    // Cold: everything is built from scratch.
    let cold = client.call("flow", params.clone()).expect("cold flow");
    let cold_digest = cold
        .get("digest")
        .and_then(Json::as_str)
        .expect("flow reply carries a digest")
        .to_owned();
    assert_eq!(stat_bool(&cold, "library_warm"), Some(false));
    assert_eq!(stat_bool(&cold, "session_reused"), Some(false));
    assert_eq!(stat_bool(&cold, "finals_reused"), Some(false));
    let cold_misses = cold
        .get("stats")
        .and_then(|s| s.get("cache"))
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_usize);
    assert_eq!(cold_misses, Some(1), "cold flow realises the design once");

    // Warm: same request is served from the session's finals
    // checkpoint and the library pool — and is bit-identical. The
    // session already holds the canonical netlist, so a warm request
    // never touches the design cache.
    let warm = client.call("flow", params).expect("warm flow");
    assert_eq!(
        warm.get("digest").and_then(Json::as_str),
        Some(cold_digest.as_str())
    );
    assert_eq!(stat_bool(&warm, "library_warm"), Some(true));
    assert_eq!(stat_bool(&warm, "session_reused"), Some(true));
    assert_eq!(stat_bool(&warm, "finals_reused"), Some(true));
    assert_eq!(
        cache_reads(&warm),
        (Some(0), Some(0)),
        "a warm flow reads no design from the cache"
    );

    // A what-if forks the warm session without disturbing it: an ECO
    // with the default hold budget reproduces the base digest.
    let eco = client
        .call(
            "eco",
            obj(&[
                ("design", Json::Str(workload.name.clone())),
                ("session", Json::Str("warm".to_owned())),
                ("hold_rounds", Json::Num(f64::from(6))),
            ]),
        )
        .expect("eco what-if");
    assert_eq!(stat_bool(&eco, "session_reused"), Some(true));
    assert_eq!(
        cache_reads(&eco),
        (Some(0), Some(0)),
        "a warm what-if reads no design from the cache"
    );
    let runs = eco.get("runs").and_then(Json::as_arr).expect("eco runs");
    assert_eq!(runs.len(), 1);
    assert_eq!(
        runs[0].get("digest").and_then(Json::as_str),
        Some(cold_digest.as_str()),
        "an ECO at the session's own hold budget is the identity fork"
    );

    // In-process reference: same canonical netlist (through a design
    // cache of our own), same configuration, one-shot engine.
    let lib = Library::industrial_130nm();
    let mut cache =
        DesignCache::open(temp_dir("flow-reference"), &lib).expect("reference cache opens");
    let netlist = cache
        .get_or_insert(
            &workload.name,
            workload.config.family(),
            workload.config.fingerprint(),
            &lib,
            || generate(&lib, &workload.config).map_err(|e| e.to_string()),
        )
        .expect("reference design realises");
    let config = FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    };
    let result = FlowEngine::new(&lib, config)
        .run_netlist(netlist.clone())
        .expect("reference flow");
    let reference = format!("{:016x}", SuiteOutcome::from_flow(&result).digest());
    assert_eq!(
        cold_digest, reference,
        "daemon flow and in-process engine run must be bit-identical"
    );

    // A config switch on the same session re-opens it cold: the design
    // is read back from the cache and the prefix is placed again.
    let improved = client
        .call(
            "flow",
            obj(&[
                ("design", Json::Str(workload.name.clone())),
                ("session", Json::Str("warm".to_owned())),
                ("technique", Json::Str("improved".to_owned())),
            ]),
        )
        .expect("improved flow");
    assert_eq!(stat_bool(&improved, "session_reused"), Some(false));
    assert_eq!(
        cache_reads(&improved),
        (Some(1), Some(0)),
        "a re-open reads the cached design"
    );
    let improved_config = FlowConfig {
        technique: Technique::ImprovedSmt,
        ..FlowConfig::default()
    };
    let result = FlowEngine::new(&lib, improved_config)
        .run_netlist(netlist)
        .expect("improved reference flow");
    assert_eq!(
        improved.get("digest").and_then(Json::as_str),
        Some(format!("{:016x}", SuiteOutcome::from_flow(&result).digest()).as_str()),
        "a re-opened daemon flow and the in-process run must be bit-identical"
    );

    // The wire `lint` method answers from the same warm design cache
    // and digests identically to a local analysis of the same netlist.
    let lint = client
        .call("lint", obj(&[("design", Json::Str(workload.name.clone()))]))
        .expect("lint");
    assert_eq!(lint.get("clean").and_then(Json::as_bool), Some(true));
    let local = selective_mt::netlist::check::analyze(
        &cache
            .get_or_insert(
                &workload.name,
                workload.config.family(),
                workload.config.fingerprint(),
                &lib,
                || generate(&lib, &workload.config).map_err(|e| e.to_string()),
            )
            .expect("reference design realises again"),
        &lib,
        &selective_mt::netlist::check::LintPolicy::signoff(),
    );
    assert_eq!(
        lint.get("digest").and_then(Json::as_str),
        Some(format!("{:016x}", local.digest()).as_str()),
        "wire lint digest must match a local signoff analysis"
    );
    // A misspelled policy is refused, not silently run without the
    // MT-wiring rules.
    match client.call(
        "lint",
        obj(&[
            ("design", Json::Str(workload.name.clone())),
            ("policy", Json::Str("sigoff".to_owned())),
        ]),
    ) {
        Err(CallError::Remote(e)) => {
            assert_eq!(e.code, "bad-request");
            assert!(e.message.contains("structural"), "got: {e:?}");
        }
        other => panic!("expected a bad-request error, got {other:?}"),
    }

    // Drain: the shutdown reply confirms, and the accept loop exits.
    let bye = client.call("shutdown", obj(&[])).expect("shutdown");
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
    await_finished(&handle);
    handle.wait();
}

#[test]
fn garbage_frames_and_unknown_methods_poison_only_their_connection() {
    use std::io::{BufRead, BufReader, Write};

    let handle = daemon("hygiene");

    // A raw connection spewing non-JSON gets one bad-frame error and a
    // closed connection.
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("raw connect");
    raw.write_all(b"this is not json\n").expect("send garbage");
    raw.flush().expect("flush");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut line = String::new();
    BufReader::new(raw.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("error reply");
    assert!(line.contains("bad-frame"), "got: {line}");

    // The daemon is still perfectly healthy for everyone else.
    let mut client = connect(&handle);
    assert_eq!(
        client.call("ping", obj(&[])).expect("ping"),
        Json::Bool(true)
    );

    // Unknown methods are structured errors, not disconnects. The shard
    // verbs are unknown too: sharded suites run through the `suite` bin.
    for method in ["frobnicate", "suite", "run_shard", "register-worker"] {
        match client.call(method, obj(&[])) {
            Err(CallError::Remote(e)) => assert_eq!(e.code, "unknown-method", "{method}"),
            other => panic!("`{method}`: expected a remote error, got {other:?}"),
        }
        assert_eq!(
            client.call("ping", obj(&[])).expect("ping again"),
            Json::Bool(true)
        );
    }

    // Status reflects the traffic and the drain finishes clean.
    let status = client.call("status", obj(&[])).expect("status");
    assert!(
        status
            .get("served")
            .and_then(Json::as_usize)
            .expect("served")
            >= 3
    );
    client.call("shutdown", obj(&[])).expect("shutdown");
    await_finished(&handle);
    handle.wait();
}

#[test]
fn hostile_route_config_gets_an_error_reply_and_the_daemon_keeps_serving() {
    let handle = daemon("hostile-route");
    let mut client = connect(&handle);
    let design = Json::Str(smallest_smoke().name);
    let flow_with_route = |route: &[(&str, Json)]| {
        obj(&[
            ("design", design.clone()),
            ("config", obj(&[("route", obj(route))])),
        ])
    };

    // A 0.1 nm tile would size the routing grid at about a terabyte:
    // an allocation failure aborts the process, which no panic guard
    // catches. It must be refused before anything is routed.
    match client.call("flow", flow_with_route(&[("tile_um", Json::Num(1e-4))])) {
        Err(CallError::Remote(e)) => {
            assert!(e.message.contains("tile_um"), "got: {e:?}");
        }
        other => panic!("expected a remote error, got {other:?}"),
    }

    // Rip-up & reroute is not run: asking for it is a typed flow error.
    match client.call(
        "flow",
        flow_with_route(&[("rrr_iterations", Json::Num(2.0))]),
    ) {
        Err(CallError::Remote(e)) => {
            assert_eq!(e.code, "flow", "got: {e:?}");
            assert!(e.message.contains("rrr_iterations"), "got: {e:?}");
        }
        other => panic!("expected a remote error, got {other:?}"),
    }

    // The same daemon answers a valid request afterwards.
    let ok = client
        .call("flow", flow_with_route(&[("tile_um", Json::Num(8.0))]))
        .expect("valid flow after a refused one");
    assert!(ok.get("digest").and_then(Json::as_str).is_some());
    client.call("shutdown", obj(&[])).expect("shutdown");
    await_finished(&handle);
    handle.wait();
}
