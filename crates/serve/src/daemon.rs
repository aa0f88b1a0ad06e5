//! The resident `smtd` daemon: a thread-per-connection TCP server over
//! the [`smt_base::proto`] line protocol that keeps flow state warm
//! between requests.
//!
//! ## Warm state
//!
//! One [`Library`] is built at boot; corner characterisations are
//! memoised in a [`LibraryPool`]; per-design [`Session`]s hold a
//! placed-and-clocked prefix [`Checkpoint`] and, after the first full
//! flow, a signed-off finals checkpoint. A session is matched on the
//! workload's config fingerprint, so only a cold open realises the
//! design, through the on-disk [`DesignCache`] (canonical SNL form, the
//! same bytes the `suite` bin runs). A warm `flow` request is
//! therefore a read of the finals checkpoint: no design-cache read, no
//! SNL parse, no checkpoint copy. It is bit-identical to the cold run
//! (the response carries the outcome digest so clients can verify
//! exactly that). A warm what-if deep-copies the one checkpoint it
//! forks.
//!
//! ## Isolation
//!
//! Every request body runs under `catch_unwind`: a panicking what-if
//! answers `{"err": {"code": "panicked", ...}}` on its own connection
//! and poisons nothing (poisoned mutexes are recovered, and flow state
//! is only mutated by short critical sections that cannot panic
//! mid-write). A garbage or
//! oversized frame earns one `bad-frame` error and a closed connection
//! — never a dead daemon.
//!
//! ## Shutdown
//!
//! A `shutdown` request or SIGTERM (see [`signals`]) sets the draining
//! flag: the acceptor stops taking connections, requests already
//! executing run to completion (bounded by
//! [`DaemonConfig::drain_timeout`]), queued-but-unstarted requests are
//! cancelled with a `draining` error, and the design cache needs no
//! flush because every store is an atomic temp-file + rename. The
//! process exits only after the drain completes, so CI never leaves
//! an orphaned daemon or torn cache entries.

use smt_base::json::Json;
use smt_base::par::panic_message;
use smt_base::proto::{write_frame, FrameReader, Poll, Request, Response, WireError};
use smt_cells::corner::CornerSet;
use smt_cells::library::Library;
use smt_circuits::families::{generate, standard_suite, SuiteScale, Workload};
use smt_core::cache::{CacheStats, DesignCache};
use smt_core::config_io::JsonConfig;
use smt_core::dualvth::DualVthConfig;
use smt_core::engine::{lint_policy, Checkpoint, FlowConfig, SweepRun, Technique};
use smt_core::session::{
    complete_flow, config_identity, finals_result, run_what_if, LibraryPool, Session,
    SessionRegistry, WhatIf,
};
use smt_core::suite::SuiteOutcome;
use smt_netlist::netlist::Netlist;
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the inner value if a previous holder
/// panicked — a poisoned session must never take down the daemon.
fn recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Design-cache directory.
    pub cache_dir: PathBuf,
    /// Worker-pool cap for `sweep` fan-out (0 = all cores).
    pub threads: usize,
    /// How long `shutdown` waits for in-flight requests.
    pub drain_timeout: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: PathBuf::from(smt_core::cache::DEFAULT_DIR),
            threads: 0,
            drain_timeout: Duration::from_secs(30),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

struct State {
    config: DaemonConfig,
    lib: Library,
    pool: Mutex<LibraryPool>,
    sessions: Mutex<SessionRegistry>,
    cache: Mutex<DesignCache>,
    draining: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
    inflight: AtomicUsize,
    served: AtomicUsize,
    started: Instant,
}

impl State {
    fn begin_drain(&self) {
        let mut started = recover(&self.drain_started);
        if started.is_none() {
            *started = Some(Instant::now());
        }
        self.draining.store(true, Ordering::SeqCst);
    }

    fn drain_deadline_passed(&self) -> bool {
        recover(&self.drain_started)
            .map(|t| t.elapsed() > self.config.drain_timeout)
            .unwrap_or(false)
    }
}

/// A running daemon: its bound address plus control over its lifetime.
pub struct DaemonHandle {
    addr: SocketAddr,
    state: Arc<State>,
    accept: JoinHandle<()>,
}

impl DaemonHandle {
    /// The actually-bound listen address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a drain (idempotent): stop accepting, let in-flight
    /// requests finish, then exit the accept loop.
    pub fn begin_drain(&self) {
        self.state.begin_drain();
    }

    /// True once the accept loop has exited.
    pub fn is_finished(&self) -> bool {
        self.accept.is_finished()
    }

    /// Blocks until the daemon has drained and stopped.
    pub fn wait(self) {
        let _ = self.accept.join();
    }
}

/// The daemon entry point.
pub struct Daemon;

impl Daemon {
    /// Binds, warms the library, opens the design cache, and starts
    /// the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Bind or cache-open failure.
    pub fn spawn(config: DaemonConfig) -> Result<DaemonHandle, String> {
        let lib = Library::industrial_130nm();
        let cache = DesignCache::open(&config.cache_dir, &lib).map_err(|e| e.to_string())?;
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let state = Arc::new(State {
            config,
            lib,
            pool: Mutex::new(LibraryPool::new()),
            sessions: Mutex::new(SessionRegistry::new()),
            cache: Mutex::new(cache),
            draining: AtomicBool::new(false),
            drain_started: Mutex::new(None),
            inflight: AtomicUsize::new(0),
            served: AtomicUsize::new(0),
            started: Instant::now(),
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("smtd-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_state))
            .map_err(|e| format!("spawning accept thread: {e}"))?;
        Ok(DaemonHandle {
            addr,
            state,
            accept,
        })
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    loop {
        if state.draining.load(Ordering::SeqCst) {
            let drained = state.inflight.load(Ordering::SeqCst) == 0;
            if drained || state.drain_deadline_passed() {
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if state.draining.load(Ordering::SeqCst) {
                    // Refused politely: one error frame, then close.
                    let mut w = BufWriter::new(stream);
                    let _ = write_frame(
                        &mut w,
                        &Response::err(0, "draining", "daemon is shutting down").to_json(),
                    );
                    continue;
                }
                let conn_state = Arc::clone(state);
                let _ = std::thread::Builder::new()
                    .name("smtd-conn".to_owned())
                    .spawn(move || serve_connection(&conn_state, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn serve_connection(state: &Arc<State>, stream: TcpStream) {
    stream.set_nodelay(true).ok();
    // Short read timeouts let idle connection threads notice a drain.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let mut reader = FrameReader::new(stream);
    loop {
        match reader.poll() {
            Ok(Poll::Frame(frame)) => {
                let response = match Request::from_json(&frame) {
                    Ok(request) => handle_request(state, request),
                    Err(e) => Response::err(0, "bad-request", e.to_string()),
                };
                if write_frame(&mut writer, &response.to_json()).is_err() {
                    break;
                }
            }
            Ok(Poll::Pending) => {
                if state.draining.load(Ordering::SeqCst) && reader.is_idle() {
                    break;
                }
            }
            Ok(Poll::Eof) => break,
            Err(e) => {
                // Garbage, oversized, or truncated frames: reject the
                // connection, not the daemon.
                let _ = write_frame(
                    &mut writer,
                    &Response::err(0, "bad-frame", e.to_string()).to_json(),
                );
                break;
            }
        }
    }
}

fn handle_request(state: &Arc<State>, request: Request) -> Response {
    if request.method == "shutdown" {
        return handle_shutdown(state, request.id);
    }
    if state.draining.load(Ordering::SeqCst) {
        // The drain contract: unstarted requests are cancelled with a
        // reported error rather than silently dropped.
        return Response::err(
            request.id,
            "draining",
            "daemon is draining; request cancelled",
        );
    }
    state.inflight.fetch_add(1, Ordering::SeqCst);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dispatch(state, &request.method, &request.params)
    }));
    state.inflight.fetch_sub(1, Ordering::SeqCst);
    state.served.fetch_add(1, Ordering::SeqCst);
    match result {
        Ok(Ok(payload)) => Response::ok(request.id, payload),
        Ok(Err(e)) => Response {
            id: request.id,
            result: Err(e),
        },
        Err(payload) => Response::err(request.id, "panicked", panic_message(payload)),
    }
}

fn handle_shutdown(state: &Arc<State>, id: u64) -> Response {
    state.begin_drain();
    let deadline = Instant::now() + state.config.drain_timeout;
    while state.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let cancelled = state.inflight.load(Ordering::SeqCst);
    let mut m = BTreeMap::new();
    m.insert("draining".to_owned(), Json::Bool(true));
    m.insert(
        "served".to_owned(),
        num(state.served.load(Ordering::SeqCst)),
    );
    m.insert("cancelled_inflight".to_owned(), num(cancelled));
    Response::ok(id, Json::Obj(m))
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

fn bad(message: impl Into<String>) -> WireError {
    WireError::new("bad-request", message)
}

fn num(v: usize) -> Json {
    Json::Num(v as f64)
}

fn dispatch(state: &Arc<State>, method: &str, params: &Json) -> Result<Json, WireError> {
    match method {
        "ping" => Ok(Json::Bool(true)),
        "status" => Ok(status(state)),
        "flow" => flow(state, params),
        "vth-swap" | "eco" | "signoff" | "sweep" => what_if(state, method, params),
        "lint" => lint(state, params),
        other => Err(WireError::new(
            "unknown-method",
            format!(
                "unknown method `{other}` (expected ping | status | flow | vth-swap | eco | \
                 signoff | sweep | lint | shutdown)"
            ),
        )),
    }
}

fn status(state: &Arc<State>) -> Json {
    let mut m = BTreeMap::new();
    m.insert(
        "uptime_ms".to_owned(),
        Json::Num(state.started.elapsed().as_millis() as f64),
    );
    m.insert(
        "served".to_owned(),
        num(state.served.load(Ordering::SeqCst)),
    );
    m.insert(
        "inflight".to_owned(),
        num(state.inflight.load(Ordering::SeqCst)),
    );
    m.insert(
        "draining".to_owned(),
        Json::Bool(state.draining.load(Ordering::SeqCst)),
    );
    m.insert(
        "library_fp".to_owned(),
        Json::Str(format!("{:016x}", state.lib.fingerprint())),
    );
    {
        let pool = recover(&state.pool);
        let mut p = BTreeMap::new();
        p.insert("corner_sets".to_owned(), num(pool.len()));
        p.insert("characterised".to_owned(), num(pool.characterised));
        p.insert("hits".to_owned(), num(pool.hits));
        m.insert("library_pool".to_owned(), Json::Obj(p));
    }
    {
        let sessions = recover(&state.sessions);
        let mut s = BTreeMap::new();
        s.insert("created".to_owned(), num(sessions.stats.created));
        s.insert("reused".to_owned(), num(sessions.stats.reused));
        s.insert("evicted".to_owned(), num(sessions.stats.evicted));
        s.insert(
            "names".to_owned(),
            Json::Arr(
                sessions
                    .names()
                    .into_iter()
                    .map(|n| Json::Str(n.to_owned()))
                    .collect(),
            ),
        );
        m.insert("sessions".to_owned(), Json::Obj(s));
    }
    m.insert(
        "cache".to_owned(),
        cache_stats_json(recover(&state.cache).stats()),
    );
    Json::Obj(m)
}

fn cache_stats_json(stats: CacheStats) -> Json {
    let mut c = BTreeMap::new();
    c.insert("hits".to_owned(), num(stats.hits));
    c.insert("misses".to_owned(), num(stats.misses));
    c.insert("invalidated".to_owned(), num(stats.invalidated));
    Json::Obj(c)
}

fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidated: after.invalidated - before.invalidated,
    }
}

// ---------------------------------------------------------------------------
// Sessions: flow + what-ifs
// ---------------------------------------------------------------------------

fn parse_scale(params: &Json) -> Result<SuiteScale, WireError> {
    match params.get("scale").and_then(Json::as_str) {
        None => Ok(SuiteScale::Smoke),
        Some("smoke") => Ok(SuiteScale::Smoke),
        Some("standard") => Ok(SuiteScale::Standard),
        Some("large") => Ok(SuiteScale::Large),
        Some(other) => Err(bad(format!("unknown scale `{other}`"))),
    }
}

fn parse_flow_config(params: &Json) -> Result<FlowConfig, WireError> {
    if let Some(cfg) = params.get("config") {
        return FlowConfig::from_json_value(cfg, "config").map_err(|e| bad(e.to_string()));
    }
    let mut config = FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    };
    if let Some(t) = params.get("technique").and_then(Json::as_str) {
        config.technique = Technique::parse_json_str(t).map_err(bad)?;
    }
    if params.get("corners").and_then(Json::as_bool) == Some(true) {
        config.corners = CornerSet::slow_typ_fast();
    }
    Ok(config)
}

/// Finds the named workload at the given scale.
fn find_workload(design: &str, scale: SuiteScale) -> Result<Workload, WireError> {
    standard_suite(scale)
        .into_iter()
        .find(|w| w.name == design)
        .ok_or_else(|| {
            let names: Vec<String> = standard_suite(scale).into_iter().map(|w| w.name).collect();
            bad(format!(
                "unknown design `{design}` at this scale (available: {})",
                names.join(", ")
            ))
        })
}

/// Realises a workload through the design cache. Returns the canonical
/// netlist and this request's cache-stat delta.
fn realise_design(
    state: &Arc<State>,
    workload: &Workload,
) -> Result<(Netlist, CacheStats), WireError> {
    let mut cache = recover(&state.cache);
    let before = cache.stats();
    let lib = &state.lib;
    let netlist = cache
        .get_or_insert(
            &workload.name,
            workload.config.family(),
            workload.config.fingerprint(),
            lib,
            || generate(lib, &workload.config).map_err(|e| e.to_string()),
        )
        .map_err(|e| WireError::new("flow", e.to_string()))?;
    Ok((netlist, cache_delta(before, cache.stats())))
}

/// A session's warm state as one request sees it. The checkpoints are
/// clones that share the registry's frozen states.
struct SessionView {
    name: String,
    design_fp: u64,
    config_fp: u64,
    prefix: Checkpoint,
    finals: Option<Checkpoint>,
    config: FlowConfig,
    reused: bool,
    /// Design-cache delta: non-zero only when the session opened cold.
    cache: CacheStats,
}

impl SessionView {
    /// Applies `update` to the registry's session under this view's
    /// name, but only while it still matches the design and config this
    /// request ran under. The request ran outside the registry lock, so
    /// a concurrent request may have re-opened the name under another
    /// design or config; that session must not receive this request's
    /// finals or counts.
    fn write_back(&self, state: &State, update: impl FnOnce(&mut Session)) {
        let mut sessions = recover(&state.sessions);
        if let Some(s) = sessions.get_matching_mut(&self.name, self.design_fp, self.config_fp) {
            update(s);
        }
    }
}

/// Looks up (or cold-opens) the session for `workload` under `config`.
/// A warm session is matched on the workload's config fingerprint, so
/// only a cold open realises the design. The realisation and the
/// prefix run happen outside the registry lock; only the lookup and
/// the final insert hold it.
fn acquire_session(
    state: &Arc<State>,
    session_name: &str,
    workload: &Workload,
    config: &FlowConfig,
) -> Result<SessionView, WireError> {
    let design_fp = workload.config.fingerprint();
    let config_fp = config_identity(config, &state.lib);
    {
        let mut sessions = recover(&state.sessions);
        if let Some(s) = sessions.get(session_name) {
            if s.matches(design_fp, config_fp) {
                let view = SessionView {
                    name: session_name.to_owned(),
                    design_fp,
                    config_fp,
                    prefix: s.prefix().clone(),
                    finals: s.finals().cloned(),
                    config: s.config.clone(),
                    reused: true,
                    cache: CacheStats::default(),
                };
                sessions.note_reuse();
                return Ok(view);
            }
        }
    }
    let (netlist, cache) = realise_design(state, workload)?;
    let (corner_libs, _) = recover(&state.pool).corner_libs(&state.lib, &config.corners);
    let session = Session::open(
        session_name,
        &workload.name,
        design_fp,
        netlist,
        config.clone(),
        &state.lib,
        &corner_libs,
    )
    .map_err(|e| WireError::new("flow", e.to_string()))?;
    let view = SessionView {
        name: session_name.to_owned(),
        design_fp,
        config_fp,
        prefix: session.prefix().clone(),
        finals: None,
        config: session.config.clone(),
        reused: false,
        cache,
    };
    recover(&state.sessions).insert(session);
    Ok(view)
}

fn outcome_json(result: &smt_core::engine::FlowResult) -> (Json, String) {
    let outcome = SuiteOutcome::from_flow(result);
    (outcome.to_json(), format!("{:016x}", outcome.digest()))
}

fn flow(state: &Arc<State>, params: &Json) -> Result<Json, WireError> {
    let t0 = Instant::now();
    let design = params
        .get("design")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`flow` needs a string `design`"))?;
    let scale = parse_scale(params)?;
    let config = parse_flow_config(params)?;
    let session_name = params
        .get("session")
        .and_then(Json::as_str)
        .unwrap_or(design)
        .to_owned();

    let workload = find_workload(design, scale)?;
    let (corner_libs, library_warm) = recover(&state.pool).corner_libs(&state.lib, &config.corners);
    let view = acquire_session(state, &session_name, &workload, &config)?;

    let (result, finals_reused) = match &view.finals {
        Some(finals) => {
            let result = finals_result(&state.lib, &corner_libs, &view.config, finals)
                .map_err(|e| WireError::new("flow", e.to_string()))?;
            view.write_back(state, |s| s.finals_reuses += 1);
            (result, true)
        }
        None => {
            let (result, finals) =
                complete_flow(&state.lib, &corner_libs, &view.config, &view.prefix)
                    .map_err(|e| WireError::new("flow", e.to_string()))?;
            view.write_back(state, |s| {
                s.set_finals(finals);
                s.forks += 1;
            });
            (result, false)
        }
    };

    let (outcome, digest) = outcome_json(&result);
    let mut stats = BTreeMap::new();
    stats.insert("library_warm".to_owned(), Json::Bool(library_warm));
    stats.insert("session_reused".to_owned(), Json::Bool(view.reused));
    stats.insert("finals_reused".to_owned(), Json::Bool(finals_reused));
    stats.insert("cache".to_owned(), cache_stats_json(view.cache));
    stats.insert(
        "elapsed_ms".to_owned(),
        Json::Num(t0.elapsed().as_millis() as f64),
    );
    let mut m = BTreeMap::new();
    m.insert("design".to_owned(), Json::Str(design.to_owned()));
    m.insert("session".to_owned(), Json::Str(view.name));
    m.insert("outcome".to_owned(), outcome);
    m.insert("digest".to_owned(), Json::Str(digest));
    m.insert("stats".to_owned(), Json::Obj(stats));
    Ok(Json::Obj(m))
}

fn parse_what_if(method: &str, params: &Json) -> Result<WhatIf, WireError> {
    match method {
        "vth-swap" => {
            let dualvth = params
                .get("dualvth")
                .ok_or_else(|| bad("`vth-swap` needs a `dualvth` config object"))?;
            let dualvth = DualVthConfig::from_json_value(dualvth, "dualvth")
                .map_err(|e| bad(e.to_string()))?;
            Ok(WhatIf::VthSwap { dualvth })
        }
        "eco" => {
            let hold_rounds = params
                .get("hold_rounds")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad("`eco` needs a numeric `hold_rounds`"))?;
            Ok(WhatIf::Eco { hold_rounds })
        }
        "signoff" => {
            let corners = match params.get("corners") {
                None => return Err(bad("`signoff` needs `corners`")),
                Some(Json::Str(s)) => match s.as_str() {
                    "typical" => CornerSet::typical_only(),
                    "slow-typ-fast" => CornerSet::slow_typ_fast(),
                    other => return Err(bad(format!("unknown corner set `{other}`"))),
                },
                Some(value) => {
                    CornerSet::from_json_value(value, "corners").map_err(|e| bad(e.to_string()))?
                }
            };
            Ok(WhatIf::Signoff { corners })
        }
        "sweep" => {
            let runs = params
                .get("runs")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("`sweep` needs a `runs` array"))?;
            if runs.is_empty() {
                return Err(bad("`sweep` needs at least one run"));
            }
            let runs = runs
                .iter()
                .enumerate()
                .map(|(i, run)| {
                    let label = run
                        .get("label")
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .unwrap_or_else(|| format!("run-{i}"));
                    let config = run
                        .get("config")
                        .ok_or_else(|| bad(format!("sweep run `{label}` needs a `config`")))?;
                    let config = FlowConfig::from_json_value(config, "config")
                        .map_err(|e| bad(e.to_string()))?;
                    Ok(SweepRun::new(label, config))
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(WhatIf::Sweep { runs })
        }
        other => Err(bad(format!("`{other}` is not a what-if"))),
    }
}

fn what_if(state: &Arc<State>, method: &str, params: &Json) -> Result<Json, WireError> {
    let t0 = Instant::now();
    let design = params
        .get("design")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("`{method}` needs a string `design`")))?;
    let scale = parse_scale(params)?;
    let config = parse_flow_config(params)?;
    let session_name = params
        .get("session")
        .and_then(Json::as_str)
        .unwrap_or(design)
        .to_owned();
    let what = parse_what_if(method, params)?;

    let workload = find_workload(design, scale)?;
    let view = acquire_session(state, &session_name, &workload, &config)?;

    let mut resolve =
        |set: &CornerSet| recover(&state.pool).corner_libs(&state.lib, set).0.to_vec();
    let runs = run_what_if(
        &state.lib,
        &view.config,
        &view.prefix,
        view.finals.as_ref(),
        &mut resolve,
        &what,
        state.config.threads,
    );
    view.write_back(state, |s| s.forks += runs.len());

    let runs_json: Vec<Json> = runs
        .iter()
        .map(|run| {
            let mut m = BTreeMap::new();
            m.insert("label".to_owned(), Json::Str(run.label.clone()));
            match &run.result {
                Ok(result) => {
                    let (outcome, digest) = outcome_json(result);
                    m.insert("outcome".to_owned(), outcome);
                    m.insert("digest".to_owned(), Json::Str(digest));
                }
                Err(e) => {
                    m.insert("error".to_owned(), Json::Str(e.to_string()));
                }
            }
            Json::Obj(m)
        })
        .collect();
    let mut stats = BTreeMap::new();
    stats.insert("session_reused".to_owned(), Json::Bool(view.reused));
    stats.insert("cache".to_owned(), cache_stats_json(view.cache));
    stats.insert(
        "elapsed_ms".to_owned(),
        Json::Num(t0.elapsed().as_millis() as f64),
    );
    let mut m = BTreeMap::new();
    m.insert("design".to_owned(), Json::Str(design.to_owned()));
    m.insert("session".to_owned(), Json::Str(view.name));
    m.insert("what_if".to_owned(), Json::Str(method.to_owned()));
    m.insert("runs".to_owned(), Json::Arr(runs_json));
    m.insert("stats".to_owned(), Json::Obj(stats));
    Ok(Json::Obj(m))
}

// ---------------------------------------------------------------------------
// Static analysis
// ---------------------------------------------------------------------------

/// `lint`: static analysis of a suite design, served from the warm
/// design cache. Params: `design` (required), `scale`
/// (smoke|standard|large, default smoke), `policy` (a stage key or
/// `signoff`/`structural`, default signoff; any other name is a
/// `bad-request`), `threads` (default 0 = one per core; the report is
/// bit-identical at any count). The response
/// carries the severity tallies, the canonical diagnostic list and the
/// report's FNV digest — the same digest `smt-lint` prints, so a remote
/// answer is checkable against a local run.
fn lint(state: &Arc<State>, params: &Json) -> Result<Json, WireError> {
    use smt_netlist::check::{analyze_with_threads, LintPolicy};
    let design = params
        .get("design")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`design` is required"))?;
    let scale = parse_scale(params)?;
    let policy = match params.get("policy").and_then(Json::as_str) {
        None => LintPolicy::signoff(),
        Some(name) => lint_policy(name).map_err(bad)?,
    };
    let threads = params.get("threads").and_then(Json::as_usize).unwrap_or(0);
    let workload = find_workload(design, scale)?;
    let design_fp = workload.config.fingerprint();
    let (netlist, cache) = realise_design(state, &workload)?;
    let report = analyze_with_threads(&netlist, &state.lib, &policy, threads);
    let counts = report.counts();
    let mut m = BTreeMap::new();
    m.insert("design".to_owned(), Json::Str(design.to_owned()));
    m.insert(
        "design_fingerprint".to_owned(),
        Json::Str(format!("{design_fp:016x}")),
    );
    m.insert(
        "digest".to_owned(),
        Json::Str(format!("{:016x}", report.digest())),
    );
    m.insert("clean".to_owned(), Json::Bool(report.is_clean()));
    m.insert("errors".to_owned(), num(counts.errors));
    m.insert("warnings".to_owned(), num(counts.warnings));
    m.insert("infos".to_owned(), num(counts.infos));
    let diags = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut dm = BTreeMap::new();
            dm.insert("rule".to_owned(), Json::Str(d.rule.key().to_owned()));
            dm.insert(
                "severity".to_owned(),
                Json::Str(d.severity.key().to_owned()),
            );
            dm.insert(
                "object".to_owned(),
                Json::Str(d.object.name(&netlist).to_owned()),
            );
            dm.insert("message".to_owned(), Json::Str(d.message.clone()));
            Json::Obj(dm)
        })
        .collect();
    m.insert("diagnostics".to_owned(), Json::Arr(diags));
    m.insert("cache".to_owned(), cache_stats_json(cache));
    Ok(Json::Obj(m))
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

/// SIGTERM/SIGINT → drain, for the `smtd` binary. Kept libc-free: the
/// C `signal` entry point is declared directly (unix only).
#[cfg(unix)]
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_terminate(_sig: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the termination flag on SIGTERM and SIGINT.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_terminate as *const () as usize);
            signal(SIGINT, on_terminate as *const () as usize);
        }
    }

    /// True once a termination signal arrived.
    pub fn termination_requested() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

/// Non-unix stub: no signals, the `shutdown` request drains instead.
#[cfg(not(unix))]
pub mod signals {
    /// No-op off unix.
    pub fn install() {}

    /// Always false off unix.
    pub fn termination_requested() -> bool {
        false
    }
}
