//! The daemon: bounded queue, fixed worker pool, per-tenant budgets,
//! graceful shutdown, JSONL telemetry.
//!
//! ## Threading model (std-only)
//!
//! One acceptor (the calling thread), one **reader thread per
//! connection**, and a **fixed pool** of `workers` evaluation threads fed
//! by a bounded [`std::sync::mpsc::sync_channel`]. A full queue blocks
//! the readers' `send`, which stops them draining their sockets — kernel
//! socket buffers then throttle the clients. Backpressure is therefore
//! end-to-end and memory is bounded by `queue × request size`, never by
//! client count: the acceptance stress (`bench_serve`) replays thousands
//! of concurrent requests against a single-digit queue.
//!
//! ## Shutdown
//!
//! A `{"op":"shutdown"}` request is answered, then the shutdown flag
//! flips: the acceptor stops accepting, readers stop pulling new frames
//! (an in-progress frame is still read to completion, bounded by a quiet
//! period), and the workers drain every request already queued before
//! exiting — in-flight work is never dropped. The listener socket file is
//! removed on the way out.
//!
//! ## Process-lifetime discipline
//!
//! The daemon is the stress test for the PR 9 bug fixes: engine
//! configuration is resolved **per request** (base config captured once
//! at startup from the CLI boundary, request overrides applied on top —
//! no `OnceLock` freezing the first tenant's settings), and telemetry is
//! flushed line by line (an early-terminating run leaves no truncated
//! trace behind).

use crate::cache::ServeCache;
use crate::eval::{self, EvalOutput};
use crate::proto::{write_frame, Request, Response};
use ndl_chase::config::warn_retired;
use ndl_chase::ChaseConfig;
use ndl_incr::{parse_edit_script, IncrDb, IncrOptions, QueryKey};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A Unix-domain socket at this path (removed and re-created).
    Unix(PathBuf),
    /// TCP on 127.0.0.1 at this port (0 = ephemeral; see
    /// [`Server::tcp_port`]).
    Tcp(u16),
}

/// Daemon configuration (the `ndl serve` flags).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listening endpoint.
    pub endpoint: Endpoint,
    /// Evaluation worker threads.
    pub workers: usize,
    /// Bounded queue depth between readers and workers.
    pub queue: usize,
    /// Byte budget for the program/response cache.
    pub cache_bytes: usize,
    /// Per-tenant step-budget ceiling for chase requests: requested
    /// budgets are clamped down to it (counted as a refusal), absent
    /// budgets become it. `None` = no ceiling.
    pub budget: Option<usize>,
    /// JSONL telemetry file (one line per request, flushed per line).
    pub telemetry: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            endpoint: Endpoint::Tcp(0),
            workers: 4,
            queue: 64,
            cache_bytes: 16 << 20,
            budget: None,
            telemetry: None,
        }
    }
}

/// Per-tenant accounting, reported by the `stats` op and the final
/// summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests attributed to the tenant.
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Chase requests whose budget was clamped to the server ceiling.
    pub budget_refusals: u64,
    /// Chase runs that ended by exhausting their (effective) budget.
    pub budget_exhausted: u64,
    /// Requests served from the content-hash cache.
    pub cache_hits: u64,
    /// Memoized queries marked red by the tenant's incremental-session
    /// edits (`incr-edit` ops that actually changed an input cell).
    pub invalidations: u64,
}

/// Final counters returned when the daemon exits.
#[derive(Clone, Debug, Default)]
pub struct ServerSummary {
    /// Total requests handled.
    pub requests: u64,
    /// Frames that did not parse as requests.
    pub bad_requests: u64,
    /// Cache hits across programs and responses.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Per-tenant breakdown.
    pub tenants: BTreeMap<String, TenantStats>,
}

// ---------- transport ----------

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

// ---------- shared state ----------

struct TelemetrySink {
    w: io::BufWriter<std::fs::File>,
    lines: u64,
    io_errors: u64,
}

impl TelemetrySink {
    /// One line per request, flushed immediately: the same discipline as
    /// [`ndl_obs::JsonlTracer::chase_end`] — a daemon that buffers its
    /// telemetry loses exactly the runs someone will ask about.
    fn line(&mut self, s: &str) {
        let ok = writeln!(self.w, "{s}").is_ok() && self.w.flush().is_ok();
        if ok {
            self.lines += 1;
        } else {
            self.io_errors += 1;
        }
    }
}

struct ServerState {
    cache: Mutex<ServeCache>,
    /// Per-tenant incremental sessions (`incr-open` creates or replaces a
    /// tenant's session; `incr-close` drops it). Each session is its own
    /// `Mutex` so two tenants' queries evaluate concurrently — only the
    /// map lookup is serialized.
    sessions: Mutex<BTreeMap<String, Arc<Mutex<IncrDb>>>>,
    tenants: Mutex<BTreeMap<String, TenantStats>>,
    telemetry: Option<Mutex<TelemetrySink>>,
    shutdown: AtomicBool,
    base_cfg: ChaseConfig,
    budget_ceiling: Option<usize>,
    workers: usize,
    queue: usize,
    requests: AtomicU64,
    bad_requests: AtomicU64,
    dropped_responses: AtomicU64,
}

/// The request's engine configuration. Retired parallel-engine fields are
/// reported by one warning, which the per-request warning scope puts in
/// this response's stderr.
fn effective_config(base: &ChaseConfig, req: &Request) -> ChaseConfig {
    let mut cfg = *base;
    if let Some(c) = &req.config {
        if !c.retired.is_empty() {
            let fields: Vec<String> = c.retired.iter().map(|k| format!("{k:?}")).collect();
            warn_retired(
                "request config",
                &format!("request config {}", fields.join(", ")),
            );
        }
        if let Some(d) = c.delta {
            cfg.delta = d;
        }
    }
    cfg
}

/// Canonical cache key for a deterministic reasoning request: op and args
/// joined with separators that cannot appear unescaped in either.
fn response_key(req: &Request) -> String {
    let mut key = req.op.clone();
    for a in &req.args {
        key.push('\u{1f}');
        key.push_str(a);
    }
    key
}

fn eval_request(state: &ServerState, req: &Request) -> (Result<EvalOutput, String>, &'static str) {
    let started = Instant::now();
    let need_program = || format!("op {:?} requires a \"program\" field", req.op);
    match req.op.as_str() {
        "lint" => match &req.program {
            Some(p) => (eval::lint(&req.path, p, &req.args), "none"),
            None => (Err(need_program()), "none"),
        },
        "analyze" => match &req.program {
            Some(p) => {
                let (art, hit) = state.cache.lock().expect("cache lock").program(p);
                (
                    eval::analyze_program(&art, &req.args, started),
                    if hit { "hit" } else { "miss" },
                )
            }
            None => (Err(need_program()), "none"),
        },
        "chase" => {
            if !eval::flag_values(&req.args, "--tgd").is_empty() {
                return (eval::chase_inline(&req.args), "none");
            }
            match &req.program {
                Some(p) => {
                    let (art, hit) = state.cache.lock().expect("cache lock").program(p);
                    let cfg = effective_config(&state.base_cfg, req);
                    (
                        eval::chase_program(&art, &req.path, &req.args, &cfg, state.budget_ceiling),
                        if hit { "hit" } else { "miss" },
                    )
                }
                None => (Err(need_program()), "none"),
            }
        }
        "implies" | "equiv" | "classify" => {
            let key = response_key(req);
            if let Some(out) = state.cache.lock().expect("cache lock").response(&key) {
                return (Ok(out), "hit");
            }
            let result = match req.op.as_str() {
                "implies" => eval::implies(&req.args),
                "equiv" => eval::equiv(&req.args),
                _ => eval::classify(&req.args),
            };
            if let Ok(out) = &result {
                state
                    .cache
                    .lock()
                    .expect("cache lock")
                    .insert_response(&key, out);
            }
            (result, "miss")
        }
        "incr-open" => match &req.program {
            Some(p) => {
                let open = || -> Result<EvalOutput, String> {
                    let (budget, clamped) =
                        eval::clamp_budget(eval::budget_flag(&req.args)?, state.budget_ceiling);
                    let db = IncrDb::new(
                        p,
                        IncrOptions {
                            path: req.path.clone(),
                            budget,
                            scratch: false,
                        },
                    )
                    .map_err(|e| format!("{}: {e}", req.path))?;
                    let mut out = EvalOutput {
                        stdout: format!(
                            "incr: {}: {} statements, {} facts (epoch {})\n",
                            req.path,
                            db.statements().len(),
                            db.fact_count(),
                            db.epoch()
                        ),
                        ..EvalOutput::default()
                    };
                    out.budget_clamped = clamped;
                    state
                        .sessions
                        .lock()
                        .expect("sessions lock")
                        .insert(req.tenant.clone(), Arc::new(Mutex::new(db)));
                    // A fresh (or replacing) session is a new world for
                    // cached `incr-query` responses: advance the epoch so
                    // stale answers cannot be replayed.
                    state.cache.lock().expect("cache lock").bump_generation();
                    Ok(out)
                };
                (open(), "none")
            }
            None => (Err(need_program()), "none"),
        },
        "incr-edit" => {
            let Some(script) = &req.program else {
                return (Err(need_program()), "none");
            };
            let Some(session) = incr_session(state, req) else {
                return (Err(no_session(req)), "none");
            };
            let edit = || -> Result<EvalOutput, String> {
                let ops = parse_edit_script(script)?;
                let mut db = session.lock().expect("incr session lock");
                let before = (db.stats().input_bumps, db.stats().red_marks);
                let result = db.apply_script(&ops);
                let bumps = db.stats().input_bumps - before.0;
                let reds = db.stats().red_marks - before.1;
                drop(db);
                // Account the stats deltas even when the script failed
                // partway: whatever *did* apply changed the world.
                if bumps > 0 {
                    state.cache.lock().expect("cache lock").bump_generation();
                }
                if reds > 0 {
                    state
                        .tenants
                        .lock()
                        .expect("tenants lock")
                        .entry(req.tenant.clone())
                        .or_default()
                        .invalidations += reds;
                }
                Ok(EvalOutput {
                    stdout: eval::render_incr_outputs(&result?),
                    ..EvalOutput::default()
                })
            };
            (edit(), "none")
        }
        "incr-query" => {
            // Resolve the session *before* probing the response cache: a
            // cached answer for a closed session must not outlive it.
            let Some(session) = incr_session(state, req) else {
                return (Err(no_session(req)), "none");
            };
            let key = match QueryKey::parse_args(&req.args) {
                Ok(k) => k,
                Err(e) => return (Err(e), "none"),
            };
            let cache_key = format!("incr-query\u{1f}{}\u{1f}{}", req.tenant, key.label());
            if let Some(out) = state.cache.lock().expect("cache lock").response(&cache_key) {
                return (Ok(out), "hit");
            }
            let answer = session.lock().expect("incr session lock").query(key);
            if let Some(e) = answer.error {
                return (Err(e), "miss");
            }
            let out = EvalOutput {
                stdout: answer.stdout,
                ..EvalOutput::default()
            };
            state
                .cache
                .lock()
                .expect("cache lock")
                .insert_response(&cache_key, &out);
            (Ok(out), "miss")
        }
        "incr-close" => {
            let removed = state
                .sessions
                .lock()
                .expect("sessions lock")
                .remove(&req.tenant);
            match removed {
                Some(_) => (
                    Ok(EvalOutput {
                        stdout: "incr: closed\n".to_string(),
                        ..EvalOutput::default()
                    }),
                    "none",
                ),
                None => (Err(no_session(req)), "none"),
            }
        }
        other => (Err(format!("unknown op {other:?}")), "none"),
    }
}

/// The tenant's open incremental session, if any. Cloning the `Arc` keeps
/// the sessions-map lock scope to the lookup itself.
fn incr_session(state: &ServerState, req: &Request) -> Option<Arc<Mutex<IncrDb>>> {
    state
        .sessions
        .lock()
        .expect("sessions lock")
        .get(&req.tenant)
        .cloned()
}

fn no_session(req: &Request) -> String {
    format!(
        "tenant {:?} has no open incr session (send incr-open first)",
        req.tenant
    )
}

fn stats_json(state: &ServerState) -> String {
    let cache = state.cache.lock().expect("cache lock");
    let mut obj = vec![
        (
            "requests".to_string(),
            Value::Number(state.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "bad_requests".to_string(),
            Value::Number(state.bad_requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "cache".to_string(),
            Value::Object(vec![
                ("hits".to_string(), Value::Number(cache.hits() as f64)),
                ("misses".to_string(), Value::Number(cache.misses() as f64)),
                (
                    "evictions".to_string(),
                    Value::Number(cache.evictions() as f64),
                ),
                (
                    "used_bytes".to_string(),
                    Value::Number(cache.used_bytes() as f64),
                ),
                (
                    "max_bytes".to_string(),
                    Value::Number(cache.max_bytes() as f64),
                ),
                (
                    "generation".to_string(),
                    Value::Number(cache.generation() as f64),
                ),
            ]),
        ),
        ("workers".to_string(), Value::Number(state.workers as f64)),
        ("queue".to_string(), Value::Number(state.queue as f64)),
        (
            "budget_ceiling".to_string(),
            match state.budget_ceiling {
                Some(b) => Value::Number(b as f64),
                None => Value::Null,
            },
        ),
    ];
    drop(cache);
    let tenants = state.tenants.lock().expect("tenants lock");
    obj.push((
        "tenants".to_string(),
        Value::Object(
            tenants
                .iter()
                .map(|(name, t)| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("requests".to_string(), Value::Number(t.requests as f64)),
                            ("errors".to_string(), Value::Number(t.errors as f64)),
                            (
                                "budget_refusals".to_string(),
                                Value::Number(t.budget_refusals as f64),
                            ),
                            (
                                "budget_exhausted".to_string(),
                                Value::Number(t.budget_exhausted as f64),
                            ),
                            ("cache_hits".to_string(), Value::Number(t.cache_hits as f64)),
                            (
                                "invalidations".to_string(),
                                Value::Number(t.invalidations as f64),
                            ),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
    serde_json::to_string(&Value::Object(obj)).expect("value serialization is infallible")
}

fn handle_request(state: &ServerState, req: &Request) -> Response {
    state.requests.fetch_add(1, Ordering::Relaxed);
    // Evaluate under a per-request warning scope: configuration warnings
    // (e.g. a bad `NDL_HOM_THREADS` read by the hom engine) are captured on
    // this worker thread and surfaced in *this* response's stderr. The
    // process-wide `warn_once` registry would dedup them away after the
    // first request — the second tenant would never learn its environment
    // is being ignored.
    let ((result, cache), warnings) = ndl_obs::with_warning_scope(|| match req.op.as_str() {
        "ping" => (
            Ok(EvalOutput {
                stdout: "pong\n".to_string(),
                ..EvalOutput::default()
            }),
            "none",
        ),
        "stats" => (
            Ok(EvalOutput {
                stdout: stats_json(state) + "\n",
                ..EvalOutput::default()
            }),
            "none",
        ),
        "shutdown" => (
            Ok(EvalOutput {
                stdout: "draining\n".to_string(),
                ..EvalOutput::default()
            }),
            "none",
        ),
        _ => eval_request(state, req),
    });
    // Warnings go after any stderr the evaluation produced — the same
    // order as the CLI, which prints stats stderr first and drains the
    // warning registry last.
    let warn_lines: String = warnings
        .iter()
        .map(|w| format!("warning: {}\n", w.message))
        .collect();
    let result = match result {
        Ok(mut out) => {
            out.stderr.push_str(&warn_lines);
            Ok(out)
        }
        Err(msg) => Err((msg, warn_lines)),
    };
    {
        let mut tenants = state.tenants.lock().expect("tenants lock");
        let t = tenants.entry(req.tenant.clone()).or_default();
        t.requests += 1;
        match &result {
            Ok(out) => {
                if out.budget_clamped {
                    t.budget_refusals += 1;
                }
                if out.budget_exhausted {
                    t.budget_exhausted += 1;
                }
                if cache == "hit" {
                    t.cache_hits += 1;
                }
            }
            Err(_) => t.errors += 1,
        }
    }
    match result {
        Ok(out) => Response {
            id: req.id,
            ok: true,
            exit: out.exit,
            cache: cache.to_string(),
            output: out.stdout,
            stderr: out.stderr,
            error: None,
        },
        Err((msg, warn_lines)) => Response {
            id: req.id,
            ok: false,
            exit: 101,
            cache: cache.to_string(),
            output: String::new(),
            stderr: warn_lines,
            error: Some(msg),
        },
    }
}

fn telemetry_line(state: &ServerState, req: &Request, resp: &Response, elapsed_ns: u128) {
    let Some(sink) = &state.telemetry else {
        return;
    };
    let line = serde_json::to_string(&Value::Object(vec![
        ("event".to_string(), Value::String("request".to_string())),
        ("id".to_string(), Value::Number(req.id as f64)),
        ("tenant".to_string(), Value::String(req.tenant.clone())),
        ("op".to_string(), Value::String(req.op.clone())),
        ("ok".to_string(), Value::Bool(resp.ok)),
        ("exit".to_string(), Value::Number(resp.exit as f64)),
        ("cache".to_string(), Value::String(resp.cache.clone())),
        ("elapsed_ns".to_string(), Value::Number(elapsed_ns as f64)),
    ]))
    .expect("value serialization is infallible");
    sink.lock().expect("telemetry lock").line(&line);
}

// ---------- connection handling ----------

enum FrameRead {
    Frame(Vec<u8>),
    Eof,
    Shutdown,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Like [`crate::proto::read_frame`], but over a socket with a read
/// timeout so the reader can observe the shutdown flag while idle. A
/// frame whose first byte has arrived is read to completion (bounded by
/// [`QUIET_LIMIT`] timeout ticks of silence) so shutdown never tears a
/// request in half.
fn read_frame_cancellable(conn: &mut Conn, state: &ServerState) -> io::Result<FrameRead> {
    const QUIET_LIMIT: u32 = 20; // ~2 s of silence mid-frame during shutdown

    fn fill(
        conn: &mut Conn,
        state: &ServerState,
        buf: &mut [u8],
        eof_ok: bool,
    ) -> io::Result<Option<FrameRead>> {
        let mut got = 0;
        let mut quiet = 0u32;
        while got < buf.len() {
            match conn.read(&mut buf[got..]) {
                Ok(0) => {
                    return if got == 0 && eof_ok {
                        Ok(Some(FrameRead::Eof))
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "eof inside frame",
                        ))
                    }
                }
                Ok(n) => {
                    got += n;
                    quiet = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_timeout(&e) => {
                    if state.shutdown.load(Ordering::Relaxed) {
                        if got == 0 && eof_ok {
                            return Ok(Some(FrameRead::Shutdown));
                        }
                        quiet += 1;
                        if quiet > QUIET_LIMIT {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "frame stalled during shutdown",
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    let mut len = [0u8; 4];
    if let Some(end) = fill(conn, state, &mut len, true)? {
        return Ok(end);
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > crate::proto::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; n];
    fill(conn, state, &mut payload, false)?;
    Ok(FrameRead::Frame(payload))
}

struct Job {
    req: Request,
    out: Arc<Mutex<Conn>>,
    received: Instant,
}

fn write_response(out: &Mutex<Conn>, resp: &Response) -> io::Result<()> {
    let payload = resp.to_json();
    let mut conn = out.lock().expect("connection write lock");
    write_frame(&mut *conn, payload.as_bytes())
}

fn reader_loop(mut conn: Conn, tx: SyncSender<Job>, state: &ServerState) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(writer) = conn.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer));
    loop {
        match read_frame_cancellable(&mut conn, state) {
            Ok(FrameRead::Eof) | Ok(FrameRead::Shutdown) | Err(_) => return,
            Ok(FrameRead::Frame(bytes)) => match Request::parse(&bytes) {
                Ok(req) => {
                    let job = Job {
                        req,
                        out: writer.clone(),
                        received: Instant::now(),
                    };
                    // A full queue blocks here — backpressure, not OOM.
                    if tx.send(job).is_err() {
                        return;
                    }
                }
                Err(msg) => {
                    state.bad_requests.fetch_add(1, Ordering::Relaxed);
                    let resp = Response {
                        id: 0,
                        ok: false,
                        exit: 101,
                        cache: "none".to_string(),
                        output: String::new(),
                        stderr: String::new(),
                        error: Some(msg),
                    };
                    if write_response(&writer, &resp).is_err() {
                        return;
                    }
                }
            },
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, state: &ServerState) {
    loop {
        // Hold the lock only across the blocking recv: dequeue is
        // serialized, evaluation is not.
        let job = {
            let guard = rx.lock().expect("queue lock");
            guard.recv()
        };
        let Ok(job) = job else { return };
        let started = Instant::now();
        let resp = handle_request(state, &job.req);
        if write_response(&job.out, &resp).is_err() {
            state.dropped_responses.fetch_add(1, Ordering::Relaxed);
        }
        telemetry_line(
            state,
            &job.req,
            &resp,
            (started.elapsed() + started.duration_since(job.received)).as_nanos(),
        );
        if job.req.op == "shutdown" {
            // Flag *after* the response is on the wire, so the shutdown
            // caller always hears back.
            state.shutdown.store(true, Ordering::Relaxed);
        }
    }
}

// ---------- the server ----------

/// A bound, not-yet-running daemon. Bind first so callers (tests, the
/// CLI) can learn the ephemeral TCP port before blocking in [`Server::run`].
pub struct Server {
    listener: Listener,
    opts: ServeOptions,
    /// Human-readable listening address (`unix:<path>` / `tcp:<addr>`).
    pub local: String,
}

impl Server {
    /// Binds the endpoint. For `Endpoint::Unix`, a stale socket file is
    /// removed first (the daemon owns its path).
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        let (listener, local) = match &opts.endpoint {
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l), format!("unix:{}", path.display()))
            }
            Endpoint::Tcp(port) => {
                let l = TcpListener::bind(("127.0.0.1", *port))?;
                let local = format!("tcp:{}", l.local_addr()?);
                (Listener::Tcp(l), local)
            }
        };
        Ok(Server {
            listener,
            opts,
            local,
        })
    }

    /// The bound TCP port, when listening on TCP.
    pub fn tcp_port(&self) -> Option<u16> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok().map(|a| a.port()),
            Listener::Unix(_) => None,
        }
    }

    /// Runs the daemon until a shutdown request, then drains and returns
    /// the final counters.
    pub fn run(self) -> io::Result<ServerSummary> {
        let Server {
            listener,
            opts,
            local: _,
        } = self;
        listener.set_nonblocking(true)?;
        let telemetry = match &opts.telemetry {
            Some(path) => {
                let file = std::fs::File::create(path)?;
                Some(Mutex::new(TelemetrySink {
                    w: io::BufWriter::new(file),
                    lines: 0,
                    io_errors: 0,
                }))
            }
            None => None,
        };
        let state = ServerState {
            cache: Mutex::new(ServeCache::new(opts.cache_bytes)),
            sessions: Mutex::new(BTreeMap::new()),
            tenants: Mutex::new(BTreeMap::new()),
            telemetry,
            shutdown: AtomicBool::new(false),
            // The daemon's CLI boundary: the environment is read once,
            // here, and every request gets an explicit config derived
            // from it — never a process-wide cached global.
            base_cfg: ChaseConfig::from_env(),
            budget_ceiling: opts.budget,
            workers: opts.workers.max(1),
            queue: opts.queue.max(1),
            requests: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            dropped_responses: AtomicU64::new(0),
        };

        // The queue outlives the scope so worker threads can borrow it.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(state.queue);
        let rx = Mutex::new(rx);
        std::thread::scope(|s| {
            let rx = &rx;
            let state_ref = &state;
            for _ in 0..state.workers {
                s.spawn(move || worker_loop(rx, state_ref));
            }
            loop {
                if state.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok(conn) => {
                        let tx = tx.clone();
                        s.spawn(move || reader_loop(conn, tx, state_ref));
                    }
                    Err(e) if is_timeout(&e) => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    // Transient accept failures (aborted handshakes)
                    // must not kill a long-running daemon.
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
            // Readers exit via the shutdown flag (within their read
            // timeout), dropping their queue senders; workers then drain
            // whatever is still queued and exit on channel close. The
            // scope joins them all.
            drop(tx);
        });

        if let Endpoint::Unix(path) = &opts.endpoint {
            let _ = std::fs::remove_file(path);
        }

        let cache = state.cache.lock().expect("cache lock");
        let summary = ServerSummary {
            requests: state.requests.load(Ordering::Relaxed),
            bad_requests: state.bad_requests.load(Ordering::Relaxed),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            tenants: state.tenants.lock().expect("tenants lock").clone(),
        };
        Ok(summary)
    }
}

/// Binds and runs in one call (the `ndl serve` entry point).
pub fn serve(opts: ServeOptions) -> io::Result<ServerSummary> {
    Server::bind(opts)?.run()
}
