//! `serve`: a real `ndl serve` daemon under an open loop at fixed rates.
//! One generator process drives it with two threads, each owning one
//! pipelined connection. Reads are `chase`/`analyze`/`lint` over a
//! Zipf-skewed program pool, `implies`/`equiv`/`classify` over the
//! paper's decisions, and `incr-query`; writes are `incr-edit` scripts on
//! four tenant sessions. Every request is timed from when it was due.

use crate::inputs::{
    chain_job, clio_job, dead_code_job, paper_decisions, pipeline_job, Decision, Rng,
};
use crate::openloop::{backlog_at, backlog_grows, due_times, Timing};
use crate::pipeline::{self, Counters};
use crate::stats::{median, percentile, sliced_median, sorted, Summary};
use crate::trace::Tracer;
use crate::{out_dir, peak_rss_mb, Config, Report};
use ndl_incr::{parse_edit_script, IncrDb, IncrOptions, QueryKey};
use ndl_serve::cache::program_cost;
use ndl_serve::eval;
use ndl_serve::proto::{read_frame, write_frame, Request, Response};
use std::collections::{BTreeMap, VecDeque};
use std::io::Read as _;
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `ndl serve --workers`.
const WORKERS: usize = 2;
/// `ndl serve --queue`.
const QUEUE: usize = 64;
/// `ndl serve --cache-bytes`, less than the program pool's artifacts.
const CACHE_BYTES: usize = 2 << 20;
/// Share of the run spent at the nominal rate; the rate steps share the rest.
const NOMINAL_SHARE: f64 = 0.7;
/// Outstanding requests above which a backlog counts as growing.
const BACKLOG_FLOOR: usize = 20;
/// Programs in the read pool.
const PROGRAMS: usize = 24;
/// Zipf exponent of program popularity.
const ZIPF_S: f64 = 1.1;
/// Source facts of each tenant session. Only the last tenant's writes
/// also query the core, so the median write falls among the others.
const TENANT_FACTS: [usize; 4] = [1000, 2000, 2000, 3000];
/// Requests per deck of the mix, and the writes, `incr-query` reads and
/// decisions among them; program reads fill the rest.
const DECK: usize = 20;
const DECK_WRITES: usize = 2;
const DECK_INCR_QUERIES: usize = 2;
const DECK_DECISIONS: usize = 5;
/// Net source-fact changes per write.
const EDITS_PER_WRITE: usize = 6;
/// Closed-loop warm-up requests before timing.
const WARMUP: usize = 40;

/// What a request does.
#[derive(Clone, Debug)]
enum Kind {
    /// `chase`/`analyze`/`lint` on pool program `prog`.
    Program { op: &'static str, prog: usize },
    /// A reasoning decision from the `reason` pool.
    Decide(usize),
    /// `incr-query chase` on a tenant's session.
    IncrQuery(usize),
    /// The tenant's `seq`-th `incr-edit` script.
    Write { tenant: usize, seq: usize },
}

/// The op a request kind sends.
fn kind_label(k: &Kind) -> &'static str {
    match k {
        Kind::Program { op, .. } => op,
        Kind::Decide(_) => "decide",
        Kind::IncrQuery(_) => "incr-query",
        Kind::Write { .. } => "incr-edit",
    }
}

impl Kind {
    fn is_write(&self) -> bool {
        matches!(self, Kind::Write { .. })
    }

    fn tenant(&self) -> Option<usize> {
        match self {
            Kind::IncrQuery(t) | Kind::Write { tenant: t, .. } => Some(*t),
            _ => None,
        }
    }
}

/// A tenant's session: its program and edit scripts, and the outputs a
/// from-scratch replay gives for each script.
struct Tenant {
    name: String,
    src: String,
    scripts: Vec<String>,
    /// Expected `incr-edit` output of each script (scratch replay).
    expected: Vec<String>,
    /// Chase output after `k` scripts.
    chase_at: Vec<String>,
}

/// Everything generated from the seed.
struct Inputs {
    programs: Vec<String>,
    zipf: Vec<f64>,
    decisions: Vec<Decision>,
    tenants: Vec<Tenant>,
}

/// The read pool. Popularity rank `i` fixes a program's family and size,
/// so the Zipf head costs about the same for every seed; the seed picks
/// the content. Size grows with rank, so popular programs are small and
/// the read latency tail falls off smoothly instead of in steps.
fn program_pool(seed: u64, n: usize, tiny: bool) -> Vec<String> {
    let mut rng = Rng::new(seed, 4);
    let s = if tiny { 10 } else { 1 };
    (0..n)
        .map(|i| {
            let x = (i as f64 + 0.5) / n as f64;
            let pick = |lo: usize, hi: usize| ((lo + ((hi - lo) as f64 * x) as usize) / s).max(2);
            let seed = rng.next_u64();
            match i % 5 {
                0 => clio_job(pick(40, 240), 2, seed, false).src,
                1 => clio_job(pick(40, 240), 2, seed, true).src,
                2 => chain_job(2, pick(20, 50), seed % 1000).src,
                3 => pipeline_job(3 + (6.0 * x) as usize, pick(40, 120), seed % 1000).src,
                _ => dead_code_job(pick(40, 160), seed).src,
            }
        })
        .collect()
}

/// The tenant's member facts (the ones edits retract).
fn member_facts(src: &str) -> Vec<String> {
    src.lines()
        .filter_map(|l| l.strip_prefix("fact: "))
        .filter(|f| f.starts_with("Emp(") || f.starts_with("Proj("))
        .map(str::to_string)
        .collect()
}

fn edit_line(op: &str, fact: &str) -> String {
    format!("{{\"op\":\"{op}\",\"fact\":\"{fact}\"}}\n")
}

/// `count` edit scripts: `net` inserts and retracts that change the
/// chased instance, one insert-then-retract no-op, then `query chase`
/// (and `query core` when `core` is set).
fn scripts(
    src: &str,
    tenant: usize,
    depts: usize,
    count: usize,
    net: usize,
    core: bool,
    rng: &mut Rng,
) -> Vec<String> {
    let mut present = member_facts(src);
    let mut fresh = 0usize;
    let mut new_fact = |rng: &mut Rng| {
        fresh += 1;
        format!("Emp(dept{},new{tenant}_{fresh})", rng.range(0, depts))
    };
    (0..count)
        .map(|_| {
            let mut s = String::new();
            for j in 0..net {
                if j % 2 == 0 || present.len() < 2 {
                    let f = new_fact(rng);
                    s.push_str(&edit_line("insert", &f));
                    present.push(f);
                } else {
                    let i = rng.range(0, present.len());
                    let f = present.swap_remove(i);
                    s.push_str(&edit_line("retract", &f));
                }
            }
            let churn = new_fact(rng);
            s.push_str(&edit_line("insert", &churn));
            s.push_str(&edit_line("retract", &churn));
            s.push_str("{\"op\":\"query\",\"q\":\"chase\"}\n");
            if core {
                s.push_str("{\"op\":\"query\",\"q\":\"core\"}\n");
            }
            s
        })
        .collect()
}

/// The chase section of a rendered `incr-edit` output.
fn chase_section(out: &str) -> Option<String> {
    let body = out.strip_prefix("== chase\n")?;
    Some(match body.find("\n== ") {
        Some(i) => body[..=i].to_string(),
        None => body.to_string(),
    })
}

/// Replays a tenant's first `used` scripts from scratch (memoization
/// off): the expected output of each write and the chase output at every
/// version.
fn scratch_replay(t: &mut Tenant, used: usize) -> Result<(), String> {
    let mut db = IncrDb::new(
        &t.src,
        IncrOptions {
            path: t.name.clone(),
            budget: None,
            scratch: true,
        },
    )?;
    let first = db.query(QueryKey::Chase);
    t.chase_at = vec![first.stdout];
    t.expected.clear();
    for s in t.scripts.iter().take(used) {
        let out = eval::render_incr_outputs(&db.apply_script(&parse_edit_script(s)?)?);
        t.chase_at
            .push(chase_section(&out).ok_or("edit output lacks a chase section")?);
        t.expected.push(out);
    }
    Ok(())
}

fn inputs(cfg: &Config, writes_per_tenant: usize) -> Result<Inputs, String> {
    let n = if cfg.tiny { 5 } else { PROGRAMS };
    let programs = program_pool(cfg.seed, n, cfg.tiny);
    let zipf: Vec<f64> = (0..n)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
        .collect();
    // The paper's decisions only: the random tgds of the `reason` pool
    // vary in cost by seed, and at the rate steps, where every write drops
    // the cached answers, they moved capacity by 2x between seeds.
    let decisions = paper_decisions();
    let mut rng = Rng::new(cfg.seed, 5);
    let tenants = TENANT_FACTS
        .iter()
        .enumerate()
        .map(|(i, &facts)| {
            let facts = if cfg.tiny { 40 } else { facts };
            // Clio with two members per kind: four source facts per department.
            let depts = (facts / 4).max(2);
            let src = clio_job(depts, 2, rng.next_u64(), false).src;
            let core = i + 1 == TENANT_FACTS.len();
            let scripts = scripts(
                &src,
                i,
                depts,
                writes_per_tenant,
                EDITS_PER_WRITE,
                core,
                &mut rng,
            );
            Tenant {
                name: format!("tenant{i}.ndl"),
                src,
                scripts,
                expected: Vec::new(),
                chase_at: Vec::new(),
            }
        })
        .collect();
    Ok(Inputs {
        programs,
        zipf,
        decisions,
        tenants,
    })
}

// ---------- the daemon ----------

struct Daemon {
    child: Child,
    socket: PathBuf,
    flags: Vec<String>,
}

impl Daemon {
    fn start(cfg: &Config, tag: &str, telemetry: Option<&Path>) -> Result<Daemon, String> {
        let socket = out_dir().join(format!("serve-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut flags = vec![
            "--workers".to_string(),
            WORKERS.to_string(),
            "--queue".to_string(),
            QUEUE.to_string(),
            "--cache-bytes".to_string(),
            CACHE_BYTES.to_string(),
        ];
        if let Some(t) = telemetry {
            flags.push("--telemetry".to_string());
            flags.push(t.display().to_string());
        }
        let mut cmd = Command::new(&cfg.ndl);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        // The daemon dies with the benchmark even when the benchmark is
        // killed before `Drop` can stop it.
        // SAFETY: the hook only calls `prctl`, which is async-signal-safe
        // and touches no memory of the parent.
        unsafe {
            cmd.pre_exec(|| {
                sys::die_with_parent();
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.ndl.display()))?;
        let mut d = Daemon {
            child,
            socket,
            flags,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = UnixStream::connect(&d.socket) {
                if call(&mut c, &simple(0, "ping")).is_ok() {
                    return Ok(d);
                }
            }
            if Instant::now() > deadline {
                d.stop();
                return Err("daemon did not answer ping within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// Sends `shutdown` and waits for the process to exit (killing it if
    /// it does not within ten seconds).
    fn stop(&mut self) {
        if let Ok(mut c) = UnixStream::connect(&self.socket) {
            let _ = call(&mut c, &simple(0, "shutdown"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                let _ = std::fs::remove_file(&self.socket);
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stop();
        }
    }
}

fn simple(id: u64, op: &str) -> Request {
    Request {
        id,
        tenant: "bench".to_string(),
        op: op.to_string(),
        path: "<request>".to_string(),
        ..Request::default()
    }
}

fn call(c: &mut UnixStream, req: &Request) -> Result<Response, String> {
    write_frame(c, req.to_json().as_bytes()).map_err(|e| e.to_string())?;
    let payload = read_frame(c)
        .map_err(|e| e.to_string())?
        .ok_or("daemon closed the connection")?;
    parse_response(&payload).ok_or_else(|| "malformed response".to_string())
}

fn request(inp: &Inputs, kind: &Kind, id: u64) -> Request {
    match kind {
        Kind::Program { op, prog } => Request {
            id,
            tenant: format!("reader{}", prog % 3),
            op: op.to_string(),
            path: format!("p{prog}.ndl"),
            program: Some(inp.programs[*prog].clone()),
            ..Request::default()
        },
        Kind::Decide(d) => Request {
            id,
            tenant: "designer".to_string(),
            op: inp.decisions[*d].op.to_string(),
            args: inp.decisions[*d].args.clone(),
            ..simple(id, "")
        },
        Kind::IncrQuery(t) => Request {
            id,
            tenant: format!("t{t}"),
            op: "incr-query".to_string(),
            args: vec!["chase".to_string()],
            ..simple(id, "")
        },
        Kind::Write { tenant, seq } => Request {
            id,
            tenant: format!("t{tenant}"),
            op: "incr-edit".to_string(),
            path: inp.tenants[*tenant].name.clone(),
            program: Some(inp.tenants[*tenant].scripts[*seq].clone()),
            ..Request::default()
        },
    }
}

/// Daemon cache counters from the `stats` op.
#[derive(Clone, Copy, Debug, Default)]
struct CacheStats {
    hits: f64,
    misses: f64,
    evictions: f64,
    generation: f64,
}

fn cache_stats(d: &Daemon) -> Result<CacheStats, String> {
    let mut c = d.connect()?;
    let resp = call(&mut c, &simple(0, "stats"))?;
    let v = ndl_serve::proto::parse_value(resp.output.trim())?;
    let cache = v
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "cache"))
        .and_then(|(_, v)| v.as_object())
        .ok_or("stats output lacks cache")?;
    let get = |k: &str| {
        cache
            .iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0)
    };
    Ok(CacheStats {
        hits: get("hits"),
        misses: get("misses"),
        evictions: get("evictions"),
        generation: get("generation"),
    })
}

// ---------- load generation ----------

/// One planned request.
#[derive(Clone, Debug)]
struct Planned {
    id: u64,
    due: f64,
    conn: usize,
    kind: Kind,
}

/// One request's outcome.
#[derive(Clone, Debug)]
struct Outcome {
    plan: Planned,
    timing: Timing,
    resp: Option<Response>,
    /// The tenant versions a session request may see: writes completed
    /// when it was sent, and writes sent when its response arrived (a
    /// write sent after it can take the session lock first).
    versions: (usize, usize),
}

/// Draws a phase's requests at `rate` for `secs`, starting at `t0`.
fn plan_phase(inp: &Inputs, mix: &mut Mix, rate: f64, t0: f64, secs: f64) -> Vec<Planned> {
    let count = (rate * secs).round().max(1.0) as usize;
    due_times(t0, rate, count)
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            let kind = mix.next(inp);
            // Tenants stay on one connection so their writes apply in order.
            let conn = kind.tenant().map_or(i % 2, |t| t % 2);
            mix.next_id += 1;
            Planned {
                id: mix.next_id,
                due,
                conn,
                kind,
            }
        })
        .collect()
}

/// The request mix, drawn in shuffled decks of twenty so that every
/// stretch of traffic holds the configured shares; programs follow a
/// Zipf law through a low-discrepancy sequence, tenants and decisions
/// take turns.
struct Mix {
    /// Id of the last planned request.
    next_id: u64,
    /// Next edit script of each tenant (scripts are taken when sent).
    write_seq: Vec<usize>,
    rng: Rng,
    deck: Vec<u8>,
    drawn: u64,
    writes: usize,
    queries: usize,
    decisions: Vec<usize>,
    ops: usize,
}

impl Mix {
    fn new(seed: u64, decisions: usize, tenants: usize) -> Mix {
        let mut rng = Rng::new(seed, 6);
        let mut order: Vec<usize> = (0..decisions).collect();
        rng.shuffle(&mut order);
        Mix {
            next_id: 0,
            write_seq: vec![0; tenants],
            rng,
            deck: Vec::new(),
            drawn: 0,
            writes: 0,
            queries: 0,
            decisions: order,
            ops: 0,
        }
    }

    fn next(&mut self, inp: &Inputs) -> Kind {
        if self.deck.is_empty() {
            self.deck.extend(std::iter::repeat_n(0u8, DECK_WRITES));
            self.deck
                .extend(std::iter::repeat_n(1u8, DECK_INCR_QUERIES));
            self.deck.extend(std::iter::repeat_n(2u8, DECK_DECISIONS));
            self.deck.resize(DECK, 3);
            self.rng.shuffle(&mut self.deck);
        }
        let tenants = inp.tenants.len();
        match self.deck.pop() {
            Some(0) => {
                self.writes += 1;
                // The script is picked when the write is sent (see `Sender`).
                Kind::Write {
                    tenant: self.writes % tenants,
                    seq: usize::MAX,
                }
            }
            Some(1) => {
                self.queries += 1;
                Kind::IncrQuery(self.queries % tenants)
            }
            Some(2) => {
                self.drawn += 1;
                Kind::Decide(self.decisions[self.drawn as usize % self.decisions.len()])
            }
            _ => {
                self.ops += 1;
                let golden = 0.618_033_988_749_894_9;
                let total: f64 = inp.zipf.iter().sum();
                let mut x = (self.ops as f64 * golden).fract() * total;
                let mut prog = 0;
                while prog + 1 < inp.zipf.len() && x >= inp.zipf[prog] {
                    x -= inp.zipf[prog];
                    prog += 1;
                }
                let op = ["chase", "analyze", "chase", "lint", "chase"][self.ops % 5];
                Kind::Program { op, prog }
            }
        }
    }
}

/// Waiting on a socket without blocking its other direction, and tying
/// the daemon's lifetime to the benchmark's.
mod sys {
    use std::os::fd::RawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn prctl(option: i32, ...) -> i32;
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGTERM: u64 = 15;

    /// Asks the kernel to send this process SIGTERM when its parent exits.
    pub fn die_with_parent() {
        // SAFETY: PR_SET_PDEATHSIG takes one integer argument and changes
        // only this process's own signal disposition on parent death.
        unsafe {
            prctl(PR_SET_PDEATHSIG, SIGTERM);
        }
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;

    /// Waits up to `secs` for `fd` to become readable (or writable, when
    /// `write` is set); returns `(readable, writable)`. Errors and hang-ups
    /// read as readable, so the caller's next read reports them.
    pub fn wait(fd: RawFd, write: bool, secs: f64) -> (bool, bool) {
        let mut p = PollFd {
            fd,
            events: POLLIN | if write { POLLOUT } else { 0 },
            revents: 0,
        };
        let secs = secs.max(0.0);
        let ts = Timespec {
            tv_sec: secs as i64,
            tv_nsec: (secs.fract() * 1e9) as i64,
        };
        // SAFETY: `p` and `ts` are live, properly initialized `#[repr(C)]`
        // values matching `struct pollfd` and `struct timespec` on 64-bit
        // Linux; `nfds` is 1, the array length; a null sigmask leaves the
        // signal mask unchanged. `ppoll` only writes `p.revents`.
        let n = unsafe { ppoll(&mut p, 1, &ts, std::ptr::null()) };
        if n <= 0 {
            return (false, false);
        }
        (p.revents & !POLLOUT != 0, p.revents & POLLOUT != 0)
    }
}

/// Frames buffered from nonblocking socket reads.
struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    fn pop(&mut self) -> Option<Vec<u8>> {
        if self.buf.len() < 4 {
            return None;
        }
        let n = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if self.buf.len() < 4 + n {
            return None;
        }
        let frame = self.buf[4..4 + n].to_vec();
        self.buf.drain(..4 + n);
        Some(frame)
    }
}

/// Parses a response frame in one pass. The generator reads every
/// response, some of them hundreds of kilobytes, and must keep to its
/// schedule; `Response::parse` re-validates the rest of the payload for
/// every string character, which makes it quadratic in the payload size.
fn parse_response(frame: &[u8]) -> Option<Response> {
    let text = std::str::from_utf8(frame).ok()?;
    let mut chars = text.char_indices().peekable();
    let mut resp = Response::default();
    let skip_ws = |c: &mut std::iter::Peekable<std::str::CharIndices>| {
        while c.next_if(|&(_, ch)| ch.is_ascii_whitespace()).is_some() {}
    };
    let string = |c: &mut std::iter::Peekable<std::str::CharIndices>| -> Option<String> {
        let mut out = String::new();
        loop {
            match c.next()?.1 {
                '"' => return Some(out),
                '\\' => match c.next()?.1 {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = (0..4)
                            .map(|_| c.next().map(|x| x.1))
                            .collect::<Option<_>>()?;
                        out.push(
                            char::from_u32(u32::from_str_radix(&hex, 16).ok()?)
                                .unwrap_or('\u{fffd}'),
                        );
                    }
                    other => out.push(other),
                },
                ch => out.push(ch),
            }
        }
    };
    skip_ws(&mut chars);
    if chars.next()?.1 != '{' {
        return None;
    }
    loop {
        skip_ws(&mut chars);
        match chars.next()?.1 {
            '}' => return Some(resp),
            ',' => continue,
            '"' => {}
            _ => return None,
        }
        let key = string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()?.1 != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let &(start, first) = chars.peek()?;
        if first == '"' {
            chars.next();
            let v = string(&mut chars)?;
            match key.as_str() {
                "cache" => resp.cache = v,
                "output" => resp.output = v,
                "stderr" => resp.stderr = v,
                "error" => resp.error = Some(v),
                _ => {}
            }
        } else {
            while chars.next_if(|&(_, ch)| ch != ',' && ch != '}').is_some() {}
            let end = chars.peek().map_or(text.len(), |&(i, _)| i);
            let raw = text[start..end].trim();
            match key.as_str() {
                "id" => resp.id = raw.parse::<f64>().ok()? as u64,
                "exit" => resp.exit = raw.parse::<f64>().ok()? as u8,
                "ok" => resp.ok = raw == "true",
                _ => {}
            }
        }
    }
}

/// One connection's sending side: requests queue as frames and drain as
/// the socket accepts them, so a daemon that stops reading never stops
/// this side from reading responses.
struct Sender {
    /// Next script of each tenant.
    next_seq: Vec<usize>,
    tenants_done: Vec<usize>,
    tenants_sent: Vec<usize>,
    busy: Vec<bool>,
    out: Vec<u8>,
}

impl Sender {
    fn send(&mut self, inp: &Inputs, o: &mut Outcome, now: f64) {
        if let Kind::Write { tenant, seq } = &mut o.plan.kind {
            let t = *tenant;
            if self.next_seq[t] < inp.tenants[t].scripts.len() {
                *seq = self.next_seq[t];
                self.next_seq[t] += 1;
            } else {
                o.plan.kind = Kind::IncrQuery(t);
            }
        }
        if let Some(t) = o.plan.kind.tenant() {
            o.versions = (self.tenants_done[t], self.tenants_sent[t]);
            if o.plan.kind.is_write() {
                self.tenants_sent[t] += 1;
                self.busy[t] = true;
            }
        }
        let req = request(inp, &o.plan.kind, o.plan.id).to_json();
        let _ = write_frame(&mut self.out, req.as_bytes());
        o.timing.sent = Some(now);
    }
}

/// Drives one connection through its share of a phase. Returns when
/// every request is answered, the connection fails, or `give_up`
/// (seconds since `epoch`) passes.
fn drive(
    inp: &Inputs,
    mut conn: UnixStream,
    plan: Vec<Planned>,
    next_seq: Vec<usize>,
    epoch: Instant,
    give_up: f64,
) -> (Vec<Outcome>, Vec<usize>) {
    use std::io::Write as _;
    use std::os::fd::AsRawFd;
    let now = || epoch.elapsed().as_secs_f64();
    let tenants = inp.tenants.len();
    let mut out: Vec<Outcome> = plan
        .into_iter()
        .map(|p| Outcome {
            timing: Timing {
                due: p.due,
                sent: None,
                done: None,
            },
            plan: p,
            resp: None,
            versions: (0, 0),
        })
        .collect();
    let by_id: BTreeMap<u64, usize> = out
        .iter()
        .enumerate()
        .map(|(i, o)| (o.plan.id, i))
        .collect();
    // Every earlier write was answered before this phase began, so each
    // tenant starts at version `next_seq`.
    let mut tx = Sender {
        tenants_done: next_seq.clone(),
        tenants_sent: next_seq.clone(),
        next_seq,
        busy: vec![false; tenants],
        out: Vec::new(),
    };
    let mut deferred: Vec<VecDeque<usize>> = vec![VecDeque::new(); tenants];
    let mut fb = FrameBuf { buf: Vec::new() };
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next, mut answered) = (0, 0);
    if conn.set_nonblocking(true).is_err() {
        return (out, tx.next_seq);
    }
    'run: while answered < out.len() && now() < give_up {
        while next < out.len() && out[next].plan.due <= now() {
            match out[next].plan.kind {
                // One write per tenant in flight, so writes apply in order.
                Kind::Write { tenant, .. } if tx.busy[tenant] => deferred[tenant].push_back(next),
                _ => tx.send(inp, &mut out[next], now()),
            }
            next += 1;
        }
        let wait = if next < out.len() {
            (out[next].plan.due - now()).min(0.05)
        } else {
            0.05
        };
        let (readable, writable) = sys::wait(conn.as_raw_fd(), !tx.out.is_empty(), wait);
        if writable {
            match conn.write(&tx.out) {
                Ok(n) => {
                    tx.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => break 'run,
            }
        }
        if !readable {
            continue;
        }
        match conn.read(&mut chunk) {
            Ok(0) => break 'run,
            Ok(n) => fb.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => break 'run,
        }
        while let Some(frame) = fb.pop() {
            let t = now();
            let Some(resp) = parse_response(&frame) else {
                continue;
            };
            let Some(&i) = by_id.get(&resp.id) else {
                continue;
            };
            out[i].timing.done = Some(t);
            out[i].resp = Some(resp);
            answered += 1;
            if let Kind::IncrQuery(tenant) = out[i].plan.kind {
                out[i].versions.1 = tx.tenants_sent[tenant];
            }
            if let Kind::Write { tenant, .. } = out[i].plan.kind {
                tx.tenants_done[tenant] += 1;
                tx.busy[tenant] = false;
                if let Some(j) = deferred[tenant].pop_front() {
                    tx.send(inp, &mut out[j], t);
                }
            }
        }
    }
    (out, tx.next_seq)
}

/// Runs one open-loop phase at `rate` for `secs` over both connections.
fn run_phase(
    inp: &Inputs,
    d: &Daemon,
    mix: &mut Mix,
    rate: f64,
    secs: f64,
) -> Result<Vec<Outcome>, String> {
    let lead = 0.02;
    let plan = plan_phase(inp, mix, rate, lead, secs);
    let conns = [d.connect()?, d.connect()?];
    let mut parts: [Vec<Planned>; 2] = [Vec::new(), Vec::new()];
    for p in plan {
        parts[p.conn].push(p);
    }
    let epoch = Instant::now();
    let give_up = lead + secs + 10.0;
    let [c0, c1] = conns;
    let [p0, p1] = parts;
    let (s0, s1) = (mix.write_seq.clone(), mix.write_seq.clone());
    let ((mut all, q0), (b, q1)) = std::thread::scope(|s| {
        let h = s.spawn(|| drive(inp, c1, p1, s1, epoch, give_up));
        let a = drive(inp, c0, p0, s0, epoch, give_up);
        (a, h.join().expect("generator thread panicked"))
    });
    all.extend(b);
    // Each tenant's writes go over one connection: take its counter there.
    for (t, seq) in mix.write_seq.iter_mut().enumerate() {
        *seq = if t % 2 == 0 { q0[t] } else { q1[t] };
    }
    all.sort_by(|a, b| a.timing.due.total_cmp(&b.timing.due));
    Ok(all)
}

// ---------- checking ----------

/// Expected output of every distinct read, computed in process.
fn expected_read(
    inp: &Inputs,
    kind: &Kind,
    cache: &mut BTreeMap<String, (String, u8)>,
) -> Result<(String, u8), String> {
    let key = format!("{kind:?}");
    if let Some(v) = cache.get(&key) {
        return Ok(v.clone());
    }
    let v = match kind {
        Kind::Program { op, prog } => {
            let src = &inp.programs[*prog];
            let path = format!("p{prog}.ndl");
            let o = match *op {
                "chase" => pipeline::chase_untraced(src, &path, &[]).map(|s| (s, 0)),
                "analyze" => {
                    let art = eval::ProgramArtifacts::build(src);
                    eval::analyze_program(&art, &[], Instant::now()).map(|o| (o.stdout, o.exit))
                }
                _ => eval::lint(&path, src, &[]).map(|o| (o.stdout, o.exit)),
            };
            o?
        }
        Kind::Decide(d) => {
            let dec = &inp.decisions[*d];
            let out = pipeline::decide_untraced(dec.op, &dec.args)?;
            dec.verdict.check(&out)?;
            (out, 0)
        }
        _ => unreachable!("session requests are checked against the scratch replay"),
    };
    cache.insert(key, v.clone());
    Ok(v)
}

/// Compares every response with its in-process replay.
fn check(
    inp: &Inputs,
    outs: &[Outcome],
    r: &mut Report,
    cache: &mut BTreeMap<String, (String, u8)>,
) {
    for o in outs {
        let Some(resp) = &o.resp else {
            r.fail(format!(
                "request {} ({:?}) not answered",
                o.plan.id, o.plan.kind
            ));
            continue;
        };
        if !resp.ok {
            r.fail(format!(
                "request {} ({:?}): {:?}",
                o.plan.id, o.plan.kind, resp.error
            ));
            continue;
        }
        let ok = match &o.plan.kind {
            Kind::Write { tenant, seq } => resp.output == inp.tenants[*tenant].expected[*seq],
            Kind::IncrQuery(t) => {
                let (lo, hi) = o.versions;
                (lo..=hi).any(|v| inp.tenants[*t].chase_at.get(v) == Some(&resp.output))
            }
            kind => match expected_read(inp, kind, cache) {
                Ok((out, exit)) => resp.output == out && resp.exit == exit,
                Err(e) => {
                    r.fail(format!("replay of {kind:?} failed: {e}"));
                    continue;
                }
            },
        };
        if !ok {
            r.fail(format!(
                "request {} ({:?}): response differs from replay",
                o.plan.id, o.plan.kind
            ));
        }
    }
}

// ---------- phases and metrics ----------

fn latencies(outs: &[Outcome], writes: bool) -> Vec<f64> {
    outs.iter()
        .filter(|o| o.plan.kind.is_write() == writes)
        .filter_map(|o| o.timing.latency())
        .map(|s| s * 1e3)
        .collect()
}

/// Read (or write) latencies in ms, with every failed or unanswered
/// request counted as missing any limit.
fn latencies_or_miss<'a>(outs: impl IntoIterator<Item = &'a Outcome>, writes: bool) -> Vec<f64> {
    const MISS_MS: f64 = 1e9;
    outs.into_iter()
        .filter(|o| o.plan.kind.is_write() == writes)
        .map(|o| match (&o.resp, o.timing.latency()) {
            (Some(r), Some(l)) if r.ok => l * 1e3,
            _ => MISS_MS,
        })
        .collect()
}

/// A rate step's verdict.
struct Step {
    rate: f64,
    read_p90: f64,
    passed: bool,
}

fn describe(
    label: &str,
    outs: &[Outcome],
    secs: f64,
    floor: usize,
    r: &mut Report,
) -> (f64, usize, bool) {
    let timings: Vec<Timing> = outs.iter().map(|o| o.timing).collect();
    let end = timings.iter().map(|t| t.due).fold(0.0, f64::max);
    let mid = end - secs / 2.0;
    let backlog = backlog_at(&timings, end);
    let grows = backlog_grows(&timings, mid, end, floor);
    let late: Vec<f64> = timings
        .iter()
        .filter_map(|t| t.lateness())
        .map(|s| s * 1e3)
        .collect();
    let failed = outs
        .iter()
        .filter(|o| !o.resp.as_ref().is_some_and(|x| x.ok))
        .count();
    r.detail(format!(
        "{label}: {} requests, {} failed; {}; {}; {}; end backlog {backlog}{}",
        outs.len(),
        failed,
        Summary::of(&latencies(outs, false)).render("read", "ms"),
        Summary::of(&latencies(outs, true)).render("write", "ms"),
        Summary::of(&late).render("lateness", "ms"),
        if grows { " (growing)" } else { "" }
    ));
    (median(&late), backlog, grows || failed > 0)
}

/// The highest rate step whose read p90 (failed reads counting as misses)
/// meets the limit with no growing backlog, interpolated on read p90
/// towards the first step that misses, so that the estimate moves
/// continuously with the latency curve instead of jumping by a step.
fn max_rps(steps: &[Step], limit: f64) -> f64 {
    let Some(first) = steps.first() else {
        return f64::NAN;
    };
    if !first.passed {
        return first.rate * (limit / first.read_p90).min(1.0);
    }
    for w in steps.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if !b.passed {
            if b.read_p90 > limit && b.read_p90 > a.read_p90 {
                let f = ((limit - a.read_p90) / (b.read_p90 - a.read_p90)).clamp(0.0, 1.0);
                return a.rate + (b.rate - a.rate) * f;
            }
            return a.rate;
        }
    }
    steps.last().map_or(f64::NAN, |s| s.rate)
}

fn setup_once(
    cfg: &Config,
    inp: &Inputs,
    tag: &str,
    telemetry: Option<&Path>,
) -> Result<Daemon, String> {
    let d = Daemon::start(cfg, tag, telemetry)?;
    let mut c = d.connect()?;
    for (i, t) in inp.tenants.iter().enumerate() {
        let resp = call(
            &mut c,
            &Request {
                tenant: format!("t{i}"),
                op: "incr-open".to_string(),
                path: t.name.clone(),
                program: Some(t.src.clone()),
                ..Request::default()
            },
        )?;
        if !resp.ok {
            return Err(format!("incr-open failed: {:?}", resp.error));
        }
    }
    // Warm-up: the hottest programs and a few decisions, closed loop.
    let warm = if cfg.tiny { 4 } else { WARMUP };
    for i in 0..warm {
        let kind = if i % 4 == 3 {
            Kind::Decide(i % inp.decisions.len())
        } else {
            Kind::Program {
                op: "chase",
                prog: i % inp.programs.len().min(6),
            }
        };
        call(&mut c, &request(inp, &kind, 0))?;
    }
    Ok(d)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let sp = &cfg.spec;
    let mut r = Report::default();
    let nominal_secs = cfg.seconds * NOMINAL_SHARE;
    let steps: Vec<f64> = if cfg.trace {
        Vec::new()
    } else if cfg.tiny {
        sp.rate_steps_rps.iter().take(2).copied().collect()
    } else {
        sp.rate_steps_rps.clone()
    };
    let step_secs = cfg.seconds * (1.0 - NOMINAL_SHARE) / steps.len().max(1) as f64;
    let budget = sp.nominal_rps * nominal_secs + steps.iter().sum::<f64>() * step_secs;
    let budget_writes = budget * (DECK_WRITES as f64 / DECK as f64);
    let per_tenant = ((budget_writes * 2.0) as usize / TENANT_FACTS.len()).max(4) + 4;
    let telemetry = cfg
        .trace
        .then(|| out_dir().join(format!("telemetry-{}.jsonl", std::process::id())));
    if let Some(t) = &telemetry {
        let _ = std::fs::remove_file(t);
    }

    let mut setups = Vec::new();
    let mut setup = None;
    for rep in 0..crate::SETUP_REPS {
        let t0 = Instant::now();
        let inp = inputs(cfg, per_tenant)?;
        let last = rep + 1 == crate::SETUP_REPS;
        let d = setup_once(
            cfg,
            &inp,
            &rep.to_string(),
            if last { telemetry.as_deref() } else { None },
        )?;
        setups.push(t0.elapsed().as_secs_f64());
        if last {
            setup = Some((inp, d));
        }
    }
    let (mut inp, mut daemon) = setup.expect("at least one set-up");
    let pool_cost: usize = inp.programs.iter().map(|p| program_cost(p)).sum();
    r.detail(format!(
        "daemon: ndl serve {} (threads_available={}); program pool {} programs, {} cache bytes of artifacts; {} decisions; {} tenants with {:?} source facts",
        daemon.flags.join(" "),
        crate::threads_available(),
        inp.programs.len(),
        pool_cost,
        inp.decisions.len(),
        inp.tenants.len(),
        inp.tenants.iter().map(|t| member_facts(&t.src).len()).collect::<Vec<_>>()
    ));
    if !cfg.tiny && pool_cost <= CACHE_BYTES {
        return Err(format!(
            "--cache-bytes {CACHE_BYTES} holds the whole pool ({pool_cost})"
        ));
    }
    r.detail(format!(
        "load: open loop, 1 generator process, 2 threads, 2 pipelined connections; nominal {} rps for {nominal_secs:.1} s; steps {:?} rps x {step_secs:.1} s; read p90 limit {} ms",
        sp.nominal_rps, steps, sp.latency_limit_ms
    ));

    let mut mix = Mix::new(cfg.seed, inp.decisions.len(), inp.tenants.len());
    let before = cache_stats(&daemon)?;
    let nominal = run_phase(&inp, &daemon, &mut mix, sp.nominal_rps, nominal_secs)?;
    let after = cache_stats(&daemon)?;
    // The daemon's high-water mark under nominal load (rate steps overload
    // it on purpose).
    let rss = peak_rss_mb(Some(daemon.child.id()));
    let (late_ms, backlog, _) = describe("nominal", &nominal, nominal_secs, BACKLOG_FLOOR, &mut r);
    let mut all = nominal.clone();
    let mut step_results = Vec::new();
    for &rate in &steps {
        let outs = run_phase(&inp, &daemon, &mut mix, rate, step_secs)?;
        let (_, _, bad) = describe(
            &format!("step {rate} rps"),
            &outs,
            step_secs,
            BACKLOG_FLOOR,
            &mut r,
        );
        // A step's read p90 is the median over three slices of it, so a
        // second-long burst from outside does not fail the whole step.
        let read_p90 = sliced_median(
            &outs,
            |o| o.timing.due,
            0.0,
            step_secs,
            3,
            |s| percentile(&sorted(&latencies_or_miss(s.iter().copied(), false)), 0.9),
        );
        let passed = !bad && read_p90 <= sp.latency_limit_ms;
        step_results.push(Step {
            rate,
            read_p90,
            passed,
        });
        all.extend(outs);
        if !passed {
            break;
        }
    }
    // Saturation: offered twice the top step for a moment, the daemon
    // works off its backlog at its own pace; completions over the time
    // from the first send to the last answer are its sustained throughput.
    let mut throughput = f64::NAN;
    if let Some(&top) = steps.last() {
        let sat_secs = (step_secs * 0.75).min(1.5);
        let outs = run_phase(&inp, &daemon, &mut mix, 2.0 * top, sat_secs)?;
        let first = outs
            .iter()
            .filter_map(|o| o.timing.sent)
            .fold(f64::INFINITY, f64::min);
        let last = outs
            .iter()
            .filter_map(|o| o.timing.done)
            .fold(0.0, f64::max);
        let done = outs
            .iter()
            .filter(|o| o.resp.as_ref().is_some_and(|x| x.ok))
            .count();
        throughput = done as f64 / (last - first);
        describe(
            &format!("saturation {} rps", 2.0 * top),
            &outs,
            sat_secs,
            BACKLOG_FLOOR,
            &mut r,
        );
        r.detail(format!(
            "saturation throughput: {throughput:.3} requests/s ({done} answered in {:.3} s)",
            last - first
        ));
        all.extend(outs);
    }
    daemon.stop();

    r.attempted = all.len() as u64;
    // Untimed: the from-scratch replay that writes are checked against,
    // one thread per tenant.
    std::thread::scope(|s| {
        let handles: Vec<_> = inp
            .tenants
            .iter_mut()
            .zip(&mix.write_seq)
            .map(|(t, &used)| s.spawn(move || scratch_replay(t, used)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("replay thread panicked"))
    })?;
    let mut cache = BTreeMap::new();
    check(&inp, &all, &mut r, &mut cache);
    let reads = latencies(&nominal, false);
    let writes = latencies(&nominal, true);
    let rs = Summary::of(&reads);
    let ws = Summary::of(&writes);
    r.detail(format!(
        "nominal read.p50_ms={:.4} read.p99_ms={} write.p50_ms={:.4} write.p90_ms={} (reads n={}, writes n={})",
        rs.p50,
        if reads.len() > 1000 { format!("{:.4}", percentile(&sorted(&reads), 0.99)) } else { "n/a (<1001 reads)".to_string() },
        ws.p50,
        if writes.len() > 100 { format!("{:.4}", percentile(&sorted(&writes), 0.9)) } else { format!("{:.4} (<101 writes)", percentile(&sorted(&writes), 0.9)) },
        reads.len(),
        writes.len()
    ));
    let rd = sorted(&reads);
    r.detail(format!(
        "nominal read deciles (ms): {}",
        (1..10)
            .map(|i| format!("{:.2}", percentile(&rd, i as f64 / 10.0)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let chase_misses: Vec<f64> = nominal
        .iter()
        .filter(|o| matches!(o.plan.kind, Kind::Program { op: "chase", .. }))
        .filter(|o| o.resp.as_ref().is_some_and(|x| x.cache == "miss"))
        .filter_map(|o| o.timing.latency())
        .map(|x| x * 1e3)
        .collect();
    r.detail(Summary::of(&chase_misses).render("nominal[chase, cache miss]", "ms"));
    if !cfg.tiny && chase_misses.is_empty() {
        return Err("no nominal chase read missed the program cache".into());
    }
    for label in [
        "chase",
        "analyze",
        "lint",
        "decide",
        "incr-query",
        "incr-edit",
    ] {
        let v: Vec<f64> = nominal
            .iter()
            .filter(|o| kind_label(&o.plan.kind) == label)
            .filter_map(|o| o.timing.latency())
            .map(|x| x * 1e3)
            .collect();
        r.detail(Summary::of(&v).render(&format!("nominal[{label}]"), "ms"));
    }
    r.detail(Summary::of(&setups).render("setup", "s"));
    r.detail(format!("fail_ratio: {}/{}", r.failed, r.attempted));
    if cfg.trace {
        return traced(
            cfg,
            &inp,
            &nominal,
            before,
            after,
            late_ms,
            backlog,
            telemetry.as_deref(),
            r,
        );
    }
    let mrps = max_rps(&step_results, sp.latency_limit_ms);
    r.detail(format!(
        "max_rps: {mrps:.3} (read p90 limit {} ms)",
        sp.latency_limit_ms
    ));
    r.metric("setup_s", median(&setups), "s");
    r.metric("peak_rss_mb", rss, "MB");
    // The bounded latencies are those that computation dominates: writes
    // (each a full recompute) and chase reads that miss the program cache.
    // A light read (a cache hit or a small decision, 1-3 ms) is mostly
    // thread wake-ups and socket hand-offs; between runs of the same code
    // the read p50 and p90 moved by 25-40% as the host's speed changed,
    // writes and cache-missing chases about as much as the host itself.
    // Read figures are printed above.
    // Each figure is taken over the whole nominal phase: its writes are
    // too few to split into time slices.
    let all_writes = sorted(&latencies_or_miss(&nominal, true));
    r.metric("p50_ms", percentile(&all_writes, 0.5), "ms");
    r.metric("p90_ms", percentile(&all_writes, 0.9), "ms");
    r.metric("heavy.p50_ms", median(&chase_misses), "ms");
    // The bounded rate is the saturation throughput: max_rps moves by a
    // whole step whenever noise flips one step's verdict near the knee.
    r.metric("work_per_s", throughput, "1/s");
    Ok(r)
}

/// Telemetry lines: request id → (elapsed ns, cache disposition).
fn telemetry(path: &Path) -> BTreeMap<u64, (u64, String)> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    for line in text.lines() {
        let Ok(v) = ndl_serve::proto::parse_value(line) else {
            continue;
        };
        let Some(o) = v.as_object() else { continue };
        let get = |k: &str| o.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        if let (Some(id), Some(ns), Some(cache)) = (
            get("id").and_then(|v| v.as_f64()),
            get("elapsed_ns").and_then(|v| v.as_f64()),
            get("cache").and_then(|v| v.as_str()),
        ) {
            out.insert(id as u64, (ns as u64, cache.to_string()));
        }
    }
    out
}

/// The traced run: the nominal phase against a daemon writing telemetry,
/// then an in-process replay of every request the daemon evaluated
/// (cache misses and uncached ops), timed layer by layer. Each request
/// gives up to two span trees that share its request id. The client tree
/// is laid out from the request's timestamps: `request` (due → response;
/// its self time is the wire) over `serve.lateness` (due → sent) and
/// `serve.daemon` (the daemon's own elapsed time). The replay tree is
/// timed on the replay's own clock: `serve.replay` over the layer spans;
/// its self time is harness glue, which `trace.coverage` measures.
#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &Config,
    inp: &Inputs,
    nominal: &[Outcome],
    before: CacheStats,
    after: CacheStats,
    late_ms: f64,
    backlog: usize,
    tele: Option<&Path>,
    mut r: Report,
) -> Result<Report, String> {
    let tele = tele.map(telemetry).unwrap_or_default();
    let mut client = Tracer::new();
    let mut t = Tracer::new();
    let mut c = Counters::default();
    let mut sessions: Vec<IncrDb> = inp
        .tenants
        .iter()
        .map(|x| {
            IncrDb::new(
                &x.src,
                IncrOptions {
                    path: x.name.clone(),
                    budget: None,
                    scratch: false,
                },
            )
        })
        .collect::<Result<_, _>>()?;
    let mut seen = std::collections::BTreeSet::new();
    let mut repeat_misses = 0u64;
    let (mut replica_ns, mut plain_ns) = (0u64, 0u64);
    let (mut eval_ns, mut queue_ns, mut beyond_daemon_ns) = (0u64, 0u64, 0u64);
    let (mut rebuild_ns, mut rebuilds) = (0u64, 0u64);
    let mut core_clipped_ns = 0u64;
    let mut replayed = 0u64;
    let mut cursor = 0u64;
    for o in nominal {
        let (Some(sent), Some(done)) = (o.timing.sent, o.timing.done) else {
            continue;
        };
        let Some(&(daemon_ns, ref disposition)) = tele.get(&o.plan.id) else {
            continue;
        };
        client.set_request(o.plan.id);
        t.set_request(o.plan.id);
        let first_time = seen.insert(format!("{:?}", o.plan.kind));
        if disposition == "miss" && !first_time {
            repeat_misses += 1;
        }
        // The client tree, laid out after the previous request's.
        let ns = |s: f64| (s * 1e9) as u64;
        let start = cursor;
        let sent_at = start + ns(sent - o.timing.due);
        let end = start + ns(done - o.timing.due);
        let rtt = end - sent_at;
        let daemon_ns = daemon_ns.min(rtt);
        let d_start = sent_at + (rtt - daemon_ns) / 2;
        let root = client.record("request", start, end, None);
        client.record("serve.lateness", start, sent_at, Some(root));
        client.record("serve.daemon", d_start, d_start + daemon_ns, Some(root));
        cursor = end + 1;
        if disposition == "hit" {
            queue_ns += daemon_ns;
            continue;
        }
        // The replay tree: only the replica runs inside `serve.replay`;
        // the checks and side measurements follow it.
        let root = t.spans().len();
        t.begin("serve.replay");
        let mut core_query = None;
        // Output of a replica that must match the untraced user path.
        let mut got = None;
        match &o.plan.kind {
            Kind::Program { op, prog } => {
                let src = &inp.programs[*prog];
                let path = format!("p{prog}.ndl");
                match *op {
                    "chase" => {
                        let t0 = Instant::now();
                        got = Some(pipeline::chase_file(src, &path, &mut t, &mut c));
                        replica_ns += t0.elapsed().as_nanos() as u64;
                    }
                    "analyze" => {
                        let _ = pipeline::build(src, &mut t, &mut c);
                    }
                    _ => {
                        t.begin("analyze");
                        let _ = eval::lint(&path, src, &[]);
                        t.end();
                    }
                }
            }
            Kind::Decide(d) => {
                let dec = &inp.decisions[*d];
                let t0 = Instant::now();
                got = Some(pipeline::decide(dec.op, &dec.args, &mut t, &mut c));
                replica_ns += t0.elapsed().as_nanos() as u64;
            }
            Kind::IncrQuery(ten) => {
                let q0 = t.now_ns();
                let before = sessions[*ten].stats().recomputes;
                let _ = sessions[*ten].query(QueryKey::Chase);
                let name = if sessions[*ten].stats().recomputes > before {
                    "incr.recompute"
                } else {
                    "incr.verify"
                };
                t.record(name, q0, t.now_ns(), Some(root));
            }
            Kind::Write { tenant, seq } => {
                let db = &mut sessions[*tenant];
                let ops = parse_edit_script(&inp.tenants[*tenant].scripts[*seq])?;
                let mut rendered = Vec::new();
                for (_, op) in &ops {
                    let q0 = t.now_ns();
                    match op {
                        ndl_incr::EditOp::Insert(f) => {
                            db.insert_fact(f)?;
                            t.record("incr.edit", q0, t.now_ns(), Some(root));
                        }
                        ndl_incr::EditOp::Retract(f) => {
                            db.retract_fact(f)?;
                            t.record("incr.edit", q0, t.now_ns(), Some(root));
                        }
                        ndl_incr::EditOp::Query(key) => {
                            let before = db.stats().recomputes;
                            let out = db.query(*key);
                            let recomputed = db.stats().recomputes > before;
                            let name = if recomputed {
                                "incr.recompute"
                            } else {
                                "incr.verify"
                            };
                            let q1 = t.now_ns();
                            let span = t.record(name, q0, q1, Some(root));
                            if *key == QueryKey::Core && recomputed {
                                core_query = Some((span, q0, q1));
                            }
                            rendered.push((*key, out));
                        }
                        other => return Err(format!("unexpected edit op {other:?}")),
                    }
                }
                if eval::render_incr_outputs(&rendered) != inp.tenants[*tenant].expected[*seq] {
                    r.fail(format!(
                        "incremental replay of t{tenant} write {seq} differs from scratch"
                    ));
                }
            }
        }
        t.end();
        let replay_ns = t.spans()[root].end - t.spans()[root].start;
        eval_ns += replay_ns;
        queue_ns += daemon_ns.saturating_sub(replay_ns);
        beyond_daemon_ns += replay_ns.saturating_sub(daemon_ns);
        replayed += 1;
        if let Some(got) = got {
            let p0 = Instant::now();
            let want = match &o.plan.kind {
                Kind::Program { prog, .. } => {
                    pipeline::chase_untraced(&inp.programs[*prog], &format!("p{prog}.ndl"), &[])
                }
                Kind::Decide(d) => {
                    pipeline::decide_untraced(inp.decisions[*d].op, &inp.decisions[*d].args)
                }
                _ => unreachable!("only chase and decision replicas have outputs"),
            };
            plain_ns += p0.elapsed().as_nanos() as u64;
            if got != want {
                r.fail(format!(
                    "traced replay of {:?} differs from the untraced path",
                    o.plan.kind
                ));
            }
        }
        if let Kind::Write { tenant, .. } = &o.plan.kind {
            // The rebuild a recompute starts with, timed on its own.
            let src = sessions[*tenant].canonical_src();
            let b0 = Instant::now();
            let _ = eval::ProgramArtifacts::build(&src);
            rebuild_ns += b0.elapsed().as_nanos() as u64;
            rebuilds += 1;
            if let Some((span, q0, q1)) = core_query {
                // A recomputed core query is the core computation and the
                // rendering of its facts. The core step, timed on its own
                // with its counters, is carved out of the query's span.
                let mut side = Tracer::new();
                pipeline::chase_core(&src, &mut side, &c.core)?;
                let core: u64 = side
                    .spans()
                    .iter()
                    .filter(|s| s.name == "hom.core")
                    .map(|s| s.end - s.start)
                    .sum();
                let kept = core.min(q1 - q0);
                core_clipped_ns += core - kept;
                t.record("hom.core", q1 - kept, q1, Some(span));
            }
        }
    }
    let ops = nominal.len() as u64;
    let mut spans = client.spans().to_vec();
    crate::trace::append(&mut spans, t.spans());
    let _ = crate::trace::write_jsonl(
        &spans,
        &out_dir().join(format!("spans-serve-{}.jsonl", cfg.seed)),
    );
    let per_replay = |x: u64| x as f64 / 1e6 / replayed.max(1) as f64;
    let overhead = per_replay(replica_ns) - per_replay(plain_ns);
    r.detail(format!(
        "replayed {replayed} evaluated requests in process: {:.4} ms/replayed op, of which {:.4} ms beyond the daemon's own time; tracing overhead of the replica {overhead:.4} ms/replayed op; core step longer than its query by {:.4} ms in total",
        per_replay(eval_ns),
        per_replay(beyond_daemon_ns),
        core_clipped_ns as f64 / 1e6
    ));
    crate::layers::report(&mut r, &spans, &c, ops, overhead, &["serve.replay"]);
    let n = ops.max(1) as f64;
    let incr = sessions.iter().fold(ndl_obs::IncrStats::new(), |mut a, s| {
        let x = s.stats();
        a.lookups += x.lookups;
        a.hits += x.hits;
        a.recomputes += x.recomputes;
        a.green_marks += x.green_marks;
        a.cutoffs += x.cutoffs;
        a
    });
    r.metric("incr.lookups", incr.lookups as f64 / n, "count");
    r.metric(
        "incr.hit_ratio",
        if incr.lookups == 0 {
            0.0
        } else {
            incr.hits as f64 / incr.lookups as f64
        },
        "ratio",
    );
    r.metric("incr.recomputes", incr.recomputes as f64 / n, "count");
    r.metric("incr.green_marks", incr.green_marks as f64 / n, "count");
    r.metric("incr.cutoffs", incr.cutoffs as f64 / n, "count");
    r.metric(
        "incr.rebuild.ms",
        if rebuilds == 0 {
            0.0
        } else {
            rebuild_ns as f64 / 1e6 / rebuilds as f64
        },
        "ms",
    );
    r.metric("serve.eval.ms", eval_ns as f64 / 1e6 / n, "ms");
    // An estimate: the daemon's time minus the replayed evaluation.
    r.metric("serve.queue.ms", queue_ns as f64 / 1e6 / n, "ms");
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    r.metric(
        "serve.cache.hit_ratio",
        if lookups > 0.0 {
            (after.hits - before.hits) / lookups
        } else {
            0.0
        },
        "ratio",
    );
    r.metric(
        "serve.cache.evictions",
        after.evictions - before.evictions,
        "count",
    );
    r.metric(
        "serve.cache.generation_bumps",
        after.generation - before.generation,
        "count",
    );
    r.metric("serve.cache.repeat_misses", repeat_misses as f64, "count");
    r.metric("serve.lateness.ms", late_ms, "ms");
    r.metric("serve.backlog", backlog as f64, "count");
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rps_interpolates_towards_the_first_miss() {
        let step = |rate, read_p90, passed| Step {
            rate,
            read_p90,
            passed,
        };
        let limit = 100.0;
        let s = [
            step(10.0, 20.0, true),
            step(20.0, 60.0, true),
            step(30.0, 140.0, false),
        ];
        assert!((max_rps(&s, limit) - 25.0).abs() < 1e-9);
        // A miss by failures or backlog alone stops at the passing step.
        let s = [step(10.0, 20.0, true), step(20.0, 50.0, false)];
        assert_eq!(max_rps(&s, limit), 10.0);
        // Below the first step: scaled by how far it misses.
        assert_eq!(max_rps(&[step(10.0, 200.0, false)], limit), 5.0);
        assert_eq!(
            max_rps(&[step(10.0, 20.0, true), step(20.0, 30.0, true)], limit),
            20.0
        );
    }

    #[test]
    fn one_pass_response_parser_agrees_with_the_protocol() {
        for resp in [
            Response {
                id: 42,
                ok: true,
                exit: 3,
                cache: "hit".into(),
                output: "fixpoint: 2 facts\n  R(\"a\",b) \\ π \u{1}\n".into(),
                stderr: "warn\ttab".into(),
                error: None,
            },
            Response {
                id: 7,
                ok: false,
                exit: 101,
                cache: "none".into(),
                output: String::new(),
                stderr: String::new(),
                error: Some("no session".into()),
            },
        ] {
            assert_eq!(parse_response(resp.to_json().as_bytes()), Some(resp));
        }
    }

    #[test]
    fn frame_buffer_splits_partial_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"one").unwrap();
        write_frame(&mut wire, b"three").unwrap();
        let mut fb = FrameBuf {
            buf: wire[..5].to_vec(),
        };
        assert_eq!(fb.pop(), None);
        fb.buf.extend_from_slice(&wire[5..9]);
        assert_eq!(fb.pop().as_deref(), Some(&b"one"[..]));
        assert_eq!(fb.pop(), None);
        fb.buf.extend_from_slice(&wire[9..]);
        assert_eq!(fb.pop().as_deref(), Some(&b"three"[..]));
    }

    #[test]
    fn edit_scripts_change_state_and_end_in_queries() {
        let src = clio_job(10, 2, 3, false).src;
        let mut rng = Rng::new(1, 1);
        let s = scripts(&src, 0, 10, 3, 4, true, &mut rng);
        assert_eq!(s.len(), 3);
        for script in &s {
            let ops = parse_edit_script(script).unwrap();
            assert_eq!(ops.len(), 4 + 2 + 2);
        }
        let mut t = Tenant {
            name: "t.ndl".into(),
            src,
            scripts: s,
            expected: Vec::new(),
            chase_at: Vec::new(),
        };
        scratch_replay(&mut t, 3).unwrap();
        assert_eq!(t.chase_at.len(), 4);
        assert!(
            t.chase_at.windows(2).all(|w| w[0] != w[1]),
            "every write changes the chase"
        );
    }
}
