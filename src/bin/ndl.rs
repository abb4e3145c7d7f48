//! `ndl` — a command-line front end to the nested-dependency reasoner.
//!
//! ```text
//! ndl parse    (--nested|--st|--so|--egd) "<dependency>"
//! ndl lint     <file> [--json] [--stats] [--max-depth N] [--max-skolem-arity N] [--max-findings N]
//! ndl analyze  <file> [--json|--dot[=positions|conflicts|dataflow]|--schedule [--json]|--dataflow [--json]] [--stats]
//! ndl skolemize "<nested tgd>"
//! ndl chase    <file> [--delta|--no-delta] [--no-cert] [--stats] [--no-timings] [--trace <out.jsonl>] [--budget N]
//! ndl chase    --tgd "<nested tgd>"... --fact "R(a,b)"... [--egd "<egd>"...] [--core]
//! ndl incr     <file> --edits <script.jsonl> [--json] [--stats] [--scratch] [--budget N]
//! ndl implies  --premise "<tgd>"... [--egd "<egd>"...] --conclusion "<tgd>"
//! ndl equiv    --left "<tgd>"... --right "<tgd>"... [--egd "<egd>"...]
//! ndl classify --tgd "<tgd>"... [--egd "<egd>"...]
//! ndl compose  --first "<st tgd>"... --second "<st tgd>"...
//! ndl certain  --tgd "<tgd>"... --fact "R(a,b)"... --query "q(x) :- T(x,y)"
//! ndl serve    (--socket <path>|--port N) [--workers N] [--queue N] [--cache-bytes N] [--budget N] [--telemetry <f.jsonl>]
//! ndl request  (--socket <path>|--port N) <requests.jsonl>
//! ```
//!
//! All dependencies use the library's text syntax (see the README).
//! `lint` exits with the number of error- and warning-severity diagnostics
//! (capped at `--max-findings`, default 100), so `ndl lint file && deploy`
//! gates on a clean program.
//! `analyze` prints the semantic report for a program — position/Skolem
//! graphs, chase-termination class and cost bounds — as a human summary,
//! machine-readable JSON (`--json`) or Graphviz DOT (`--dot`, or
//! `--dot=positions`; `--dot=conflicts` renders the statement conflict
//! graph, `--dot=dataflow` the relation-level dataflow graph).
//! `analyze --schedule` prints the schedule
//! report — conflict-free stages, width, conflict edges — as a summary or,
//! with `--json`, the machine-readable `ScheduleReport`; `analyze
//! --dataflow` prints the whole-mapping dataflow report — sources,
//! reachability, dead statements, ground relations, position provenance —
//! as a summary or, with `--json`, the machine-readable `DataflowSummary`.
//!
//! `chase <file>` runs the **planned fixpoint chase** of a program file end
//! to end: tgd statements become the chase program, `fact:` statements the
//! source instance, and the analyzer's plan supplies the firing order and
//! termination verdict. By default the **semi-naive delta engine** runs:
//! each round matches only triggers reaching the previous round's delta
//! frontier, with output bit-identical to the naive rescan engine
//! (`--no-delta`, or `NDL_CHASE_DELTA=0`, selects the naive engine, the
//! reference oracle). The retired `--parallel` flag and
//! `NDL_CHASE_{THREADS,SHARDS,SEQUENTIAL_CUTOFF}` are accepted and ignored
//! with one warning each on stderr. `--budget N` bounds programs without a
//! termination guarantee; `--stats` prints the engine's counters as JSON
//! instead of the instance (`--no-timings` zeroes wall-clock fields for
//! diffable output);
//! `--trace f.jsonl` appends one JSON event per round/statement to `f`.
//! `lint`/`analyze` accept `--stats` for a one-line timing/size summary on
//! stderr, with the wall time of each analysis pass under `passes_ns`.
//! I/O and usage failures exit with code 101, distinct from lint
//! findings; only a usage failure prints the usage text after its
//! message.
//!
//! `incr` opens a program file as a **live incremental instance** and
//! replays an edit script against it: one JSON object per line (`insert`,
//! `retract`, `set-stmt`, `compact`, `query`), each `query` op answered
//! through the red-green query graph — memoized results are reused when
//! dependency fingerprints prove them still valid, and recomputed (with
//! output bit-identical to a from-scratch run) when not. `--stats` prints
//! the red-green counters as one JSON line on stderr, `--json` renders
//! queries and counters as machine-readable JSON, `--scratch` disables
//! reuse (every query recomputes — the parity oracle used by ci.sh). See
//! `docs/incremental.md` for the algorithm and the script format.
//!
//! `serve` runs the long-running multi-tenant daemon: the ops above
//! (lint, analyze, chase, implies, equiv, classify) over a framed-JSON
//! protocol on a Unix or TCP socket, with an LRU program cache, bounded
//! work queue and per-tenant step-budget ceilings. `request` is the
//! matching client: it replays a JSONL file of requests (supporting a
//! `program_file` field resolved client-side) and prints one response
//! JSON per line. The evaluation code is shared — a daemon response is
//! byte-identical to the equivalent one-shot invocation. See
//! `docs/serve.md`.
//!
//! The heavy lifting for the shared subcommands lives in
//! [`nested_deps::serve::eval`]; this binary parses paths and flags, reads
//! files, and prints what evaluation returns.

use nested_deps::obs;
use nested_deps::prelude::*;
use nested_deps::reasoning::{certain_answers, compose_glav, ConjunctiveQuery};
use nested_deps::serve::eval::{
    self, flag_values, has_flag, parse_facts, parse_mapping, positional_arg, EvalOutput,
};
use nested_deps::serve::{client::Client, proto, server};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
// The prelude exports core's `Result<T>` alias; this binary's helpers
// return plain `Result<_, String>`, so re-shadow the std type.
use std::result::Result;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = run(&args);
    // Configuration problems (e.g. an unparsable NDL_HOM_THREADS override)
    // are collected process-wide and surfaced here, once, on stderr.
    for w in obs::take_warnings() {
        eprintln!("warning: {}", w.message);
    }
    let failure = match out {
        Ok(code) => return code,
        Err(failure) => failure,
    };
    match failure {
        Failure::Usage(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
        }
        Failure::Run(msg) => eprintln!("error: {msg}"),
    }
    // Usage, I/O and internal failures use a code far above the lint
    // findings range (which is capped at 100), so scripts can tell
    // "program has findings" from "tool could not run".
    ExitCode::from(101)
}

/// Why a command failed. Only a usage error is followed by the usage
/// text; a failure at run time (a program that does not parse, an
/// unreadable file, a refused chase) prints its message alone.
enum Failure {
    /// The command line itself is wrong.
    Usage(String),
    /// The command ran and failed.
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
    }
}

/// A usage error.
fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

const USAGE: &str = "usage:
  ndl parse (--nested|--st|--so|--egd) \"<dependency>\"
  ndl lint <file> [--json] [--stats] [--max-depth N] [--max-skolem-arity N] [--max-findings N]
  ndl analyze <file> [--json|--dot[=positions|conflicts|dataflow]|--schedule [--json]|--dataflow [--json]] [--stats]
  ndl skolemize \"<nested tgd>\"
  ndl chase <file> [--delta|--no-delta] [--no-cert] [--stats] [--no-timings] [--trace <out.jsonl>] [--budget N]
  ndl chase --tgd \"<tgd>\"... --fact \"R(a,b)\"... [--egd \"<egd>\"...] [--core]
  ndl incr <file> --edits <script.jsonl> [--json] [--stats] [--scratch] [--budget N]
  ndl implies --premise \"<tgd>\"... [--egd \"<egd>\"...] --conclusion \"<tgd>\"
  ndl equiv --left \"<tgd>\"... --right \"<tgd>\"... [--egd \"<egd>\"...]
  ndl classify --tgd \"<tgd>\"... [--egd \"<egd>\"...]
  ndl compose --first \"<st tgd>\"... --second \"<st tgd>\"...
  ndl certain --tgd \"<tgd>\"... --fact \"R(a,b)\"... --query \"q(x) :- T(x,y)\"
  ndl serve (--socket <path>|--port N) [--workers N] [--queue N] [--cache-bytes N] [--budget N] [--telemetry <f.jsonl>]
  ndl request (--socket <path>|--port N) <requests.jsonl>";

type CliResult = std::result::Result<(), Failure>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Prints an [`EvalOutput`] the way a one-shot run does: stderr first
/// (stats lines), then stdout.
fn emit(out: &EvalOutput) -> CliResult {
    eprint!("{}", out.stderr);
    write_stdout(&out.stdout)
}

/// Writes `text` to stdout through one lock. A reader that closes the
/// pipe early (`ndl chase big.ndl | head -1`) is not an error: the rest of
/// the output is dropped and the command exits as it would have.
fn write_stdout(text: &str) -> CliResult {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            Err(Failure::Run(format!("cannot write output: {e}")))
        }
        _ => Ok(()),
    }
}

/// `println!` through [`write_stdout`], returning its error from the
/// enclosing function.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(&format!("{}\n", format_args!($($arg)*)))?
    };
}

fn run(args: &[String]) -> std::result::Result<ExitCode, Failure> {
    let Some(cmd) = args.first() else {
        return Err(usage("missing subcommand"));
    };
    let rest = &args[1..];
    let mut syms = SymbolTable::new();
    let done = |r: CliResult| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "parse" => done(cmd_parse(&mut syms, rest)),
        "lint" => cmd_lint(rest),
        "analyze" => done(cmd_analyze(rest)),
        "skolemize" => done(cmd_skolemize(&mut syms, rest)),
        "chase" => done(cmd_chase(rest)),
        "incr" => done(cmd_incr(rest)),
        "implies" => done(delegate(eval::implies(rest))),
        "equiv" => done(delegate(eval::equiv(rest))),
        "classify" => done(delegate(eval::classify(rest))),
        "compose" => done(cmd_compose(&mut syms, rest)),
        "certain" => done(cmd_certain(&mut syms, rest)),
        "serve" => done(cmd_serve(rest)),
        "request" => done(cmd_request(rest)),
        other => Err(usage(format!("unknown subcommand {other:?}"))),
    }
}

/// Emits a delegated evaluation (exit code 0 — lint is the only
/// delegated command with a nonzero success exit and has its own path).
fn delegate(result: std::result::Result<EvalOutput, String>) -> CliResult {
    let out = result?;
    emit(&out)?;
    Ok(())
}

/// `ndl lint <file> ...` — reads the file, delegates to the shared
/// evaluator, exits with the (capped) finding count.
fn cmd_lint(args: &[String]) -> std::result::Result<ExitCode, Failure> {
    let path = args
        .iter()
        .find(|a| {
            !a.starts_with("--")
                && flag_values(args, "--max-depth").first() != Some(&a.as_str())
                && flag_values(args, "--max-skolem-arity").first() != Some(&a.as_str())
                && flag_values(args, "--max-findings").first() != Some(&a.as_str())
        })
        .ok_or_else(|| usage("missing program file"))?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let out = eval::lint(path, &src, args)?;
    emit(&out)?;
    Ok(ExitCode::from(out.exit))
}

/// `ndl analyze <file> ...` — reads and analyzes the file, delegates the
/// rendering.
fn cmd_analyze(args: &[String]) -> CliResult {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| usage("missing program file"))?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let started = Instant::now();
    let art = eval::ProgramArtifacts::build(&src);
    let out = eval::analyze_program(&art, args, started)?;
    emit(&out)?;
    Ok(())
}

/// `ndl chase ...` — file mode (positional program file) or inline mode
/// (`--tgd`/`--fact` flags). The environment is resolved here, at the CLI
/// boundary, and threaded explicitly into the engines (there is no
/// process-wide config global).
fn cmd_chase(args: &[String]) -> CliResult {
    if flag_values(args, "--tgd").is_empty() {
        let path = positional_arg(args, &["--trace", "--budget"])
            .ok_or_else(|| usage("chase needs a program file or --tgd/--fact flags"))?;
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let art = eval::ProgramArtifacts::build(&src);
        let cfg = ChaseConfig::from_env();
        let out = eval::chase_program(&art, path, args, &cfg, None)?;
        emit(&out)?;
        return Ok(());
    }
    delegate(eval::chase_inline(args))
}

/// `ndl incr <file> --edits <script.jsonl> ...` — loads the program as a
/// live instance, replays the edit script through the red-green query
/// graph, delegates the rendering.
fn cmd_incr(args: &[String]) -> CliResult {
    let path = positional_arg(args, &["--edits", "--budget"])
        .ok_or_else(|| usage("incr needs a program file and an --edits script"))?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let edits_values = flag_values(args, "--edits");
    let edits_path = edits_values
        .first()
        .ok_or_else(|| usage("incr needs --edits <script.jsonl>"))?;
    let edits = std::fs::read_to_string(edits_path)
        .map_err(|e| format!("cannot read {edits_path}: {e}"))?;
    delegate(eval::incr(path, &src, &edits, args))
}

fn cmd_parse(syms: &mut SymbolTable, args: &[String]) -> CliResult {
    let text = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| usage("missing dependency text"))?;
    if has_flag(args, "--so") {
        let t = parse_so_tgd(syms, text).map_err(err)?;
        let mut schema = Schema::new();
        t.validate(&mut schema).map_err(err)?;
        outln!(
            "SO tgd ({}): {}",
            if t.is_plain() { "plain" } else { "full" },
            t.display(syms)
        );
    } else if has_flag(args, "--egd") {
        let e = parse_egd(syms, text).map_err(err)?;
        let mut schema = Schema::new();
        e.validate(&mut schema).map_err(err)?;
        outln!("egd: {}", e.display(syms));
    } else if has_flag(args, "--st") {
        let t = parse_st_tgd(syms, text).map_err(err)?;
        let mut schema = Schema::new();
        t.validate(&mut schema).map_err(err)?;
        outln!("s-t tgd: {}", t.display(syms));
    } else {
        let t = parse_nested_tgd(syms, text).map_err(err)?;
        let mut schema = Schema::new();
        t.validate(&mut schema).map_err(err)?;
        outln!(
            "nested tgd ({} parts, depth {}): {}",
            t.num_parts(),
            t.depth(),
            t.display(syms)
        );
        outln!("schema: {}", schema.display(syms));
    }
    Ok(())
}

fn cmd_skolemize(syms: &mut SymbolTable, args: &[String]) -> CliResult {
    let text = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| usage("missing nested tgd"))?;
    let t = parse_nested_tgd(syms, text).map_err(err)?;
    let mut schema = Schema::new();
    t.validate(&mut schema).map_err(err)?;
    let (so, _) = skolemize(&t, syms);
    outln!("{}", so.display(syms));
    Ok(())
}

fn cmd_compose(syms: &mut SymbolTable, args: &[String]) -> CliResult {
    let first: Vec<StTgd> = flag_values(args, "--first")
        .iter()
        .map(|t| parse_st_tgd(syms, t))
        .collect::<std::result::Result<_, _>>()
        .map_err(err)?;
    let second: Vec<StTgd> = flag_values(args, "--second")
        .iter()
        .map(|t| parse_st_tgd(syms, t))
        .collect::<std::result::Result<_, _>>()
        .map_err(err)?;
    if first.is_empty() || second.is_empty() {
        return Err(usage("--first and --second each need at least one s-t tgd"));
    }
    let so = compose_glav(&first, &second, syms).map_err(err)?;
    outln!(
        "composition ({} SO tgd, {} clauses):",
        if so.is_plain() { "plain" } else { "full" },
        so.clauses.len()
    );
    outln!("  {}", so.display(syms));
    Ok(())
}

fn cmd_certain(syms: &mut SymbolTable, args: &[String]) -> CliResult {
    let m = parse_mapping(
        syms,
        &flag_values(args, "--tgd"),
        &flag_values(args, "--egd"),
    )?;
    let source = parse_facts(syms, &flag_values(args, "--fact"))?;
    let query_text = flag_values(args, "--query");
    let query_text = query_text.first().ok_or_else(|| usage("missing --query"))?;
    let q = ConjunctiveQuery::parse(syms, query_text).map_err(err)?;
    let answers = certain_answers(&q, &source, &m, syms);
    outln!(
        "certain answers of {} ({}):",
        q.display(syms),
        answers.len()
    );
    for t in answers {
        outln!(
            "  ({})",
            t.iter()
                .map(|v| v.display(syms).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    Ok(())
}

// ---------- the daemon and its client ----------

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, Failure> {
    match flag_values(args, flag).first() {
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| usage(format!("bad {flag} {v:?}"))),
        None => {
            if has_flag(args, flag) {
                return Err(usage(format!("{flag} requires a value")));
            }
            Ok(None)
        }
    }
}

fn parse_endpoint(args: &[String]) -> Result<server::Endpoint, Failure> {
    let socket = flag_values(args, "--socket");
    let port: Option<u16> = parse_num(args, "--port")?;
    match (socket.first(), port) {
        (Some(path), None) => Ok(server::Endpoint::Unix(path.into())),
        (None, Some(p)) => Ok(server::Endpoint::Tcp(p)),
        (Some(_), Some(_)) => Err(usage("--socket and --port are mutually exclusive")),
        (None, None) => {
            if has_flag(args, "--socket") {
                Err(usage("--socket requires a path"))
            } else {
                Err(usage("one of --socket <path> or --port N is required"))
            }
        }
    }
}

/// `ndl serve` — runs the daemon until a `shutdown` request arrives, then
/// prints the final counters to stderr.
fn cmd_serve(args: &[String]) -> CliResult {
    let opts = server::ServeOptions {
        endpoint: parse_endpoint(args)?,
        workers: parse_num(args, "--workers")?.unwrap_or(4),
        queue: parse_num(args, "--queue")?.unwrap_or(64),
        cache_bytes: parse_num(args, "--cache-bytes")?.unwrap_or(16 << 20),
        budget: parse_num(args, "--budget")?,
        telemetry: flag_values(args, "--telemetry").first().map(Into::into),
    };
    let srv = server::Server::bind(opts).map_err(err)?;
    eprintln!("ndl-serve: listening on {}", srv.local);
    let summary = srv.run().map_err(err)?;
    eprintln!(
        "ndl-serve: exiting after {} requests ({} malformed), cache {} hits / {} misses / {} evictions",
        summary.requests,
        summary.bad_requests,
        summary.cache_hits,
        summary.cache_misses,
        summary.cache_evictions
    );
    Ok(())
}

/// `ndl request` — replays a JSONL file of requests against a daemon and
/// prints one response JSON per line, in order. A `program_file` field is
/// resolved client-side: the file is read, its contents become `program`,
/// and its path becomes the default `path` label — so a replayed request
/// renders identically to a one-shot run on that file.
fn cmd_request(args: &[String]) -> CliResult {
    let endpoint = parse_endpoint(args)?;
    let file = positional_arg(args, &["--socket", "--port"])
        .ok_or_else(|| usage("request needs a JSONL file of requests"))?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut client = match &endpoint {
        server::Endpoint::Unix(path) => Client::connect_unix(path),
        server::Endpoint::Tcp(port) => Client::connect_tcp(*port),
    }
    .map_err(|e| format!("cannot connect: {e}"))?;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let payload =
            resolve_program_file(line).map_err(|e| format!("{file}:{}: {e}", lineno + 1))?;
        let req = proto::Request::parse(payload.as_bytes())
            .map_err(|e| format!("{file}:{}: {e}", lineno + 1))?;
        let resp = client
            .call(&req)
            .map_err(|e| format!("{file}:{}: {e}", lineno + 1))?;
        outln!("{}", resp.to_json());
    }
    Ok(())
}

/// Rewrites a request line's `program_file` field (if any) into inline
/// `program` text plus a `path` label, reading the file locally.
fn resolve_program_file(line: &str) -> Result<String, String> {
    use nested_deps::serve::proto::Value;
    let v = proto::parse_value(line)?;
    let Value::Object(mut obj) = v else {
        return Err("request must be a JSON object".into());
    };
    let pf = obj
        .iter()
        .position(|(k, _)| k == "program_file")
        .map(|i| obj.remove(i));
    if let Some((_, pf)) = pf {
        let Value::String(path) = pf else {
            return Err("\"program_file\" must be a string".into());
        };
        let program = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read program_file {path}: {e}"))?;
        obj.push(("program".to_string(), Value::String(program)));
        if !obj.iter().any(|(k, _)| k == "path") {
            obj.push(("path".to_string(), Value::String(path)));
        }
    }
    proto::value_to_string(&Value::Object(obj))
}
