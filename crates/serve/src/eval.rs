//! Shared command evaluation: the one implementation behind both the
//! `ndl` CLI subcommands and the `ndl-serve` daemon ops.
//!
//! Byte-identity between a daemon response and a one-shot CLI invocation
//! is a hard requirement (`bench_serve` and the serve goldens assert it
//! request by request), so the rendering code for each operation exists
//! exactly once, here: the CLI reads the file and delegates, the daemon
//! pulls the parsed program from its cache and delegates. Options arrive
//! in both cases as the same CLI-style `args` slice, parsed by the same
//! helpers — there is no second flag grammar to drift.
//!
//! Every function returns an [`EvalOutput`] carrying the exact stdout and
//! stderr bytes plus the process exit code the CLI would produce, or an
//! `Err(String)` that the CLI maps to `error: <msg>` + exit 101 and the
//! daemon maps to an error response with `"exit": 101`.

use ndl_analyze as analyze;
use ndl_analyze::{lint_source_timed, LintOptions, Severity};
use ndl_chase::config::warn_retired;
use ndl_chase::{
    chase_fixpoint_delta_with, chase_fixpoint_with, chase_mapping, satisfies_egds, ChaseConfig,
    FixpointError, NullFactory,
};
use ndl_core::prelude::*;
use ndl_hom::{core_with_f_block_size, f_block_size};
use ndl_incr::{parse_edit_script, IncrDb, IncrOptions, QueryKey, QueryOutput};
use ndl_obs::{ChaseStats, IncrStats, JsonlTracer};
use ndl_reasoning::{equivalent, glav_equivalent, implies_tgd, FblockOptions, ImpliesOptions};
use std::fmt::Write as _;
// The core prelude exports a `Result<T>` alias; these functions return
// plain `Result<_, String>`, so re-shadow the std type explicitly.
use std::result::Result;
use std::time::Instant;

/// The observable result of evaluating one operation: the exact bytes a
/// one-shot CLI run would print, plus its exit code and two flags the
/// daemon uses for per-tenant accounting.
#[derive(Clone, Debug, Default)]
pub struct EvalOutput {
    /// Exact stdout bytes (byte-identity with the CLI is asserted).
    pub stdout: String,
    /// Stderr bytes (`--stats` summaries; timings, so not diffed).
    pub stderr: String,
    /// Process exit code (lint findings count, 0 otherwise).
    pub exit: u8,
    /// The chase ended by exhausting its step budget (a legitimate
    /// bounded run — exit is still 0, but tenants are accounted).
    pub budget_exhausted: bool,
    /// The daemon clamped the requested budget to the tenant ceiling.
    pub budget_clamped: bool,
}

// ---------- CLI-style argument helpers ----------
//
// These used to live in `src/bin/ndl.rs`; they moved here so the daemon
// parses request `args` with literally the same code as the CLI.

/// Collects the values following every occurrence of `flag`.
pub fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.as_str());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

/// Is the bare flag present?
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Looks up a `--flag[=value]` option: `None` when absent, `Some("")` for
/// the bare flag, `Some(value)` for the `--flag=value` form.
pub fn flag_mode<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    for a in args {
        if a == flag {
            return Some("");
        }
        if let Some(v) = a.strip_prefix(flag) {
            if let Some(v) = v.strip_prefix('=') {
                return Some(v);
            }
        }
    }
    None
}

/// The first positional (non-flag) argument, skipping the value slot after
/// every flag in `value_flags`.
pub fn positional_arg<'a>(args: &'a [String], value_flags: &[&str]) -> Option<&'a str> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if value_flags.contains(&a.as_str()) {
            i += 2;
            continue;
        }
        if !a.starts_with("--") {
            return Some(a);
        }
        i += 1;
    }
    None
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Parses `--tgd`/`--egd` texts into a [`NestedMapping`].
pub fn parse_mapping(
    syms: &mut SymbolTable,
    tgds: &[&str],
    egds: &[&str],
) -> std::result::Result<NestedMapping, String> {
    if tgds.is_empty() {
        return Err("at least one tgd is required".into());
    }
    NestedMapping::parse(syms, tgds, egds).map_err(err)
}

/// Parses `--fact` texts into an [`Instance`].
pub fn parse_facts(
    syms: &mut SymbolTable,
    facts: &[&str],
) -> std::result::Result<Instance, String> {
    let mut inst = Instance::new();
    for f in facts {
        let fact = parse_fact(syms, f).map_err(err)?;
        if let Some(arity) = inst.store().arity(fact.rel) {
            if arity != fact.args.len() {
                let rel = syms.rel_name(fact.rel);
                let found = fact.args.len();
                return Err(format!(
                    "--fact {f}: arity mismatch: {rel} has arity {arity}, got {found}"
                ));
            }
        }
        inst.insert(fact);
    }
    Ok(inst)
}

// ---------- cached program artifacts ----------

/// The program-artifact bundle, re-exported from its home in
/// `ndl-analyze` (it moved there so the incremental query graph shares
/// the daemon's builder; the daemon's cache and both front ends keep
/// using this path).
pub use ndl_analyze::ProgramArtifacts;

// ---------- lint ----------

/// `ndl lint` on in-memory source. `path` is the display label diagnostics
/// point at (the CLI passes the real path; daemon requests carry their
/// own). Exit code is the error/warning count capped at `--max-findings`.
pub fn lint(path: &str, src: &str, args: &[String]) -> Result<EvalOutput, String> {
    let mut syms = SymbolTable::new();
    let mut opts = LintOptions::default();
    for flag in ["--max-depth", "--max-skolem-arity", "--max-findings"] {
        if has_flag(args, flag) && flag_values(args, flag).is_empty() {
            return Err(format!("{flag} requires a value"));
        }
    }
    if let Some(v) = flag_values(args, "--max-depth").first() {
        opts.max_depth = v.parse().map_err(|_| format!("bad --max-depth {v:?}"))?;
    }
    if let Some(v) = flag_values(args, "--max-skolem-arity").first() {
        opts.max_skolem_arity = v
            .parse()
            .map_err(|_| format!("bad --max-skolem-arity {v:?}"))?;
    }
    let max_findings: usize = match flag_values(args, "--max-findings").first() {
        Some(v) => {
            let n: usize = v.parse().map_err(|_| format!("bad --max-findings {v:?}"))?;
            n.min(100)
        }
        None => 100,
    };
    let started = Instant::now();
    let (diags, passes_ns) = lint_source_timed(&mut syms, src, &opts);
    let mut out = EvalOutput::default();
    if has_flag(args, "--stats") {
        let _ = writeln!(
            out.stderr,
            "{{\"command\":\"lint\",\"bytes\":{},\"diagnostics\":{},\"elapsed_ns\":{},\"passes_ns\":{}}}",
            src.len(),
            diags.len(),
            started.elapsed().as_nanos(),
            passes_ns.to_json()
        );
    }
    if has_flag(args, "--json") {
        let _ = writeln!(out.stdout, "{}", analyze::to_json(&diags));
    } else {
        out.stdout.push_str(&analyze::render(&diags, path, src));
        let _ = writeln!(out.stdout, "{}", analyze::summary(&diags));
    }
    let failing = diags
        .iter()
        .filter(|d| d.severity >= Severity::Warning)
        .count();
    out.exit = failing.min(max_findings) as u8;
    Ok(out)
}

// ---------- analyze ----------

/// `ndl analyze` over prebuilt artifacts. `started` anchors the `--stats`
/// stderr timing: the CLI passes an instant from before the parse, the
/// daemon its request start (so a cache hit honestly reports only the
/// rendering time).
pub fn analyze_program(
    art: &ProgramArtifacts,
    args: &[String],
    started: Instant,
) -> Result<EvalOutput, String> {
    let syms = &art.syms;
    let analysis = &art.analysis;
    let parse_errors = art.parse_errors.len();
    let mut out = EvalOutput::default();
    if has_flag(args, "--stats") {
        let _ = writeln!(
            out.stderr,
            "{{\"command\":\"analyze\",\"statements\":{},\"clauses\":{},\"positions\":{},\"elapsed_ns\":{},\"passes_ns\":{}}}",
            analysis.graphs.statements,
            analysis.graphs.clauses.len(),
            analysis.graphs.positions.positions.len(),
            started.elapsed().as_nanos(),
            analysis.passes_ns.to_json()
        );
    }
    if let Some(mode) = flag_mode(args, "--dot") {
        match mode {
            "" | "positions" => out.stdout.push_str(&analysis.to_dot(syms)),
            "conflicts" => out.stdout.push_str(&analysis.conflict_dot(syms)),
            "dataflow" => out.stdout.push_str(&analysis.dataflow_dot(syms)),
            other => {
                return Err(format!(
                    "unknown --dot mode {other:?} (expected positions, conflicts or dataflow)"
                ))
            }
        }
        return Ok(out);
    }
    if has_flag(args, "--schedule") {
        let report = analysis.schedule_report(syms);
        if has_flag(args, "--json") {
            out.stdout.push_str(&report.to_json());
        } else {
            out.stdout.push_str(&report.render());
        }
        return Ok(out);
    }
    if has_flag(args, "--dataflow") {
        let report = analysis.dataflow_summary(syms);
        if has_flag(args, "--json") {
            out.stdout.push_str(&report.to_json());
        } else {
            out.stdout.push_str(&report.render());
        }
        return Ok(out);
    }
    let report = analysis.report(syms);
    if has_flag(args, "--json") {
        let _ = writeln!(out.stdout, "{}", report.to_json());
        return Ok(out);
    }
    let _ = writeln!(
        out.stdout,
        "program: {} statements ({} analyzed, {} parse errors), {} clauses",
        report.statements, report.analyzed_statements, parse_errors, report.clauses
    );
    let _ = writeln!(
        out.stdout,
        "position graph: {} positions, {} regular edges, {} special ({} under rich acyclicity)",
        report.positions, report.regular_edges, report.special_edges_wa, report.special_edges_ra
    );
    let _ = writeln!(out.stdout, "termination: {}", report.class);
    for line in &report.witness {
        let _ = writeln!(out.stdout, "  cycle: {line}");
    }
    match report.max_rank {
        Some(r) => {
            let _ = writeln!(out.stdout, "max rank: {r}");
        }
        None => {
            let _ = writeln!(out.stdout, "max rank: unbounded");
        }
    }
    for d in &report.relation_depths {
        let _ = writeln!(out.stdout, "  null depth of {}: {}", d.relation, d.depth);
    }
    match report.size_degree {
        Some(d) => {
            let _ = writeln!(
                out.stdout,
                "chase size: O(n^{d}) (widest join: {} atoms)",
                report.max_body_atoms
            );
        }
        None => {
            let _ = writeln!(
                out.stdout,
                "chase size: no polynomial bound (widest join: {} atoms)",
                report.max_body_atoms
            );
        }
    }
    let _ = writeln!(
        out.stdout,
        "skolem graph: {} functions, {} nesting edges",
        report.skolem_functions.len(),
        report.skolem_edges
    );
    for f in &report.skolem_functions {
        let _ = writeln!(
            out.stdout,
            "  {} (statement {}): fan-in {}, fan-out {}",
            f.function,
            f.statement + 1,
            f.fan_in,
            f.fan_out
        );
    }
    let _ = writeln!(
        out.stdout,
        "firing order: {}",
        report
            .firing_order
            .iter()
            .map(|s| (s + 1).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(out)
}

/// Parses the `--budget N` flag shared by `chase` and `incr`.
pub fn budget_flag(args: &[String]) -> Result<Option<usize>, String> {
    match flag_values(args, "--budget").first() {
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("bad --budget {v:?}")),
        None => {
            if has_flag(args, "--budget") {
                return Err("--budget requires a value".into());
            }
            Ok(None)
        }
    }
}

/// Applies the daemon's per-tenant step-budget ceiling: a request asking
/// for more is clamped down (and flagged, so the tenant is accounted a
/// refusal), an absent budget becomes the ceiling so no tenant runs
/// unbounded. Returns `(effective budget, clamped)`.
pub fn clamp_budget(budget: Option<usize>, ceiling: Option<usize>) -> (Option<usize>, bool) {
    match (budget, ceiling) {
        (Some(b), Some(c)) if b > c => (Some(c), true),
        (None, Some(c)) => (Some(c), false),
        _ => (budget, false),
    }
}

// ---------- chase (program file) ----------

/// `ndl chase <file> ...` over prebuilt artifacts: the planned fixpoint
/// chase with engine selection (`--delta`/`--no-delta`), budget handling,
/// stats and JSONL tracing. The retired `--parallel` flag is accepted,
/// ignored and reported by one warning.
///
/// `cfg` is the explicit engine configuration (the `delta` default) — the
/// CLI resolves it from the environment at its boundary, the daemon from
/// the request, so two in-process requests with different settings both
/// take effect. `budget_ceiling` is the daemon's per-tenant step-budget
/// cap: a requested budget is clamped down to it, and an absent budget
/// becomes the ceiling so no tenant runs unbounded.
/// Both are output-neutral for programs with a termination guarantee
/// (the plan drops the budget entirely — see `ChaseAnalysis::plan`).
pub fn chase_program(
    art: &ProgramArtifacts,
    path: &str,
    args: &[String],
    cfg: &ChaseConfig,
    budget_ceiling: Option<usize>,
) -> Result<EvalOutput, String> {
    if let Some(refusal) = art.chase_refusal(path) {
        return Err(refusal);
    }
    if !satisfies_egds(&art.source, &art.egds) {
        return Err("the fact statements violate the program's egds".into());
    }
    let (budget, clamped) = clamp_budget(budget_flag(args)?, budget_ceiling);
    let mut plan = art.analysis.tgd_plan(budget);
    if has_flag(args, "--no-cert") {
        // Drop the dataflow certificate: every engine then re-matches the
        // dead statements each round. Output is bit-identical either way
        // (the parity check in ci.sh diffs the two), so the flag exists
        // for exactly that check and for timing the uncertified path.
        plan.cert = None;
    }

    let mut nulls = NullFactory::new();
    let mut stats = ChaseStats::new();
    let trace_path = flag_values(args, "--trace").first().copied();
    if has_flag(args, "--trace") && trace_path.is_none() {
        return Err("--trace requires a file path".into());
    }
    let mut tracer = match trace_path {
        Some(tp) => {
            let file = std::fs::File::create(tp).map_err(|e| format!("cannot write {tp}: {e}"))?;
            Some(JsonlTracer::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    if has_flag(args, "--parallel") {
        warn_retired("--parallel", "--parallel");
    }
    let delta = if has_flag(args, "--no-delta") {
        if has_flag(args, "--delta") {
            return Err("--delta and --no-delta are mutually exclusive".into());
        }
        false
    } else {
        has_flag(args, "--delta") || cfg.delta
    };
    let source = &art.source;
    let tgds = &art.tgds;
    macro_rules! run_engine {
        ($obs:expr) => {
            if delta {
                chase_fixpoint_delta_with(source, tgds, &plan, &mut nulls, $obs)
            } else {
                chase_fixpoint_with(source, tgds, &plan, &mut nulls, $obs)
            }
        };
    }
    let outcome = match &mut tracer {
        Some(t) => {
            let mut obs = (&mut stats, t);
            run_engine!(&mut obs)
        }
        None => run_engine!(&mut stats),
    };
    let mut out = EvalOutput {
        budget_clamped: clamped,
        ..EvalOutput::default()
    };
    if let Some(t) = tracer {
        if t.io_errors() > 0 {
            let _ = writeln!(
                out.stderr,
                "warning: {} trace events could not be written",
                t.io_errors()
            );
        }
        t.into_inner();
    }
    if has_flag(args, "--no-timings") {
        stats.redact_timings();
    }

    match outcome {
        Ok(res) => {
            if has_flag(args, "--stats") {
                let _ = writeln!(out.stdout, "{}", stats.to_json());
                return Ok(out);
            }
            let _ = writeln!(
                out.stdout,
                "fixpoint: {} facts ({} derived, {} nulls) in {} rounds",
                res.instance.len(),
                res.derived,
                nulls.len(),
                res.rounds
            );
            nulls.write_fact_lines(res.instance.facts(), &art.syms, "  ", &mut out.stdout);
            Ok(out)
        }
        // A budgeted cutoff is a legitimate bounded run, not a tool
        // failure: report the partial progress (or partial stats) and exit
        // clean, leaving code 101 for real errors.
        Err(FixpointError::BudgetExhausted {
            budget, progress, ..
        }) => {
            out.budget_exhausted = true;
            if has_flag(args, "--stats") {
                let _ = writeln!(out.stdout, "{}", stats.to_json());
                return Ok(out);
            }
            let _ = writeln!(
                out.stdout,
                "budget exhausted: {} facts derived in {} rounds (budget {})",
                progress.derived, progress.rounds, budget
            );
            Ok(out)
        }
        Err(e @ FixpointError::NonTerminating { .. }) => {
            Err(format!("{e}; re-run with --budget N to chase it anyway"))
        }
        // The analyzer's dataflow certificate failed the engine's
        // re-verification — an internal inconsistency, reported as a tool
        // failure.
        Err(e @ FixpointError::InvalidCert { .. }) => Err(e.to_string()),
    }
}

// ---------- chase (inline mapping) ----------

/// `ndl chase --tgd ... --fact ... [--egd ...] [--core]`: the nested
/// chase of an inline mapping, optionally taking the core of the result.
pub fn chase_inline(args: &[String]) -> Result<EvalOutput, String> {
    let mut syms = SymbolTable::new();
    let m = parse_mapping(
        &mut syms,
        &flag_values(args, "--tgd"),
        &flag_values(args, "--egd"),
    )?;
    let source = parse_facts(&mut syms, &flag_values(args, "--fact"))?;
    if !satisfies_egds(&source, &m.source_egds) {
        return Err("source instance violates the source egds".into());
    }
    let (res, nulls) = chase_mapping(&source, &m, &mut syms);
    let (target, label, block_size) = if has_flag(args, "--core") {
        let (core, size) = core_with_f_block_size(&res.target);
        (core, "core(chase(I, M))", size)
    } else {
        let size = f_block_size(&res.target);
        (res.target, "chase(I, M)", size)
    };
    let mut out = EvalOutput::default();
    let _ = writeln!(
        out.stdout,
        "{label}: {} facts, {} nulls, f-block size {block_size}",
        target.len(),
        target.nulls().len(),
    );
    nulls.write_fact_lines(target.facts(), &syms, "  ", &mut out.stdout);
    Ok(out)
}

// ---------- reasoning ops ----------

/// `ndl implies --premise ... [--egd ...] --conclusion ...`: the paper's
/// IMPLIES procedure for each conclusion in turn.
pub fn implies(args: &[String]) -> Result<EvalOutput, String> {
    let mut syms = SymbolTable::new();
    let premise = parse_mapping(
        &mut syms,
        &flag_values(args, "--premise"),
        &flag_values(args, "--egd"),
    )?;
    let conclusion_texts = flag_values(args, "--conclusion");
    if conclusion_texts.is_empty() {
        return Err("missing --conclusion".into());
    }
    let mut out = EvalOutput::default();
    for text in conclusion_texts {
        let conclusion = parse_nested_tgd(&mut syms, text).map_err(err)?;
        let report = implies_tgd(&premise, &conclusion, &mut syms, &ImpliesOptions::default())
            .map_err(err)?;
        let _ = writeln!(
            out.stdout,
            "Σ ⊨ σ: {}   (v = {}, w = {}, k = {}, {} patterns checked)",
            report.holds, report.v, report.w, report.k, report.patterns_checked
        );
        if let Some(ce) = report.counterexample {
            let _ = writeln!(
                out.stdout,
                "  counterexample pattern: {}",
                ce.pattern.display()
            );
            let _ = writeln!(out.stdout, "  I_p = {}", ce.source.display(&syms));
        }
    }
    Ok(out)
}

/// `ndl equiv --left ... --right ... [--egd ...]`: logical equivalence of
/// two nested mappings (Cor. 3.11).
pub fn equiv(args: &[String]) -> Result<EvalOutput, String> {
    let mut syms = SymbolTable::new();
    let egds = flag_values(args, "--egd");
    let left = parse_mapping(&mut syms, &flag_values(args, "--left"), &egds)?;
    let right = parse_mapping(&mut syms, &flag_values(args, "--right"), &egds)?;
    let eq = equivalent(&left, &right, &mut syms, &ImpliesOptions::default()).map_err(err)?;
    let mut out = EvalOutput::default();
    let _ = writeln!(out.stdout, "logically equivalent: {eq}");
    Ok(out)
}

// ---------- incremental sessions (ndl incr) ----------

/// Renders incr query outputs the way `ndl incr` prints them: one
/// `== <label>` header per query op, followed by the query's stdout or
/// its `error:` line. Query-level errors are *values* here (the exit
/// code stays 0): a failed reasoning pair mid-script must not abort the
/// replay, and error outputs are parity-maintained like any other. The
/// daemon's `incr-edit` op uses the same renderer, so a daemon edit
/// response is byte-identical to the CLI replay of the same script.
pub fn render_incr_outputs(outputs: &[(QueryKey, QueryOutput)]) -> String {
    let mut s = String::new();
    for (key, out) in outputs {
        let _ = writeln!(s, "== {}", key.label());
        match &out.error {
            Some(e) => {
                let _ = writeln!(s, "error: {e}");
            }
            None => s.push_str(&out.stdout),
        }
    }
    s
}

/// [`IncrStats`] as a JSON value, field order matching
/// [`IncrStats::to_json`]. Counters only — deterministic, goldenable.
fn incr_stats_value(s: &IncrStats) -> serde_json::Value {
    let n = |v: u64| serde_json::Value::Number(v as f64);
    serde_json::Value::Object(vec![
        ("input_bumps".to_string(), n(s.input_bumps)),
        ("red_marks".to_string(), n(s.red_marks)),
        ("lookups".to_string(), n(s.lookups)),
        ("hits".to_string(), n(s.hits)),
        ("green_marks".to_string(), n(s.green_marks)),
        ("recomputes".to_string(), n(s.recomputes)),
        ("cutoffs".to_string(), n(s.cutoffs)),
    ])
}

/// `ndl incr <file> --edits <script.jsonl>`: replays a JSONL edit script
/// against a red-green incremental session over the program. Query ops
/// print in script order (`--json` emits one machine-readable object with
/// the outputs *and* the deterministic red-green counters); `--stats`
/// prints the counters on stderr; `--scratch` bypasses the memo table so
/// ci.sh can diff incremental against from-scratch replay byte by byte;
/// `--budget N` is the chase step budget a one-shot run would pass.
///
/// Script-level failures (a malformed script line, a bad edit) are
/// `Err` — exit 101, like any other usage error. Query-level errors are
/// outputs; see [`render_incr_outputs`].
pub fn incr(path: &str, src: &str, edits: &str, args: &[String]) -> Result<EvalOutput, String> {
    let opts = IncrOptions {
        path: path.to_string(),
        budget: budget_flag(args)?,
        scratch: has_flag(args, "--scratch"),
    };
    let mut db = IncrDb::new(src, opts).map_err(|e| format!("{path}: {e}"))?;
    let ops = parse_edit_script(edits)?;
    let outputs = db.apply_script(&ops)?;
    let mut out = EvalOutput::default();
    if has_flag(args, "--json") {
        let queries: Vec<serde_json::Value> = outputs
            .iter()
            .map(|(key, q)| {
                serde_json::Value::Object(vec![
                    ("query".to_string(), serde_json::Value::String(key.label())),
                    (
                        "output".to_string(),
                        serde_json::Value::String(q.stdout.clone()),
                    ),
                    (
                        "error".to_string(),
                        match &q.error {
                            Some(e) => serde_json::Value::String(e.clone()),
                            None => serde_json::Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        let obj = serde_json::Value::Object(vec![
            (
                "path".to_string(),
                serde_json::Value::String(path.to_string()),
            ),
            ("queries".to_string(), serde_json::Value::Array(queries)),
            ("stats".to_string(), incr_stats_value(db.stats())),
        ]);
        let _ = writeln!(
            out.stdout,
            "{}",
            serde_json::to_string(&obj).expect("value serialization is infallible")
        );
    } else {
        out.stdout = render_incr_outputs(&outputs);
        if has_flag(args, "--stats") {
            let _ = writeln!(out.stderr, "{}", db.stats().to_json());
        }
    }
    Ok(out)
}

/// `ndl classify --tgd ... [--egd ...]`: GLAV-equivalence with verified
/// witness or growth certificate (Thm. 4.2).
pub fn classify(args: &[String]) -> Result<EvalOutput, String> {
    let mut syms = SymbolTable::new();
    let m = parse_mapping(
        &mut syms,
        &flag_values(args, "--tgd"),
        &flag_values(args, "--egd"),
    )?;
    let d = glav_equivalent(&m, &mut syms, &FblockOptions::default()).map_err(err)?;
    let mut out = EvalOutput::default();
    let _ = writeln!(
        out.stdout,
        "f-block size bounded: {} (clone bound k = {})",
        d.analysis.bounded, d.analysis.clone_bound
    );
    match d.witness {
        Some(w) => {
            let _ = writeln!(out.stdout, "GLAV-equivalent: yes; verified witness:");
            for t in &w.tgds {
                let _ = writeln!(out.stdout, "  {}", t.display(&syms));
            }
        }
        None => {
            let _ = writeln!(out.stdout, "GLAV-equivalent: no");
            if let Some(e) = d.analysis.evidence {
                let _ = writeln!(
                    out.stdout,
                    "  certificate: cloning node {} of pattern {} grows cores {:?}",
                    e.cloned_node,
                    e.base_pattern.display(),
                    e.ladder_sizes
                );
            }
        }
    }
    Ok(out)
}
