//! The red-green incremental database: input cells, memo table,
//! verification and recomputation.
//!
//! ## The algorithm
//!
//! Inputs are (a) the statement lines of a program and (b) a live fact
//! store ([`TrackedStore`]: epoch-stamped ids plus an order-independent
//! set fingerprint). Every edit that actually changes an input bumps the
//! revision clock and marks the memos that statically depend on the
//! changed cell **red** (suspect). Nothing is recomputed at edit time.
//!
//! A query first checks its memo's `verified_at` against the clock — equal
//! means *green now*, a pure cache hit. Otherwise the memo is verified
//! bottom-up: each dependency in `deps_of` is resolved to a fingerprint
//! (statement text hash, fact-set fingerprint, or an upstream memo's
//! value/instance hash — resolving an upstream memo recursively ensures
//! *it* first). If the fingerprint vector equals the one recorded at the
//! last recompute, the memo is **green-marked**: revalidated without
//! running anything, even though an edit happened — this is what makes a
//! retract-then-reinsert churn batch free. Only a genuinely changed
//! fingerprint triggers a recompute, and a recompute that lands on the
//! previous value hash is an **early cutoff**: downstream fingerprints
//! are unchanged, so dependents green-mark in turn.
//!
//! ## Bit-identity by construction
//!
//! Recomputation is *not* an incremental algorithm that patches previous
//! results; it is the scratch computation, run on the canonical source
//! text assembled from the current inputs ([`IncrDb::canonical_src`]:
//! statement lines in order, then the rendered `fact:` lines sorted).
//! Every front end — `ndl chase` on a file, the daemon, this graph —
//! funnels through [`ProgramArtifacts::build`] and the same chase entry
//! points (the recompute runs the semi-naive delta engine, `ndl chase`'s
//! default, which is bit-identical to the naive `--no-delta` oracle), so
//! a memoized result is byte-identical to a from-scratch run
//! *whenever it is computed at all*; the red-green machinery only decides
//! **whether** to run, never **what** the answer is. The proptests in
//! `tests/incr_props.rs` pin exactly this: after every prefix of a random
//! edit script, each query's incremental answer equals a scratch replay,
//! including budget-exhaustion and cyclic-refusal diagnostics.

use crate::edit::EditOp;
use crate::query::{deps_of, DepKey, QueryKey, QueryOutput};
use ndl_analyze::ProgramArtifacts;
use ndl_chase::{chase_fixpoint_delta, satisfies_egds, FixpointChase, FixpointError, NullFactory};
use ndl_core::prelude::*;
use ndl_core::revision::{fingerprint_str, Fingerprint, Revision, TrackedStore};
use ndl_hom::{core_of, f_block_size, null_blocks};
use ndl_obs::{IncrObserver, IncrStats};
use ndl_reasoning::{equivalent_fingerprinted, implies_fingerprinted, ImpliesOptions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
// The core prelude exports a `Result<T>` alias over `CoreError`; this
// module returns plain `Result<_, String>`, so re-shadow the std type.
use std::result::Result;
use std::sync::Arc;

/// Options of an incremental session.
#[derive(Clone, Debug)]
pub struct IncrOptions {
    /// Display label for parse errors (the CLI passes the file path).
    pub path: String,
    /// Chase step budget (the `--budget` the scratch CLI would pass).
    pub budget: Option<usize>,
    /// Bypass the memo table entirely: every query runs the scratch
    /// computation. `ndl incr --scratch` uses this for the parity diff in
    /// ci.sh — both sides share every compute function, so a diff catches
    /// exactly the red-green bookkeeping, not rendering drift.
    pub scratch: bool,
}

impl Default for IncrOptions {
    fn default() -> IncrOptions {
        IncrOptions {
            path: "<incr>".into(),
            budget: None,
            scratch: false,
        }
    }
}

/// The chase memo's value: the artifacts and chased instance are kept
/// (behind an `Arc` — the daemon shares sessions across worker threads)
/// so core/blocks recomputes never re-run the chase.
#[derive(Debug)]
pub struct ChaseData {
    /// Artifacts built from the canonical source at compute time.
    pub art: ProgramArtifacts,
    /// The null factory the chase populated (labels for rendering).
    pub nulls: NullFactory,
    /// The chased instance, when the chase reached a fixpoint.
    pub result: Option<FixpointChase>,
    /// The rendered chase output (byte-identical to `ndl chase <file>`).
    pub rendered: QueryOutput,
    /// One-line status, used by downstream queries to report why the
    /// instance is unavailable (budget exhaustion, refusal, parse error).
    pub summary: String,
}

#[derive(Clone, Debug)]
enum MemoValue {
    Plain(QueryOutput),
    Chase(Arc<ChaseData>),
}

impl MemoValue {
    fn output(&self) -> QueryOutput {
        match self {
            MemoValue::Plain(o) => o.clone(),
            MemoValue::Chase(d) => d.rendered.clone(),
        }
    }
}

/// One memo slot: the value, the fingerprints that certify it, and the
/// revision at which it was last verified.
#[derive(Debug)]
struct Memo {
    verified_at: Revision,
    dep_fps: Vec<u64>,
    value_hash: u64,
    instance_hash: u64,
    value: MemoValue,
    red: bool,
}

/// Which input cell an edit changed (drives red marking).
#[derive(Clone, Copy, Debug)]
enum Changed {
    Facts,
    Stmt(usize),
}

/// The incremental database over one program.
#[derive(Debug)]
pub struct IncrDb {
    opts: IncrOptions,
    syms: SymbolTable,
    stmts: Vec<String>,
    stmt_changed: Vec<Revision>,
    facts: TrackedStore,
    clock: Revision,
    memos: BTreeMap<QueryKey, Memo>,
    stats: IncrStats,
}

impl IncrDb {
    /// Loads `src`: non-`fact:` statement lines become statement cells
    /// (verbatim, order preserved), `fact:` lines are parsed into the
    /// tracked store. The initial load is revision zero — it bumps no
    /// input and marks nothing red.
    pub fn new(src: &str, opts: IncrOptions) -> Result<IncrDb, String> {
        let mut db = IncrDb {
            opts,
            syms: SymbolTable::new(),
            stmts: Vec::new(),
            stmt_changed: Vec::new(),
            facts: TrackedStore::new(),
            clock: Revision::ZERO,
            memos: BTreeMap::new(),
            stats: IncrStats::new(),
        };
        for (lineno, line) in src.lines().enumerate() {
            let body = line.trim();
            if body.is_empty() || body.starts_with('#') {
                continue;
            }
            if let Some(rest) = body.strip_prefix("fact:") {
                db.store_fact(rest.trim())
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            } else {
                db.stmts.push(body.to_string());
                db.stmt_changed.push(Revision::ZERO);
            }
        }
        Ok(db)
    }

    /// The statement cells, in source order.
    pub fn statements(&self) -> &[String] {
        &self.stmts
    }

    /// Number of live source facts.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// The fact store's current epoch (bumped by [`IncrDb::compact`]).
    pub fn epoch(&self) -> u64 {
        self.facts.store().epoch()
    }

    /// The current revision clock.
    pub fn revision(&self) -> Revision {
        self.clock
    }

    /// The accumulated red-green statistics.
    pub fn stats(&self) -> &IncrStats {
        &self.stats
    }

    // ---------- edits ----------

    fn parse_ground_fact(&mut self, text: &str) -> Result<Fact, String> {
        let fact = parse_fact(&mut self.syms, text).map_err(|e| e.to_string())?;
        if let Some(arity) = self.facts.store().arity(fact.rel) {
            if arity != fact.args.len() {
                return Err(format!(
                    "arity mismatch: {} has arity {arity}, got {}",
                    self.syms.rel_name(fact.rel),
                    fact.args.len()
                ));
            }
        }
        Ok(fact)
    }

    fn store_fact(&mut self, text: &str) -> Result<bool, String> {
        let fact = self.parse_ground_fact(text)?;
        Ok(self
            .facts
            .insert(fact.rel, &fact.args, &mut self.clock)
            .is_new())
    }

    /// Inserts a source fact (`R(a,b)` text). Returns `true` when the
    /// fact was not already present; inserting a present fact is a no-op
    /// that bumps nothing.
    pub fn insert_fact(&mut self, text: &str) -> Result<bool, String> {
        let changed = self.store_fact(text)?;
        if changed {
            self.stats.input_bump();
            self.mark_red(Changed::Facts);
        }
        Ok(changed)
    }

    /// Retracts a source fact. Returns `true` when it was present;
    /// retracting an absent fact is a no-op that bumps nothing.
    pub fn retract_fact(&mut self, text: &str) -> Result<bool, String> {
        let fact = self.parse_ground_fact(text)?;
        let changed = self
            .facts
            .retract(fact.rel, &fact.args, &mut self.clock)
            .is_some();
        if changed {
            self.stats.input_bump();
            self.mark_red(Changed::Facts);
        }
        Ok(changed)
    }

    /// Compacts the fact store: ids renumber, the epoch bumps, the delta
    /// frontier resets — but the live fact *set* (and therefore its
    /// fingerprint) is unchanged, so no input bumps and no memo goes red.
    /// Satellite regression tests in `ndl-core` pin the frontier/epoch
    /// atomicity this relies on.
    pub fn compact(&mut self) {
        self.facts.compact();
    }

    /// Replaces statement `index` with `text`. Returns `true` when the
    /// text actually changed; setting a statement to its current text is
    /// a no-op that bumps nothing.
    pub fn set_stmt(&mut self, index: usize, text: &str) -> Result<bool, String> {
        let n = self.stmts.len();
        let slot = self
            .stmts
            .get_mut(index)
            .ok_or_else(|| format!("statement index {index} out of range ({n} statements)"))?;
        let body = text.trim();
        if body.is_empty() || body.starts_with('#') {
            return Err("statement text cannot be blank or a comment".into());
        }
        if body.starts_with("fact:") {
            return Err("use insert/retract for facts, not set-stmt".into());
        }
        if slot == body {
            return Ok(false);
        }
        *slot = body.to_string();
        self.stmt_changed[index] = self.clock.bump();
        self.stats.input_bump();
        self.mark_red(Changed::Stmt(index));
        Ok(true)
    }

    /// Does `key`'s static dependency cone contain the changed cell?
    fn affected(key: QueryKey, changed: Changed) -> bool {
        match (key, changed) {
            (QueryKey::Analysis, Changed::Stmt(_)) => true,
            (QueryKey::Analysis, Changed::Facts) => false,
            // Chase depends on both inputs; core/blocks sit downstream of
            // chase, so anything that reddens chase reddens them (their
            // *verification* may still green them via the instance hash).
            (QueryKey::Chase | QueryKey::Core | QueryKey::Blocks, _) => true,
            (QueryKey::Implies(i, j) | QueryKey::Equiv(i, j), Changed::Stmt(s)) => i == s || j == s,
            (QueryKey::Implies(..) | QueryKey::Equiv(..), Changed::Facts) => false,
        }
    }

    fn mark_red(&mut self, changed: Changed) {
        for (key, memo) in self.memos.iter_mut() {
            if !memo.red && Self::affected(*key, changed) {
                memo.red = true;
                self.stats.red_mark(&key.label());
            }
        }
    }

    /// Applies one edit op. `Query` ops return the query's output.
    pub fn apply(&mut self, op: &EditOp) -> Result<Option<QueryOutput>, String> {
        match op {
            EditOp::Insert(f) => self.insert_fact(f).map(|_| None),
            EditOp::Retract(f) => self.retract_fact(f).map(|_| None),
            EditOp::Compact => {
                self.compact();
                Ok(None)
            }
            EditOp::SetStmt(i, text) => self.set_stmt(*i, text).map(|_| None),
            EditOp::Query(key) => Ok(Some(self.query(*key))),
        }
    }

    /// Applies a parsed edit script, collecting every query op's output.
    pub fn apply_script(
        &mut self,
        ops: &[(usize, EditOp)],
    ) -> Result<Vec<(QueryKey, QueryOutput)>, String> {
        let mut outputs = Vec::new();
        for (lineno, op) in ops {
            let out = self
                .apply(op)
                .map_err(|e| format!("edit script line {lineno}: {e}"))?;
            if let (Some(out), EditOp::Query(key)) = (out, op) {
                outputs.push((*key, out));
            }
        }
        Ok(outputs)
    }

    // ---------- queries ----------

    /// Runs `key`, reusing the memo table (or recomputing from scratch
    /// when [`IncrOptions::scratch`] is set).
    pub fn query(&mut self, key: QueryKey) -> QueryOutput {
        if self.opts.scratch {
            self.stats.lookup(&key.label(), false);
            self.stats.recompute(&key.label());
            return self.compute(key).0.output();
        }
        let hit = self
            .memos
            .get(&key)
            .is_some_and(|m| m.verified_at == self.clock);
        self.stats.lookup(&key.label(), hit);
        if !hit {
            self.ensure(key);
        }
        self.memos[&key].value.output()
    }

    /// Verifies (and if necessary recomputes) `key`'s memo so that it is
    /// green at the current revision.
    fn ensure(&mut self, key: QueryKey) {
        if let Some(m) = self.memos.get(&key) {
            if m.verified_at == self.clock {
                return;
            }
        }
        let dep_fps: Vec<u64> = deps_of(key).iter().map(|d| self.dep_fp(*d)).collect();
        let clock = self.clock;
        if let Some(m) = self.memos.get_mut(&key) {
            if m.dep_fps == dep_fps {
                m.verified_at = clock;
                if m.red {
                    m.red = false;
                    self.stats.green_mark(&key.label());
                }
                return;
            }
        }
        self.stats.recompute(&key.label());
        let (value, value_hash, instance_hash) = self.compute(key);
        if self.memos.get(&key).map(|m| m.value_hash) == Some(value_hash) {
            self.stats.cutoff(&key.label());
        }
        self.memos.insert(
            key,
            Memo {
                verified_at: clock,
                dep_fps,
                value_hash,
                instance_hash,
                value,
                red: false,
            },
        );
    }

    /// Resolves one dependency to its current fingerprint. Resolving an
    /// upstream memo (`ChaseInstance`) recursively ensures it first —
    /// this is the bottom-up leg of green marking.
    fn dep_fp(&mut self, dep: DepKey) -> u64 {
        match dep {
            DepKey::AllStmts => {
                let mut f = Fingerprint::new();
                for s in &self.stmts {
                    f.write_str(s);
                }
                f.write_u64(self.stmts.len() as u64);
                f.finish()
            }
            DepKey::Stmt(i) => {
                fingerprint_str(self.stmts.get(i).map_or("<out of range>", String::as_str))
            }
            DepKey::Facts => self.facts.fingerprint(),
            DepKey::ChaseInstance => {
                self.ensure(QueryKey::Chase);
                self.memos[&QueryKey::Chase].instance_hash
            }
        }
    }

    // ---------- compute functions (shared by memoized and scratch paths) ----------

    /// The canonical program text of the current inputs: statement lines
    /// in order, then the rendered `fact:` lines sorted. Both the scratch
    /// path and every recompute parse exactly this text from a fresh
    /// symbol table, which is what makes memoized outputs byte-identical
    /// to a one-shot CLI run on the same text.
    pub fn canonical_src(&self) -> String {
        let mut src = self.canonical_stmt_src();
        // Every line is written once into one buffer; sorting orders the
        // lines' byte ranges.
        let mut text = String::new();
        let mut lines = Vec::with_capacity(self.facts.len());
        for (_, rel, args) in self.facts.store().iter() {
            let start = text.len();
            let _ = write!(text, "fact: {}", FactRef { rel, args }.display(&self.syms));
            lines.push(start..text.len());
        }
        lines.sort_unstable_by(|a, b| text[a.clone()].cmp(&text[b.clone()]));
        src.reserve(text.len() + lines.len());
        for line in lines {
            src.push_str(&text[line]);
            src.push('\n');
        }
        src
    }

    /// The statement lines alone (the analysis query's input — fact edits
    /// must not invalidate the analysis report).
    fn canonical_stmt_src(&self) -> String {
        let mut src = String::new();
        for s in &self.stmts {
            src.push_str(s);
            src.push('\n');
        }
        src
    }

    fn compute(&mut self, key: QueryKey) -> (MemoValue, u64, u64) {
        match key {
            QueryKey::Analysis => {
                let out = self.compute_analysis();
                let h = output_hash(&out);
                (MemoValue::Plain(out), h, 0)
            }
            QueryKey::Chase => {
                let data = self.compute_chase();
                let (vh, ih) = data.fingerprints();
                (MemoValue::Chase(Arc::new(data)), vh, ih)
            }
            QueryKey::Core => {
                let chase = self.chase_data();
                let out = compute_core(&chase);
                let h = output_hash(&out);
                (MemoValue::Plain(out), h, 0)
            }
            QueryKey::Blocks => {
                let chase = self.chase_data();
                let out = compute_blocks(&chase);
                let h = output_hash(&out);
                (MemoValue::Plain(out), h, 0)
            }
            QueryKey::Implies(i, j) => {
                let out = self.compute_implies(i, j);
                let h = output_hash(&out);
                (MemoValue::Plain(out), h, 0)
            }
            QueryKey::Equiv(i, j) => {
                let out = self.compute_equiv(i, j);
                let h = output_hash(&out);
                (MemoValue::Plain(out), h, 0)
            }
        }
    }

    /// The chase data for downstream queries: the memoized slot normally,
    /// a fresh scratch run under `--scratch`.
    fn chase_data(&mut self) -> Arc<ChaseData> {
        if self.opts.scratch {
            return Arc::new(self.compute_chase());
        }
        self.ensure(QueryKey::Chase);
        match &self.memos[&QueryKey::Chase].value {
            MemoValue::Chase(d) => d.clone(),
            MemoValue::Plain(_) => unreachable!("chase memo always holds ChaseData"),
        }
    }

    fn compute_analysis(&self) -> QueryOutput {
        let art = ProgramArtifacts::build(&self.canonical_stmt_src());
        let report = art.analysis.report(&art.syms);
        QueryOutput {
            stdout: format!("{}\n", report.to_json()),
            error: None,
        }
    }

    fn compute_chase(&self) -> ChaseData {
        let src = self.canonical_src();
        let art = ProgramArtifacts::build(&src);
        let mut nulls = NullFactory::new();
        let path = &self.opts.path;
        if let Some((stmt, e)) = art.parse_errors.first() {
            let msg = format!("{path} statement {} does not parse: {e}", stmt + 1);
            return ChaseData::unavailable(art, nulls, msg);
        }
        if !satisfies_egds(&art.source, &art.egds) {
            let msg = "the fact statements violate the program's egds".to_string();
            return ChaseData::unavailable(art, nulls, msg);
        }
        let plan = art.analysis.tgd_plan(self.opts.budget);
        let outcome = chase_fixpoint_delta(&art.source, &art.tgds, &plan, &mut nulls);
        let mut rendered = QueryOutput::default();
        let (result, summary) = match outcome {
            Ok(res) => {
                let summary = format!(
                    "fixpoint: {} facts ({} derived, {} nulls) in {} rounds",
                    res.instance.len(),
                    res.derived,
                    nulls.len(),
                    res.rounds
                );
                let _ = writeln!(rendered.stdout, "{summary}");
                nulls.write_fact_lines(res.instance.facts(), &art.syms, "  ", &mut rendered.stdout);
                (Some(res), summary)
            }
            Err(FixpointError::BudgetExhausted {
                budget, progress, ..
            }) => {
                let summary = format!(
                    "budget exhausted: {} facts derived in {} rounds (budget {})",
                    progress.derived, progress.rounds, budget
                );
                let _ = writeln!(rendered.stdout, "{summary}");
                (None, summary)
            }
            Err(e @ FixpointError::NonTerminating { .. }) => {
                let summary = e.to_string();
                rendered.error = Some(format!("{e}; re-run with --budget N to chase it anyway"));
                (None, summary)
            }
            Err(e) => {
                let summary = e.to_string();
                rendered.error = Some(summary.clone());
                (None, summary)
            }
        };
        ChaseData {
            art,
            nulls,
            result,
            rendered,
            summary,
        }
    }

    /// A statement's text as nested-tgd source, or why it cannot be one.
    fn tgd_text(&self, i: usize) -> Result<&str, String> {
        let n = self.stmts.len();
        let line = self
            .stmts
            .get(i)
            .ok_or_else(|| format!("statement index {i} out of range ({n} statements)"))?;
        for prefix in ["egd:", "so:", "fact:"] {
            if line.starts_with(prefix) {
                return Err(format!(
                    "statement {i} is not a nested tgd (it is {:?})",
                    prefix.trim_end_matches(':')
                ));
            }
        }
        Ok(line.strip_prefix("tgd:").map(str::trim).unwrap_or(line))
    }

    fn compute_implies(&self, i: usize, j: usize) -> QueryOutput {
        let parsed = (|| -> Result<QueryOutput, String> {
            let premise_text = self.tgd_text(i)?;
            let conclusion_text = self.tgd_text(j)?;
            let mut syms = SymbolTable::new();
            let premise = NestedMapping::parse(&mut syms, &[premise_text], &[])
                .map_err(|e| format!("statement {i}: {e}"))?;
            let conclusion = parse_nested_tgd(&mut syms, conclusion_text)
                .map_err(|e| format!("statement {j}: {e}"))?;
            let (report, _fp) =
                implies_fingerprinted(&premise, &conclusion, &mut syms, &ImpliesOptions::default())
                    .map_err(|e| e.to_string())?;
            let mut out = QueryOutput::default();
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
            Ok(out)
        })();
        parsed.unwrap_or_else(QueryOutput::err)
    }

    fn compute_equiv(&self, i: usize, j: usize) -> QueryOutput {
        let parsed = (|| -> Result<QueryOutput, String> {
            let left_text = self.tgd_text(i)?;
            let right_text = self.tgd_text(j)?;
            let mut syms = SymbolTable::new();
            let left = NestedMapping::parse(&mut syms, &[left_text], &[])
                .map_err(|e| format!("statement {i}: {e}"))?;
            let right = NestedMapping::parse(&mut syms, &[right_text], &[])
                .map_err(|e| format!("statement {j}: {e}"))?;
            let (eq, _fp) =
                equivalent_fingerprinted(&left, &right, &mut syms, &ImpliesOptions::default())
                    .map_err(|e| e.to_string())?;
            Ok(QueryOutput {
                stdout: format!("logically equivalent: {eq}\n"),
                error: None,
            })
        })();
        parsed.unwrap_or_else(QueryOutput::err)
    }
}

impl ChaseData {
    fn unavailable(art: ProgramArtifacts, nulls: NullFactory, msg: String) -> ChaseData {
        ChaseData {
            art,
            nulls,
            result: None,
            rendered: QueryOutput::err(msg.clone()),
            summary: msg,
        }
    }

    /// The memo's `(value, instance)` fingerprints, both read off the
    /// rendered output. The value fingerprint is the whole output's, so
    /// it changes exactly when the output does. The instance fingerprint
    /// covers the fact lines (everything after the summary line) when the
    /// chase reached a fixpoint, and the summary otherwise.
    fn fingerprints(&self) -> (u64, u64) {
        let instance = match self.result {
            Some(_) => {
                let stdout = &self.rendered.stdout;
                fingerprint_str(stdout.split_once('\n').map_or("", |(_, facts)| facts))
            }
            None => fingerprint_str(&self.summary),
        };
        (output_hash(&self.rendered), instance)
    }
}

fn output_hash(out: &QueryOutput) -> u64 {
    let mut f = Fingerprint::new();
    f.write_str(&out.stdout);
    match &out.error {
        Some(e) => f.write_str(e),
        None => f.write_u64(0),
    }
    f.finish()
}

fn compute_core(chase: &ChaseData) -> QueryOutput {
    let Some(res) = &chase.result else {
        return QueryOutput::err(format!("chase unavailable: {}", chase.summary));
    };
    let core = core_of(&res.instance);
    let mut out = QueryOutput::default();
    let _ = writeln!(
        out.stdout,
        "core: {} facts, {} nulls, f-block size {}",
        core.len(),
        core.nulls().len(),
        f_block_size(&core)
    );
    let nulls = &chase.nulls;
    nulls.write_fact_lines(core.facts(), &chase.art.syms, "  ", &mut out.stdout);
    out
}

fn compute_blocks(chase: &ChaseData) -> QueryOutput {
    let Some(res) = &chase.result else {
        return QueryOutput::err(format!("chase unavailable: {}", chase.summary));
    };
    let blocks = null_blocks(&res.instance);
    // One writer for every block, so a subterm null that also occurs in
    // another block's listing is rendered once.
    let mut w = chase.nulls.fact_writer(&chase.art.syms, String::new());
    let _ = writeln!(w, "null blocks: {}", blocks.len());
    for (i, block) in blocks.iter().enumerate() {
        let _ = writeln!(
            w,
            "  block {i}: {} facts, {} nulls",
            block.len(),
            block.nulls().len()
        );
        w.fact_lines(block.facts(), "    ");
    }
    QueryOutput {
        stdout: w.into_string(),
        ..QueryOutput::default()
    }
}
