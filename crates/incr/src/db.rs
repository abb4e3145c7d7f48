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
//! results; it is the scratch computation on the current inputs. Its
//! reference is the canonical source text ([`IncrDb::canonical_src`]:
//! statement lines in order, then the rendered `fact:` lines sorted),
//! built by [`ProgramArtifacts::build`] and chased by the semi-naive delta
//! engine, exactly as `ndl chase` on that file would (the delta engine is
//! bit-identical to the naive `--no-delta` oracle). `--scratch` runs that
//! text path on every query; it is the oracle the incremental path is
//! checked against.
//!
//! A memoized chase recompute reaches the same inputs without the text.
//! The statements are parsed and analyzed once and kept while the
//! statement text and the store's `(fact relation, arity)` pairs stay put
//! ([`ProgramArtifacts::build_with_facts`]: facts reach the analysis only
//! through those pairs). Each recompute then numbers the store's facts
//! into the analysis's symbol table in the order of the sorted `fact:`
//! lines — constants and relations get the ids parsing the canonical
//! text would give them — and fills the source instance in that order.
//! The order is kept on integers: every constant has a rank in line
//! order, maintained as constants are interned, and a relation's facts
//! sort by their argument ranks. So a fact edit reaches neither the
//! lexer nor the analyzer. The proptests in `tests/incr_props.rs` pin
//! the result: after every prefix of a random edit script, each query's
//! incremental answer equals the scratch replay, including
//! budget-exhaustion, cyclic-refusal and arity-clash diagnostics, over
//! primed and multi-byte names, relation names that prefix one another
//! and fact-free sessions.

use crate::edit::EditOp;
use crate::query::{deps_of, DepKey, QueryKey, QueryOutput};
use ndl_analyze::{ArityClash, ProgramArtifacts, StmtAst};
use ndl_chase::{
    chase_fixpoint_delta, satisfies_egds, ChasePlan, FixpointChase, FixpointError, NullFactory,
};
use ndl_core::prelude::*;
use ndl_core::revision::{fingerprint_str, Fingerprint, Revision, TrackedStore};
use ndl_hom::{core_with_f_block_size, null_blocks};
use ndl_obs::{IncrObserver, IncrStats};
use ndl_reasoning::{equivalent_fingerprinted, implies_fingerprinted, ImpliesOptions};
use std::cmp::Ordering;
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

/// The chase memo's value: the symbols and chased instance are kept
/// (behind an `Arc` — the daemon shares sessions across worker threads)
/// so core/blocks recomputes never re-run the chase.
#[derive(Debug)]
pub struct ChaseData {
    /// The symbols of the canonical source, the labels for rendering
    /// (empty when the chase is unavailable).
    pub syms: SymbolTable,
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

/// The statement-only parse and analysis a chase recompute starts from,
/// with the key of what it read: the statements' fingerprint and the
/// store's `(fact relation, arity)` pairs.
#[derive(Debug)]
struct StmtAnalysis {
    stmts_fp: u64,
    /// The store's fact relations (session ids) with their arities, in
    /// the order of their first `fact:` line.
    fact_rels: Vec<(RelId, usize)>,
    /// The statements built with `fact_rels` as fact relations.
    art: ProgramArtifacts,
    /// `fact_rels`' relations in `art.syms`.
    canon_rels: Vec<RelId>,
    /// `art`'s chase plan under the session budget.
    plan: ChasePlan,
}

/// The session's constants in rendered-line order, kept as constants are
/// interned.
#[derive(Debug, Default)]
struct ConstOrder {
    /// Every interned constant, in line order.
    sorted: Vec<ConstId>,
    /// `ConstId →` its position in `sorted`.
    rank: Vec<u32>,
}

impl ConstOrder {
    /// Takes in the constants interned since the last call.
    fn refresh(&mut self, syms: &SymbolTable) {
        let known = self.rank.len();
        if syms.num_consts() == known {
            return;
        }
        let name = |c: &ConstId| syms.const_name(*c);
        let mut new: Vec<ConstId> = (known..syms.num_consts())
            .map(|i| ConstId(i as u32))
            .collect();
        new.sort_unstable_by(|a, b| line_order(name(a), name(b)));
        // Merge the new run into the sorted one.
        let old = std::mem::take(&mut self.sorted);
        self.sorted.reserve(old.len() + new.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            if line_order(name(&old[i]), name(&new[j])) == Ordering::Less {
                self.sorted.push(old[i]);
                i += 1;
            } else {
                self.sorted.push(new[j]);
                j += 1;
            }
        }
        self.sorted.extend_from_slice(&old[i..]);
        self.sorted.extend_from_slice(&new[j..]);
        self.rank.resize(syms.num_consts(), 0);
        for (r, c) in self.sorted.iter().enumerate() {
            self.rank[c.index()] = r as u32;
        }
    }

    fn of(&self, v: Value) -> u32 {
        match v {
            Value::Const(c) => self.rank[c.index()],
            Value::Null(_) => unreachable!("source facts are ground"),
        }
    }
}

/// Orders identifiers as they sort in rendered fact lines, where each is
/// followed by `(`, `,` or `)`. Identifier bytes are ASCII letters,
/// digits, `_` and `'`, or non-ASCII: none falls between `(` and `,`, and
/// only `'` sorts below them. So the end of a name sorts as one `(` does:
/// `a'` precedes `a`, which precedes `a0` and `ab`.
fn line_order(a: &str, b: &str) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let n = a.len().min(b.len());
    let end = |s: &[u8]| s.get(n).copied().unwrap_or(b'(');
    a[..n].cmp(&b[..n]).then_with(|| end(a).cmp(&end(b)))
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
    /// The chase recompute's statement analysis (memoized path only).
    stmt_analysis: Option<StmtAnalysis>,
    /// The session's constants in line order (memoized path only).
    const_order: ConstOrder,
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
            stmt_analysis: None,
            const_order: ConstOrder::default(),
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
            DepKey::AllStmts => self.stmts_fingerprint(),
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

    fn stmts_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        for s in &self.stmts {
            f.write_str(s);
        }
        f.write_u64(self.stmts.len() as u64);
        f.finish()
    }

    // ---------- compute functions (shared by memoized and scratch paths) ----------

    /// The canonical program text of the current inputs: statement lines
    /// in order, then the rendered `fact:` lines sorted. The `--scratch`
    /// path parses exactly this text from a fresh symbol table, as a
    /// one-shot `ndl chase` of it would; a memoized recompute builds the
    /// same symbols and source instance from the store directly.
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

    /// The chase of the current inputs: from the canonical text under
    /// `--scratch`, from the store otherwise.
    fn compute_chase(&mut self) -> ChaseData {
        if self.opts.scratch {
            return self.chase_from_text();
        }
        self.chase_from_store()
    }

    /// The `--scratch` oracle: [`ProgramArtifacts::build`] of
    /// [`IncrDb::canonical_src`], chased.
    fn chase_from_text(&self) -> ChaseData {
        let mut art = ProgramArtifacts::build(&self.canonical_src());
        if let Some(msg) = art.chase_refusal(&self.opts.path) {
            return ChaseData::unavailable(msg);
        }
        let plan = art.analysis.tgd_plan(self.opts.budget);
        let syms = std::mem::take(&mut art.syms);
        chase_source(syms, &art.source, &art, &plan)
    }

    /// The memoized path: the statement analysis (rebuilt only when the
    /// statements or the fact relations changed), the store's facts
    /// numbered into its symbols in canonical-text order, chased.
    fn chase_from_store(&mut self) -> ChaseData {
        let store = self.facts.store();
        let mut fact_rels: Vec<(RelId, usize)> = (store.active_relations())
            .map(|r| (r, store.arity(r).expect("an active relation has an arity")))
            .collect();
        let name = |r: RelId| self.syms.rel_name(r);
        fact_rels.sort_unstable_by(|a, b| line_order(name(a.0), name(b.0)));
        let stmts_fp = self.stmts_fingerprint();
        let stale = self
            .stmt_analysis
            .as_ref()
            .is_none_or(|m| m.stmts_fp != stmts_fp || m.fact_rels != fact_rels);
        if stale {
            let names: Vec<(&str, usize)> = fact_rels.iter().map(|&(r, n)| (name(r), n)).collect();
            let art = ProgramArtifacts::build_with_facts(&self.canonical_stmt_src(), &names);
            let canon_rels = (names.iter())
                .map(|&(n, _)| art.syms.find_rel(n).expect("fact relations are interned"))
                .collect();
            let plan = art.analysis.tgd_plan(self.opts.budget);
            self.stmt_analysis = Some(StmtAnalysis {
                stmts_fp,
                fact_rels,
                art,
                canon_rels,
                plan,
            });
        }
        self.const_order.refresh(&self.syms);
        let memo = self
            .stmt_analysis
            .as_ref()
            .expect("statement analysis built");
        let (art, store) = (&memo.art, self.facts.store());
        let path = &self.opts.path;
        // Refusals, as the text path words them. A clash of a fact
        // relation names the relation's first `fact:` line, which follows
        // the lines of every relation before it.
        let n = self.stmts.len();
        let refusal = match art.analysis.graphs.arity_clashes.first() {
            Some(&clash) if art.parse_errors.is_empty() && clash.stmt >= n => {
                let before = memo.fact_rels[..clash.stmt - n].iter();
                let stmt = n + before.map(|&(r, _)| store.rel_len(r)).sum::<usize>();
                Some(ArityClash { stmt, ..clash }.message(&art.syms, path))
            }
            _ => art.chase_refusal(path),
        };
        if let Some(msg) = refusal {
            return ChaseData::unavailable(msg);
        }
        // The source: the statements' facts, then the store's in line
        // order, each constant numbered at its first occurrence.
        let mut syms = art.syms.clone();
        let stmt_facts = art.source.len();
        let mut source = Instance::from_store(FactStore::with_capacity(stmt_facts + store.len()));
        for s in &art.stmts {
            if let Some(StmtAst::Fact(f)) = &s.ast {
                source.insert_tuple(f.rel, &f.args);
            }
        }
        const UNSEEN: u32 = u32::MAX;
        let mut canon = vec![UNSEEN; self.syms.num_consts()];
        let mut rows: Vec<(u128, FactId)> = Vec::new();
        let mut args: Vec<Value> = Vec::new();
        let order = &self.const_order;
        for (&(rel, arity), &canon_rel) in memo.fact_rels.iter().zip(&memo.canon_rels) {
            rows.clear();
            if arity <= 4 {
                // The ranks packed 32 bits each, the first argument's
                // highest: one arity per relation, so keys compare as
                // rank tuples.
                let key =
                    |t: &[Value]| (t.iter()).fold(0, |k, &v| k << 32 | u128::from(order.of(v)));
                rows.extend(store.iter_rel(rel).map(|(id, t)| (key(t), id)));
                rows.sort_unstable_by_key(|&(k, _)| k);
            } else {
                rows.extend(store.iter_rel(rel).map(|(id, _)| (0, id)));
                let ranks = |id: FactId| store.tuple(id).iter().map(|&v| order.of(v));
                rows.sort_unstable_by(|a, b| ranks(a.1).cmp(ranks(b.1)));
            }
            for &(_, id) in &rows {
                args.clear();
                for &v in store.tuple(id) {
                    let Value::Const(c) = v else {
                        unreachable!("source facts are ground")
                    };
                    if canon[c.index()] == UNSEEN {
                        canon[c.index()] = syms.constant(self.syms.const_name(c)).0;
                    }
                    args.push(Value::Const(ConstId(canon[c.index()])));
                }
                source.insert_tuple(canon_rel, &args);
            }
        }
        chase_source(syms, &source, art, &memo.plan)
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

/// Chases `source` with `art`'s tgds and egds under `plan`, rendering
/// the output as `ndl chase` does.
fn chase_source(
    syms: SymbolTable,
    source: &Instance,
    art: &ProgramArtifacts,
    plan: &ChasePlan,
) -> ChaseData {
    if !satisfies_egds(source, &art.egds) {
        let msg = "the fact statements violate the program's egds".to_string();
        return ChaseData::unavailable(msg);
    }
    let mut nulls = NullFactory::new();
    let outcome = chase_fixpoint_delta(source, &art.tgds, plan, &mut nulls);
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
            nulls.write_fact_lines(res.instance.facts(), &syms, "  ", &mut rendered.stdout);
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
        syms,
        nulls,
        result,
        rendered,
        summary,
    }
}

impl ChaseData {
    fn unavailable(msg: String) -> ChaseData {
        ChaseData {
            syms: SymbolTable::new(),
            nulls: NullFactory::new(),
            result: None,
            rendered: QueryOutput::err(msg.clone()),
            summary: msg,
        }
    }

    /// The memo's `(value, instance)` fingerprints. The instance
    /// fingerprint covers the rendered fact lines (everything after the
    /// summary line) when the chase reached a fixpoint, and the summary
    /// otherwise. The rendered output is the summary line, those fact
    /// lines and the error, so the value fingerprint hashes the summary,
    /// the instance fingerprint and the error: it changes exactly when
    /// the output does, and the listing is read once.
    fn fingerprints(&self) -> (u64, u64) {
        let instance = match self.result {
            Some(_) => {
                let stdout = &self.rendered.stdout;
                fingerprint_str(stdout.split_once('\n').map_or("", |(_, facts)| facts))
            }
            None => fingerprint_str(&self.summary),
        };
        let mut value = Fingerprint::new();
        value.write_str(&self.summary);
        value.write_u64(instance);
        match &self.rendered.error {
            Some(e) => value.write_str(e),
            None => value.write_u64(0),
        }
        (value.finish(), instance)
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
    let (core, block_size) = core_with_f_block_size(&res.instance);
    let mut out = QueryOutput::default();
    let _ = writeln!(
        out.stdout,
        "core: {} facts, {} nulls, f-block size {block_size}",
        core.len(),
        core.nulls().len(),
    );
    let nulls = &chase.nulls;
    nulls.write_fact_lines(core.facts(), &chase.syms, "  ", &mut out.stdout);
    out
}

fn compute_blocks(chase: &ChaseData) -> QueryOutput {
    let Some(res) = &chase.result else {
        return QueryOutput::err(format!("chase unavailable: {}", chase.summary));
    };
    let blocks = null_blocks(&res.instance);
    // One writer for every block, so a subterm null that also occurs in
    // another block's listing is rendered once.
    let mut w = chase.nulls.fact_writer(&chase.syms, String::new());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_order_is_the_order_of_rendered_names() {
        let names = [
            "a", "a'", "a''", "ab", "a0", "a_", "é", "éa", "R", "RS", "R'",
        ];
        for x in names {
            for y in names {
                for end in ["(", ",", ")"] {
                    let rendered = format!("{x}{end}").cmp(&format!("{y}{end}"));
                    assert_eq!(line_order(x, y), rendered, "{x} vs {y}, then {end}");
                }
            }
        }
    }
}
