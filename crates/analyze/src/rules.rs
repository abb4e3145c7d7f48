//! The lint rules: core validation lifted to spanned diagnostics, plus the
//! analyzer-only NDL01x rules over well-formed statements.
//!
//! | code   | severity | finding |
//! |--------|----------|---------|
//! | NDL001–NDL007 | error | parse / validation errors (see `ndl_core::error`) |
//! | NDL010 | warning  | existential variable used by no head atom in scope |
//! | NDL011 | warning  | vacuous parts (subtrees asserting only ⊤) |
//! | NDL012 | warning  | statement splits into independent tgds (Section 3) |
//! | NDL013 | warning  | duplicate atom in a body or head |
//! | NDL014 | warning  | nesting depth exceeds the configured bound |
//! | NDL015 | warning  | Skolem arity exceeds the configured bound (Section 4) |
//! | NDL016 | warning  | critical-instance chase has cyclic nulls (Section 4) |
//! | NDL017 | info     | universal variable occurs in a single atom |
//! | NDL020 | error    | not weakly acyclic — chase termination not guaranteed |
//! | NDL021 | warning  | weakly but not richly acyclic — oblivious chase may diverge |
//! | NDL022 | warning  | chase-size polynomial degree exceeds the configured bound |
//! | NDL023 | warning  | null-generation depth of a relation exceeds the bound |
//! | NDL024 | warning  | Skolem fan-out exceeds the configured bound |
//! | NDL025 | info     | clause joins at least the configured number of body atoms |
//! | NDL030 | warning  | statement subsumed by another (IMPLIES, Section 4) |
//! | NDL031 | info     | relation written but never read |
//! | NDL032 | info     | relation read but never written |
//! | NDL033 | info     | statement reads a relation it writes (self-interfering) |
//! | NDL034 | info     | parallel-schedule width report |
//! | NDL040 | warning  | dead statement — no chase from the facts can fire it |
//! | NDL041 | warning  | relation read and written, yet unreachable from the facts |
//! | NDL042 | warning  | source relation nothing live ever reads |
//! | NDL043 | info     | source column whose value is never used |
//! | NDL044 | info     | null-free (ground) target relation report |
//! | NDL045 | info     | provenance fan-in report (positions above the bound) |
//!
//! NDL020–NDL025 come from the semantic layer ([`crate::graph`],
//! [`crate::termination`], [`crate::cost`]): the position and Skolem
//! dependency graphs of the Skolemized program. They run on every
//! arity-consistent statement even when side discipline is violated
//! (NDL006), because recursive programs are exactly where termination is
//! at stake; NDL016's critical-instance signal corroborates them.
//!
//! NDL030 is semantic redundancy: statement σ is *subsumed* when another
//! single statement Σ = {σ'} already implies it (`IMPLIES(Σ, σ)`,
//! Section 4 of the paper) — chasing σ then derives nothing the chase of
//! σ' does not. Implication testing is expensive (non-elementary in
//! nesting depth), so the pass is gated to small programs by
//! [`LintOptions::max_subsumption_tgds`]. NDL031–NDL034 come from the
//! interference analysis ([`crate::interference`], [`crate::schedule`]):
//! whole-program relation roles and the statement conflict graph behind
//! `ndl analyze --schedule` and `ndl chase --parallel`.
//!
//! NDL040–NDL045 come from the dataflow pass ([`crate::dataflow`]):
//! reachability from the fact-populated relations, statement liveness,
//! groundness and position provenance. The liveness-based findings
//! (NDL040–NDL043) fire only when the program declares `fact:` statements
//! — without them the sources are assumed, and a dead-code claim would
//! accuse the assumption rather than the program. NDL044/NDL045 are
//! reports surfacing what `ndl analyze --dataflow` proves.

use crate::cost::{ChaseAnalysis, PassTimings};
use crate::diagnostic::{Diagnostic, LineIndex, Note, Severity};
use crate::program::{parse_program, Statement, StmtAst};
use crate::termination::TerminationClass;
use ndl_chase::chase_mapping;
use ndl_core::parse::{locate_applied, locate_ident, locate_quantified};
use ndl_core::prelude::*;
use ndl_hom::IncidenceGraph;
use ndl_reasoning::{drop_vacuous_parts, implies_tgd, split_independent_conjuncts, ImpliesOptions};
use std::collections::{BTreeMap, BTreeSet};

/// NDL010: an existential variable no head atom in scope uses.
pub const UNUSED_EXISTENTIAL: &str = "NDL010";
/// NDL011: parts whose whole subtree asserts only ⊤.
pub const VACUOUS_PART: &str = "NDL011";
/// NDL012: the statement is not normalized — it splits into independent tgds.
pub const SPLITTABLE: &str = "NDL012";
/// NDL013: the same atom occurs twice in one body or head.
pub const DUPLICATE_ATOM: &str = "NDL013";
/// NDL014: nesting depth above the configured bound.
pub const DEEP_NESTING: &str = "NDL014";
/// NDL015: Skolem arity (number of visible universals) above the bound.
pub const SKOLEM_ARITY: &str = "NDL015";
/// NDL016: the chased critical instance has Berge-cyclic null structure.
pub const CYCLIC_NULLS: &str = "NDL016";
/// NDL017: a universal variable occurring in a single atom (projection only).
pub const SINGLETON_UNIVERSAL: &str = "NDL017";
/// NDL020: the program is not weakly acyclic — no chase variant is
/// guaranteed to terminate. The special-edge cycle is attached as notes.
pub const NON_TERMINATING: &str = "NDL020";
/// NDL021: weakly but not richly acyclic — the restricted chase
/// terminates, the oblivious (fixpoint) chase may diverge.
pub const OBLIVIOUS_DIVERGENCE: &str = "NDL021";
/// NDL022: the chase-size polynomial degree exceeds the configured bound.
pub const SIZE_DEGREE: &str = "NDL022";
/// NDL023: a relation's null-generation depth exceeds the bound.
pub const NULL_DEPTH: &str = "NDL023";
/// NDL024: a Skolem function's fan-out exceeds the configured bound.
pub const SKOLEM_FANOUT: &str = "NDL024";
/// NDL025: a Skolemized clause joins at least the configured number of
/// body atoms (accumulated ancestor bodies included).
pub const WIDE_JOIN: &str = "NDL025";
/// NDL030: the statement is implied by another statement alone (IMPLIES),
/// so chasing it derives nothing new — it can be removed.
pub const SUBSUMED: &str = "NDL030";
/// NDL031: a relation some statement writes but none reads — a pure
/// output (in a data-exchange mapping, simply a target relation).
pub const WRITE_ONLY: &str = "NDL031";
/// NDL032: a relation some statement reads but none writes — its matches
/// can only ever see externally supplied source facts.
pub const READ_ONLY: &str = "NDL032";
/// NDL033: a statement reading a relation it writes; it re-triggers on
/// its own derivations and always runs alone in a parallel schedule.
pub const SELF_INTERFERING: &str = "NDL033";
/// NDL034: the parallel-schedule width report (stages and widest stage).
pub const SCHEDULE_WIDTH: &str = "NDL034";
/// NDL040: a dead statement — every clause reads some relation no fact
/// populates and no firing clause writes, so no chase from the declared
/// facts can ever fire it. The chase engines skip certified-dead
/// statements (see `ndl_chase::DataflowCert`).
pub const DEAD_STATEMENT: &str = "NDL040";
/// NDL041: a relation that is read and written somewhere, yet unreachable
/// from the facts — every writer is dead or never fires. Distinct from
/// NDL032 (read but never written at all).
pub const UNREACHABLE_READ: &str = "NDL041";
/// NDL042: a fact-populated source relation no firing clause and no egd
/// ever reads — the facts are declared and then ignored.
pub const UNUSED_SOURCE: &str = "NDL042";
/// NDL043: a source column whose value is never used — in every firing
/// clause and egd reading the relation, the variable at that column
/// occurs nowhere else.
pub const UNUSED_SOURCE_COLUMN: &str = "NDL043";
/// NDL044: the null-free relation report — target relations the dataflow
/// pass proves can never hold a labeled null.
pub const GROUND_RELATIONS: &str = "NDL044";
/// NDL045: the provenance fan-in report — target positions reachable
/// from at least the configured number of distinct source positions and
/// Skolem functions.
pub const PROVENANCE_FAN_IN: &str = "NDL045";

/// Tunable thresholds of the analyzer.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// NDL014 fires when a nested tgd's depth exceeds this (default 4).
    /// Implication testing is exponential in nesting-related parameters
    /// (Section 4), so deep programs deserve a nudge.
    pub max_depth: usize,
    /// NDL015 fires when a part introduces existentials while seeing more
    /// than this many universal variables (default 5): each existential
    /// Skolemizes to a function of that arity, and f-block sizes grow with
    /// it (Section 4).
    pub max_skolem_arity: usize,
    /// NDL022 fires when the chase-size polynomial degree exceeds this
    /// (default 6): `chase(I)` may have `O(|I|^d)` facts.
    pub max_size_degree: usize,
    /// NDL023 fires when a relation can hold nulls of generation depth
    /// greater than this (default 2): nulls created from nulls created
    /// from nulls make instances hard to interpret.
    pub max_null_depth: usize,
    /// NDL024 fires when one Skolem function's terms can spread to more
    /// than this many positions (default 8).
    pub max_skolem_fanout: usize,
    /// NDL025 fires when a Skolemized clause joins at least this many
    /// body atoms (default 8): trigger matching is exponential in join
    /// width in the worst case.
    pub max_body_atoms: usize,
    /// NDL030 (pairwise subsumption via IMPLIES) runs only when the
    /// program has between 2 and this many clean nested tgds (default 6):
    /// the procedure enumerates k-patterns, which is non-elementary in
    /// nesting-related parameters. `0` disables the pass.
    pub max_subsumption_tgds: usize,
    /// NDL045 fires when a target position's provenance fan-in (distinct
    /// source positions plus distinct Skolem functions that can reach it)
    /// is at least this (default 8): such positions mix many origins and
    /// are where data-exchange mappings become hard to audit.
    pub max_provenance_fan_in: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            max_depth: 4,
            max_skolem_arity: 5,
            max_size_degree: 6,
            max_null_depth: 2,
            max_skolem_fanout: 8,
            max_body_atoms: 8,
            max_subsumption_tgds: 6,
            max_provenance_fan_in: 8,
        }
    }
}

/// Lints a dependency-program source: parses it into statements, validates
/// everything against one shared schema (so cross-statement arity and
/// source/target conflicts surface), runs the analyzer-only rules on
/// well-formed statements, and chases the critical instance of the overall
/// mapping for NDL016. Diagnostics come back ordered by position.
pub fn lint_source(syms: &mut SymbolTable, src: &str, opts: &LintOptions) -> Vec<Diagnostic> {
    lint_source_timed(syms, src, opts).0
}

/// [`lint_source`], also returning the wall time of each pass of the
/// semantic analysis behind the NDL020+ lints (the `passes_ns` object of
/// `ndl lint --stats`).
pub fn lint_source_timed(
    syms: &mut SymbolTable,
    src: &str,
    opts: &LintOptions,
) -> (Vec<Diagnostic>, PassTimings) {
    let index = LineIndex::new(src);
    let (stmts, parse_errs) = parse_program(syms, src);
    let mut diags = Vec::new();
    for (i, e) in &parse_errs {
        diags.push(core_diag(e, &stmts[*i], syms, &index));
    }

    let mut schema = Schema::new();
    let mut clean_tgds = Vec::new();
    let mut clean_egds = Vec::new();
    for stmt in &stmts {
        let Some(ast) = &stmt.ast else { continue };
        let mut errs = Vec::new();
        match ast {
            StmtAst::Tgd(t) => t.check(&mut schema, &mut errs),
            StmtAst::So(t) => t.check(&mut schema, &mut errs),
            StmtAst::Egd(e) => e.check(&mut schema, &mut errs),
            StmtAst::Fact(f) => {
                if let Err(e) = schema.declare(f.rel, f.args.len(), Side::Source) {
                    errs.push(e);
                }
            }
        }
        let clean = errs.is_empty();
        for e in &errs {
            diags.push(core_diag(e, stmt, syms, &index));
        }
        if clean {
            match ast {
                StmtAst::Tgd(t) => {
                    tgd_lints(t, stmt, syms, opts, &index, &mut diags);
                    clean_tgds.push((stmt.index, t.clone()));
                }
                StmtAst::Egd(e) => clean_egds.push(e.clone()),
                _ => {}
            }
        }
    }

    if !clean_tgds.is_empty() {
        let tgds: Vec<NestedTgd> = clean_tgds.iter().map(|(_, t)| t.clone()).collect();
        if let Ok(m) = NestedMapping::new(tgds, clean_egds.clone()) {
            check_critical_chase(&m, syms, &mut diags);
        }
    }

    subsumption_lints(
        &clean_tgds,
        &clean_egds,
        syms,
        opts,
        &stmts,
        &index,
        &mut diags,
    );
    let passes_ns = semantic_lints(syms, &stmts, opts, &index, &mut diags);

    diags.sort_by(|a, b| {
        let key = |d: &Diagnostic| {
            (
                d.statement.unwrap_or(usize::MAX),
                d.span.map_or(usize::MAX, |s| s.start),
                d.code.clone(),
            )
        };
        key(a).cmp(&key(b))
    });
    (diags, passes_ns)
}

/// Lifts a [`CoreError`] of `stmt` to a spanned diagnostic.
fn core_diag(e: &CoreError, stmt: &Statement, syms: &SymbolTable, index: &LineIndex) -> Diagnostic {
    let mut d =
        Diagnostic::new(e.code(), Severity::Error, e.display(syms)).with_statement(stmt.index);
    if let Some(sp) = e.locate(syms, &stmt.text) {
        d = d.with_span(sp.offset_by(stmt.offset), index);
    }
    d
}

/// The analyzer-only rules over one well-formed nested tgd.
fn tgd_lints(
    t: &NestedTgd,
    stmt: &Statement,
    syms: &SymbolTable,
    opts: &LintOptions,
    index: &LineIndex,
    diags: &mut Vec<Diagnostic>,
) {
    let whole = Span::new(stmt.offset, stmt.offset + stmt.text.len());
    let anchor_var = |name: &str| {
        locate_quantified(&stmt.text, name, 0)
            .or_else(|| locate_ident(&stmt.text, name, 0))
            .map(|s| s.offset_by(stmt.offset))
    };
    let push = |diags: &mut Vec<Diagnostic>, code, sev, msg: String, span: Option<Span>| {
        let mut d = Diagnostic::new(code, sev, msg).with_statement(stmt.index);
        if let Some(sp) = span {
            d = d.with_span(sp, index);
        }
        diags.push(d);
    };

    // NDL010: existentials used by no head atom of their part or a descendant.
    for (pid, p) in t.parts().iter().enumerate() {
        if p.existentials.is_empty() {
            continue;
        }
        let mut used: BTreeSet<VarId> = head_vars(p);
        for d in t.descendants(pid) {
            used.extend(head_vars(t.part(d)));
        }
        for &v in &p.existentials {
            if !used.contains(&v) {
                let name = syms.var_name(v);
                push(
                    diags,
                    UNUSED_EXISTENTIAL,
                    Severity::Warning,
                    format!("existential variable {name} is used by no head atom in scope"),
                    anchor_var(name),
                );
            }
        }
    }

    // NDL011: subtrees asserting only ⊤.
    let dropped = t.num_parts() - drop_vacuous_parts(t).num_parts();
    if dropped > 0 {
        push(
            diags,
            VACUOUS_PART,
            Severity::Warning,
            format!(
                "{dropped} part{} assert only true (no head atoms in the subtree)",
                if dropped == 1 { "" } else { "s" }
            ),
            Some(whole),
        );
    }

    // NDL012: not in normal form — root conjuncts share no existential.
    let pieces = split_independent_conjuncts(t).len();
    if pieces > 1 {
        push(
            diags,
            SPLITTABLE,
            Severity::Warning,
            format!(
                "statement is not normalized: it splits into {pieces} independent nested tgds \
                 (no shared root existentials; Section 3)"
            ),
            Some(whole),
        );
    }

    // NDL013: a body or head lists the same atom twice.
    for p in t.parts() {
        for atoms in [&p.body, &p.head] {
            let mut seen: BTreeSet<&Atom> = BTreeSet::new();
            let mut reported: BTreeSet<&Atom> = BTreeSet::new();
            for a in atoms {
                if !seen.insert(a) && reported.insert(a) {
                    let name = syms.rel_name(a.rel);
                    push(
                        diags,
                        DUPLICATE_ATOM,
                        Severity::Warning,
                        format!(
                            "duplicate atom {name}/{} in the same conjunction",
                            a.args.len()
                        ),
                        locate_applied(&stmt.text, name, Some(a.args.len()), 1)
                            .map(|s| s.offset_by(stmt.offset)),
                    );
                }
            }
        }
    }

    // NDL014: deep nesting.
    if t.depth() > opts.max_depth {
        push(
            diags,
            DEEP_NESTING,
            Severity::Warning,
            format!(
                "nesting depth {} exceeds {} — implication testing is exponential in \
                 nesting parameters (Section 4)",
                t.depth(),
                opts.max_depth
            ),
            Some(whole),
        );
    }

    // NDL015: wide Skolem functions.
    for (pid, p) in t.parts().iter().enumerate() {
        let arity = t.visible_universals(pid).len();
        if !p.existentials.is_empty() && arity > opts.max_skolem_arity {
            let name = syms.var_name(p.existentials[0]);
            push(
                diags,
                SKOLEM_ARITY,
                Severity::Warning,
                format!(
                    "existential {name} Skolemizes to a function of arity {arity} \
                     (> {}); f-block sizes grow with Skolem arity (Section 4)",
                    opts.max_skolem_arity
                ),
                anchor_var(name),
            );
        }
    }

    // NDL017: a universal occurring in a single atom only projects.
    let mut occurrences: BTreeMap<VarId, usize> = BTreeMap::new();
    for p in t.parts() {
        for a in p.body.iter().chain(p.head.iter()) {
            let distinct: BTreeSet<VarId> = a.args.iter().copied().collect();
            for v in distinct {
                *occurrences.entry(v).or_insert(0) += 1;
            }
        }
    }
    for p in t.parts() {
        for &v in &p.universals {
            if occurrences.get(&v) == Some(&1) {
                let name = syms.var_name(v);
                push(
                    diags,
                    SINGLETON_UNIVERSAL,
                    Severity::Info,
                    format!("universal variable {name} occurs in a single atom (projection only)"),
                    anchor_var(name),
                );
            }
        }
    }
}

fn head_vars(p: &Part) -> BTreeSet<VarId> {
    p.head.iter().flat_map(|a| a.args.iter().copied()).collect()
}

/// NDL016: chases the critical instance (one fact per source relation, all
/// positions the same fresh constant) and checks the target's fact/null
/// incidence graph for Berge cycles. A cycle means nulls are woven into
/// unboundedly extensible structure, so chase-based reasoning procedures
/// may diverge on this mapping (Section 4).
fn check_critical_chase(m: &NestedMapping, syms: &mut SymbolTable, diags: &mut Vec<Diagnostic>) {
    let crit = syms.constant("crit");
    let mut source = Instance::new();
    for (rel, arity, side) in m.schema.relations() {
        if side == Side::Source {
            source.insert(Fact::new(rel, vec![Value::Const(crit); arity]));
        }
    }
    if source.is_empty() {
        return;
    }
    let (res, _nulls) = chase_mapping(&source, m, syms);
    let cyclic = IncidenceGraph::of(&res.target).cyclic_components();
    if !cyclic.is_empty() {
        let nulls: usize = cyclic.iter().map(Vec::len).sum();
        diags.push(Diagnostic::new(
            CYCLIC_NULLS,
            Severity::Warning,
            format!(
                "critical-instance chase has cyclic null structure ({nulls} null{} in {} \
                 cyclic component{}); chase-based procedures may diverge on this mapping \
                 (Section 4)",
                if nulls == 1 { "" } else { "s" },
                cyclic.len(),
                if cyclic.len() == 1 { "" } else { "s" },
            ),
        ));
    }
}

/// NDL020–NDL025: the semantic pass over the position and Skolem graphs.
/// Runs on all arity-consistent statements — side-discipline violations do
/// not exclude a statement (see [`crate::graph`] module docs).
fn semantic_lints(
    syms: &mut SymbolTable,
    stmts: &[Statement],
    opts: &LintOptions,
    index: &LineIndex,
    diags: &mut Vec<Diagnostic>,
) -> PassTimings {
    let analysis = ChaseAnalysis::analyze(syms, stmts);
    let whole = |i: usize| {
        let s = &stmts[i];
        Span::new(s.offset, s.offset + s.text.len())
    };
    // An edge's note anchors at the *target* position's relation in the
    // edge's statement, preferring the second occurrence (recursive
    // statements mention the relation in body and head; the head
    // occurrence is where the value arrives).
    let anchor_edge = |e: &crate::graph::PosEdge| {
        let (rel, _) = analysis.graphs.positions.positions[e.to];
        let name = syms.rel_name(rel);
        let text = &stmts[e.stmt].text;
        locate_applied(text, name, None, 1)
            .or_else(|| locate_applied(text, name, None, 0))
            .map(|s| s.offset_by(stmts[e.stmt].offset))
    };

    match analysis.termination.class {
        TerminationClass::Cyclic | TerminationClass::WeaklyAcyclic => {
            let cyclic = analysis.termination.class == TerminationClass::Cyclic;
            let (code, sev, message) = if cyclic {
                (
                    NON_TERMINATING,
                    Severity::Error,
                    "program is not weakly acyclic: no chase variant is guaranteed to \
                     terminate (special-edge cycle in the position graph)"
                        .to_string(),
                )
            } else {
                (
                    OBLIVIOUS_DIVERGENCE,
                    Severity::Warning,
                    "program is weakly but not richly acyclic: the restricted chase \
                     terminates, the oblivious (fixpoint) chase may diverge"
                        .to_string(),
                )
            };
            let witness = &analysis.termination.witness;
            let first_stmt = witness.first().map(|e| e.stmt);
            let mut d = Diagnostic::new(code, sev, message);
            if let Some(i) = first_stmt {
                d = d.with_statement(i).with_span(whole(i), index);
            }
            for (e, rendered) in witness.iter().zip(&analysis.termination.witness_rendered) {
                let kind = if e.special {
                    "special edge"
                } else {
                    "regular edge"
                };
                let mut note = Note::new(format!("{kind} {rendered}")).with_statement(e.stmt);
                if let Some(sp) = anchor_edge(e) {
                    note = note.with_span(sp, index);
                }
                d = d.with_note(note);
            }
            diags.push(d);
        }
        TerminationClass::RichlyAcyclic => {}
    }

    if let Some(deg) = analysis.cost.size_degree {
        if deg > opts.max_size_degree {
            diags.push(Diagnostic::new(
                SIZE_DEGREE,
                Severity::Warning,
                format!(
                    "chase size is bounded by O(n^{deg}) (> degree {}); consider \
                     splitting wide joins or narrowing Skolem arguments",
                    opts.max_size_degree
                ),
            ));
        }
    }

    for &(rel, depth) in &analysis.termination.relation_depths {
        if depth > opts.max_null_depth {
            diags.push(Diagnostic::new(
                NULL_DEPTH,
                Severity::Warning,
                format!(
                    "relation {} can hold nulls of generation depth {depth} (> {}): \
                     nulls invented from nulls invented from nulls",
                    syms.rel_name(rel),
                    opts.max_null_depth
                ),
            ));
        }
    }

    for f in &analysis.graphs.skolem.funcs {
        if f.fan_out > opts.max_skolem_fanout {
            let mut d = Diagnostic::new(
                SKOLEM_FANOUT,
                Severity::Warning,
                format!(
                    "Skolem function {} can spread to {} positions (> {}); its nulls \
                     permeate the target schema",
                    syms.func_name(f.func),
                    f.fan_out,
                    opts.max_skolem_fanout
                ),
            );
            d = d.with_statement(f.stmt).with_span(whole(f.stmt), index);
            diags.push(d);
        }
    }

    let mut wide: BTreeMap<usize, usize> = BTreeMap::new();
    for cv in &analysis.graphs.clauses {
        if cv.clause.body.len() >= opts.max_body_atoms {
            let w = wide.entry(cv.stmt).or_insert(0);
            *w = (*w).max(cv.clause.body.len());
        }
    }
    for (stmt, width) in wide {
        diags.push(
            Diagnostic::new(
                WIDE_JOIN,
                Severity::Info,
                format!(
                    "a Skolemized clause of this statement joins {width} body atoms \
                     (>= {}); trigger matching is worst-case exponential in join width",
                    opts.max_body_atoms
                ),
            )
            .with_statement(stmt)
            .with_span(whole(stmt), index),
        );
    }

    // NDL031/NDL032: whole-program relation roles, facts counted as
    // writers and egd bodies as readers (see `crate::interference`).
    for &rel in &analysis.interference.write_only {
        diags.push(Diagnostic::new(
            WRITE_ONLY,
            Severity::Info,
            format!(
                "relation {} is written but never read: a pure output (for a \
                 data-exchange mapping, simply a target relation)",
                syms.rel_name(rel)
            ),
        ));
    }
    for &rel in &analysis.interference.read_only {
        diags.push(Diagnostic::new(
            READ_ONLY,
            Severity::Info,
            format!(
                "relation {} is read but never written: no statement or fact \
                 populates it, so its matches only ever see externally supplied \
                 source facts",
                syms.rel_name(rel)
            ),
        ));
    }

    // NDL033: self-interfering statements must run alone in a stage.
    for &s in &analysis.interference.self_interfering {
        diags.push(
            Diagnostic::new(
                SELF_INTERFERING,
                Severity::Info,
                "statement reads a relation it writes: it can re-trigger on its \
                 own derivations and always runs alone in a parallel schedule",
            )
            .with_statement(s)
            .with_span(whole(s), index),
        );
    }

    // NDL034: the schedule-width report, when there is anything to
    // parallelize over.
    if analysis.interference.scheduled.len() >= 2 {
        diags.push(Diagnostic::new(
            SCHEDULE_WIDTH,
            Severity::Info,
            format!(
                "parallel schedule: {} statement(s) in {} stage(s), width {} \
                 (see `ndl analyze --schedule`)",
                analysis.interference.scheduled.len(),
                analysis.schedule.len(),
                analysis.schedule.width()
            ),
        ));
    }

    // NDL040–NDL044: the whole-mapping dataflow pass. Liveness-based
    // findings require *declared* facts: in assumed-sources mode the
    // population is a guess (every read-never-written relation), so dead
    // and unused claims would accuse the analyzer's own assumption, not
    // the program.
    let df = &analysis.dataflow;
    if !df.assumed_sources {
        for &s in &df.dead {
            diags.push(
                Diagnostic::new(
                    DEAD_STATEMENT,
                    Severity::Warning,
                    "statement is dead: every clause reads some relation that no fact \
                     populates and no firing statement writes, so no chase from the \
                     declared facts can ever fire it (`ndl chase` skips it under a \
                     dataflow certificate)",
                )
                .with_statement(s)
                .with_span(whole(s), index),
            );
        }
        for &rel in &df.unwritten_reads {
            diags.push(Diagnostic::new(
                UNREACHABLE_READ,
                Severity::Warning,
                format!(
                    "relation {} is read and written, yet unreachable: every statement \
                     writing it is dead or never fires, so its readers only ever see \
                     an empty relation",
                    syms.rel_name(rel)
                ),
            ));
        }
        for &rel in &df.unused_sources {
            diags.push(Diagnostic::new(
                UNUSED_SOURCE,
                Severity::Warning,
                format!(
                    "source relation {} is populated by facts but read by no firing \
                     statement and no egd: its facts are declared and then ignored",
                    syms.rel_name(rel)
                ),
            ));
        }
        for &(rel, col) in &df.unused_source_columns {
            diags.push(Diagnostic::new(
                UNUSED_SOURCE_COLUMN,
                Severity::Info,
                format!(
                    "column {}.{} of a source relation is never used: every firing \
                     clause and egd reading {} ignores the value at that position",
                    syms.rel_name(rel),
                    col + 1,
                    syms.rel_name(rel)
                ),
            ));
        }
        // NDL044: ground relations some statement actually derives into —
        // relations only facts populate are trivially null-free and would
        // drown the report, and unreachable relations are null-free only
        // vacuously (they stay empty), so both are excluded.
        let head_written: BTreeSet<RelId> = analysis
            .graphs
            .clauses
            .iter()
            .flat_map(|cv| cv.clause.head.iter().map(|ta| ta.rel))
            .collect();
        let ground_written: Vec<&RelId> = df
            .ground
            .iter()
            .filter(|r| head_written.contains(r) && df.reachable.contains(r))
            .collect();
        if !ground_written.is_empty() {
            let names: Vec<&str> = ground_written.iter().map(|&&r| syms.rel_name(r)).collect();
            diags.push(Diagnostic::new(
                GROUND_RELATIONS,
                Severity::Info,
                format!(
                    "derived relation{} {} {} provably null-free: homomorphism and \
                     core checks skip null bookkeeping there (see `ndl analyze \
                     --dataflow`)",
                    if names.len() == 1 { "" } else { "s" },
                    names.join(", "),
                    if names.len() == 1 { "is" } else { "are" },
                ),
            ));
        }
    }

    // NDL045: positions mixing many origins. Provenance is computed from
    // firing clauses whichever way the sources were chosen, so the report
    // is meaningful in assumed mode too.
    for (q, p) in df.provenance.iter().enumerate() {
        if p.fan_in() >= opts.max_provenance_fan_in {
            diags.push(Diagnostic::new(
                PROVENANCE_FAN_IN,
                Severity::Info,
                format!(
                    "position {} has provenance fan-in {} (>= {}): values from {} \
                     source position(s) and {} Skolem function(s) can reach it",
                    analysis.graphs.positions.display_pos(syms, q),
                    p.fan_in(),
                    opts.max_provenance_fan_in,
                    p.sources.len(),
                    p.funcs.len(),
                ),
            ));
        }
    }
    analysis.passes_ns
}

/// NDL030: pairwise subsumption via the IMPLIES procedure of Section 4.
/// Statement σᵢ is flagged when some other single clean statement σⱼ
/// already implies it. When the two are equivalent (IMPLIES holds in both
/// directions) only the *later* statement is flagged, so one of an
/// α-equivalent pair always survives. Pairs on which the procedure errors
/// (e.g. the pattern budget trips) are skipped — absence of NDL030 is not
/// a proof of irredundancy. Gated to small programs: IMPLIES enumerates
/// k-patterns, non-elementary in nesting-related parameters.
fn subsumption_lints(
    clean_tgds: &[(usize, NestedTgd)],
    clean_egds: &[Egd],
    syms: &mut SymbolTable,
    opts: &LintOptions,
    stmts: &[Statement],
    index: &LineIndex,
    diags: &mut Vec<Diagnostic>,
) {
    let n = clean_tgds.len();
    if n < 2 || n > opts.max_subsumption_tgds {
        return;
    }
    let iopts = ImpliesOptions::default();
    let mut imp = vec![vec![false; n]; n];
    for j in 0..n {
        let premise = match NestedMapping::new(vec![clean_tgds[j].1.clone()], clean_egds.to_vec()) {
            Ok(m) => m,
            Err(_) => return,
        };
        for i in 0..n {
            if i != j {
                imp[j][i] = implies_tgd(&premise, &clean_tgds[i].1, syms, &iopts)
                    .map(|r| r.holds)
                    .unwrap_or(false);
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            if i == j || !imp[j][i] {
                continue;
            }
            if imp[i][j] && j > i {
                continue; // equivalent pair: flag only the later statement
            }
            let (si, _) = clean_tgds[i];
            let (sj, _) = clean_tgds[j];
            let s = &stmts[si];
            let how = if imp[i][j] {
                "equivalent to"
            } else {
                "subsumed by"
            };
            diags.push(
                Diagnostic::new(
                    SUBSUMED,
                    Severity::Warning,
                    format!(
                        "statement is {how} statement {sj} (IMPLIES, Section 4): \
                         chasing it derives nothing new; consider removing it"
                    ),
                )
                .with_statement(si)
                .with_span(Span::new(s.offset, s.offset + s.text.len()), index),
            );
            break; // one subsumer per statement is enough
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let mut syms = SymbolTable::new();
        lint_source(&mut syms, src, &LintOptions::default())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_program_has_no_errors() {
        let diags = lint("S(x,y) -> exists z (R(x,z) & T(z,y))\nfact: S(a,b)\n");
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    }

    #[test]
    fn unsafe_variable_is_spanned() {
        let diags = lint("# header\nforall x,z (S(x) -> R(x))\n");
        let d = diags.iter().find(|d| d.code == "NDL002").expect("NDL002");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.statement, Some(0));
        assert_eq!(d.line, Some(2));
        assert_eq!(d.col, Some(10));
    }

    #[test]
    fn cross_statement_schema_conflicts() {
        // R is a target relation in statement 0 and a source one in 1.
        let diags = lint("S(x) -> R(x)\nR(x) -> T(x)\n");
        let d = diags.iter().find(|d| d.code == "NDL006").expect("NDL006");
        assert_eq!(d.statement, Some(1));
        assert_eq!(d.line, Some(2));
        assert_eq!(d.col, Some(1));
    }

    #[test]
    fn unused_existential_warns() {
        let diags = lint("S(x) -> exists y R(x)\n");
        let d = diags
            .iter()
            .find(|d| d.code == UNUSED_EXISTENTIAL)
            .expect("NDL010");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.col, Some(16));
    }

    #[test]
    fn splittable_statement_warns() {
        let diags = lint("S(x) -> (R(x) & T(x))\n");
        assert!(codes(&diags).contains(&SPLITTABLE), "{diags:?}");
        // Correlated existentials keep the conjuncts together: no warning.
        let ok = lint("S(x) -> exists y (R(x,y) & T(y,x))\n");
        assert!(!codes(&ok).contains(&SPLITTABLE), "{ok:?}");
    }

    #[test]
    fn duplicate_atom_warns_on_second_occurrence() {
        let diags = lint("S(x) & S(x) -> R(x)\n");
        let d = diags
            .iter()
            .find(|d| d.code == DUPLICATE_ATOM)
            .expect("NDL013");
        assert_eq!(d.col, Some(8));
    }

    #[test]
    fn depth_and_skolem_arity_bounds() {
        let mut syms = SymbolTable::new();
        let opts = LintOptions {
            max_depth: 1,
            max_skolem_arity: 1,
            ..LintOptions::default()
        };
        let diags = lint_source(
            &mut syms,
            "forall x1,x2 (S(x1,x2) -> exists y (R(y,x1) & forall x3 (S(x1,x3) -> R(y,x3))))\n",
            &opts,
        );
        assert!(codes(&diags).contains(&DEEP_NESTING), "{diags:?}");
        assert!(codes(&diags).contains(&SKOLEM_ARITY), "{diags:?}");
        let relaxed = lint_source(
            &mut syms,
            "forall x1,x2 (S(x1,x2) -> exists y (R(y,x1) & forall x3 (S(x1,x3) -> R(y,x3))))\n",
            &LintOptions::default(),
        );
        assert!(!codes(&relaxed).contains(&DEEP_NESTING));
        assert!(!codes(&relaxed).contains(&SKOLEM_ARITY));
    }

    #[test]
    fn cyclic_null_structure_warns() {
        // Two head atoms sharing two existentials: the chased critical
        // instance has facts T(n1,n2), U(n1,n2) — a Berge cycle.
        let diags = lint("S(x) -> exists y,z (T(y,z) & U(y,z))\n");
        assert!(codes(&diags).contains(&CYCLIC_NULLS), "{diags:?}");
        // A single wide fact is a star — acyclic.
        let ok = lint("S(x) -> exists y,z T(y,z)\n");
        assert!(!codes(&ok).contains(&CYCLIC_NULLS), "{ok:?}");
    }

    #[test]
    fn singleton_universal_is_info() {
        let diags = lint("S(x,y) -> R(x)\n");
        let d = diags
            .iter()
            .find(|d| d.code == SINGLETON_UNIVERSAL)
            .expect("NDL017");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("variable y"));
    }

    #[test]
    fn non_weakly_acyclic_program_is_an_error_with_cycle_notes() {
        let diags = lint("E(x,y) -> exists z E(y,z)\n");
        let d = diags
            .iter()
            .find(|d| d.code == NON_TERMINATING)
            .expect("NDL020");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.statement, Some(0));
        assert!(!d.notes.is_empty());
        assert!(
            d.notes[0].message.starts_with("special edge"),
            "{:?}",
            d.notes
        );
        assert!(d.notes[0].span.is_some());
        // NDL006 (side discipline) fires too — the semantic pass must not
        // be suppressed by it.
        assert!(codes(&diags).contains(&"NDL006"), "{diags:?}");
    }

    #[test]
    fn blind_recursion_warns_about_oblivious_divergence() {
        let diags = lint("T(x) -> exists y T(y)\n");
        let d = diags
            .iter()
            .find(|d| d.code == OBLIVIOUS_DIVERGENCE)
            .expect("NDL021");
        assert_eq!(d.severity, Severity::Warning);
        assert!(!codes(&diags).contains(&NON_TERMINATING));
    }

    #[test]
    fn clean_source_to_target_program_has_no_semantic_findings() {
        let diags = lint("S(x,y) -> exists z (R(x,z) & T(z,y))\nfact: S(a,b)\n");
        for code in [
            NON_TERMINATING,
            OBLIVIOUS_DIVERGENCE,
            SIZE_DEGREE,
            NULL_DEPTH,
            SKOLEM_FANOUT,
            WIDE_JOIN,
        ] {
            assert!(!codes(&diags).contains(&code), "{code}: {diags:?}");
        }
    }

    #[test]
    fn size_degree_and_wide_join_bounds() {
        let mut syms = SymbolTable::new();
        let opts = LintOptions {
            max_size_degree: 2,
            max_body_atoms: 2,
            ..LintOptions::default()
        };
        let diags = lint_source(&mut syms, "E(x,y) & E(y,z) -> E(x,z)\n", &opts);
        assert!(codes(&diags).contains(&SIZE_DEGREE), "{diags:?}");
        assert!(codes(&diags).contains(&WIDE_JOIN), "{diags:?}");
        let relaxed = lint("E(x,y) & E(y,z) -> E(x,z)\n");
        assert!(!codes(&relaxed).contains(&SIZE_DEGREE));
        assert!(!codes(&relaxed).contains(&WIDE_JOIN));
    }

    #[test]
    fn null_depth_and_fanout_bounds() {
        let mut syms = SymbolTable::new();
        // A null pipeline: U's null feeds W's Skolem, so W holds nulls of
        // generation depth 2 (the first special edge is RA-only — x is
        // hidden inside the Skolem term — and does not count toward rank).
        let src = "S(x) -> exists y T(y)\nT(x) -> exists z U(x,z)\nU(x,y) -> exists w W(y,w)\n";
        let opts = LintOptions {
            max_null_depth: 1,
            max_skolem_fanout: 1,
            ..LintOptions::default()
        };
        let diags = lint_source(&mut syms, src, &opts);
        assert!(codes(&diags).contains(&NULL_DEPTH), "{diags:?}");
        assert!(codes(&diags).contains(&SKOLEM_FANOUT), "{diags:?}");
        let relaxed = lint(src);
        assert!(!codes(&relaxed).contains(&SKOLEM_FANOUT), "{relaxed:?}");
    }

    #[test]
    fn diagnostics_are_ordered_by_position() {
        let diags = lint("forall x,z (S(x) -> R(x))\nS(q -> R(q)\n");
        let stmts: Vec<_> = diags.iter().map(|d| d.statement).collect();
        let mut sorted = stmts.clone();
        sorted.sort();
        assert_eq!(stmts, sorted);
    }

    #[test]
    fn alpha_equivalent_duplicate_is_subsumed_both_directions() {
        // IMPLIES holds in both directions; only the later statement is
        // flagged, as "equivalent to" its subsumer.
        let diags = lint("S(x) -> exists y R(x,y)\nS(u) -> exists v R(u,v)\nfact: S(a)\n");
        let subs: Vec<_> = diags.iter().filter(|d| d.code == SUBSUMED).collect();
        assert_eq!(subs.len(), 1, "{diags:?}");
        assert_eq!(subs[0].statement, Some(1));
        assert_eq!(subs[0].severity, Severity::Warning);
        assert!(subs[0].message.contains("equivalent to statement 0"));
    }

    #[test]
    fn one_directional_subsumption_flags_the_weaker_statement() {
        // Statement 1 asks for *some* pair in R with first component x;
        // statement 0 already delivers one. The converse fails.
        let diags = lint("S(x) -> R(x,x)\nS(u) -> exists v R(u,v)\n");
        let subs: Vec<_> = diags.iter().filter(|d| d.code == SUBSUMED).collect();
        assert_eq!(subs.len(), 1, "{diags:?}");
        assert_eq!(subs[0].statement, Some(1));
        assert!(subs[0].message.contains("subsumed by statement 0"));
    }

    #[test]
    fn subsumption_pass_is_gated_by_program_size() {
        let opts = LintOptions {
            max_subsumption_tgds: 1,
            ..LintOptions::default()
        };
        let mut syms = SymbolTable::new();
        let diags = lint_source(
            &mut syms,
            "S(x) -> exists y R(x,y)\nS(u) -> exists v R(u,v)\n",
            &opts,
        );
        assert!(!codes(&diags).contains(&SUBSUMED), "{diags:?}");
    }

    #[test]
    fn relation_roles_are_reported_as_info() {
        let diags = lint("S(x) -> R(x)\nfact: T(a)\n");
        // R is written but never read; S is read but never written; T
        // (fact only) is written but never read.
        let write_only: Vec<_> = diags.iter().filter(|d| d.code == WRITE_ONLY).collect();
        let read_only: Vec<_> = diags.iter().filter(|d| d.code == READ_ONLY).collect();
        assert_eq!(write_only.len(), 2, "{diags:?}");
        assert_eq!(read_only.len(), 1, "{diags:?}");
        assert!(write_only.iter().all(|d| d.severity == Severity::Info));
        assert!(read_only[0].message.contains("relation S"));
    }

    #[test]
    fn self_interference_and_schedule_width_are_reported() {
        let diags = lint("E(x,y) & E(y,z) -> E(x,z)\nS(x) -> R(x)\n");
        let d = diags
            .iter()
            .find(|d| d.code == SELF_INTERFERING)
            .expect("NDL033");
        assert_eq!(d.statement, Some(0));
        assert_eq!(d.severity, Severity::Info);
        let w = diags
            .iter()
            .find(|d| d.code == SCHEDULE_WIDTH)
            .expect("NDL034");
        assert!(w.message.contains("2 statement(s) in 2 stage(s), width 1"));
    }

    #[test]
    fn dead_code_lints_fire_on_fact_bearing_programs() {
        // Z is unpopulated: statement 1 is dead (NDL040); D is written
        // only by it and read by statement 2, so D is an unreachable
        // read (NDL041) and statement 2 is dead too. V's facts are never
        // read (NDL042) and S's second column is ignored (NDL043).
        let diags = lint("fact: S(a,b)\nZ(x) -> D(x)\nD(x) -> E(x)\nS(x,y) -> T(x)\nfact: V(c)\n");
        let dead: Vec<_> = diags.iter().filter(|d| d.code == DEAD_STATEMENT).collect();
        assert_eq!(dead.len(), 2, "{diags:?}");
        assert_eq!(dead[0].statement, Some(1));
        assert_eq!(dead[1].statement, Some(2));
        assert!(dead.iter().all(|d| d.severity == Severity::Warning));
        assert!(dead[0].span.is_some());
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.code == UNREACHABLE_READ)
            .collect();
        assert_eq!(unreachable.len(), 1, "{diags:?}");
        assert!(unreachable[0].message.contains("relation D"));
        let unused: Vec<_> = diags.iter().filter(|d| d.code == UNUSED_SOURCE).collect();
        assert_eq!(unused.len(), 1, "{diags:?}");
        assert!(unused[0].message.contains("relation V"));
        let cols: Vec<_> = diags
            .iter()
            .filter(|d| d.code == UNUSED_SOURCE_COLUMN)
            .collect();
        assert_eq!(cols.len(), 1, "{diags:?}");
        assert!(cols[0].message.contains("S.2"), "{}", cols[0].message);
        assert_eq!(cols[0].severity, Severity::Info);
    }

    #[test]
    fn dataflow_liveness_lints_are_silent_without_facts() {
        // The same shape minus the facts: sources are assumed, so no
        // NDL040–NDL044 — the assumption, not the program, would be at
        // fault.
        let diags = lint("Z(x) -> D(x)\nD(x) -> E(x)\nS(x,y) -> T(x)\n");
        for code in [
            DEAD_STATEMENT,
            UNREACHABLE_READ,
            UNUSED_SOURCE,
            UNUSED_SOURCE_COLUMN,
            GROUND_RELATIONS,
        ] {
            assert!(!codes(&diags).contains(&code), "{code}: {diags:?}");
        }
    }

    #[test]
    fn ground_relations_are_reported_for_derived_relations_only() {
        // T and U are derived and null-free; R holds Skolem nulls; the
        // fact-only relation S must not pad the report.
        let diags = lint("fact: S(a)\nS(x) -> T(x)\nT(x) -> U(x)\nS(x) -> exists y R(x,y)\n");
        let d = diags
            .iter()
            .find(|d| d.code == GROUND_RELATIONS)
            .expect("NDL044");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("T, U"), "{}", d.message);
        assert!(!d.message.contains("R"), "{}", d.message);
        assert!(!d.message.contains("S,"), "{}", d.message);
    }

    #[test]
    fn provenance_fan_in_report_is_threshold_gated() {
        // Eight source relations all feed T.1.
        let mut src = String::new();
        let mut wide = String::new();
        for i in 0..8 {
            src.push_str(&format!("fact: S{i}(a)\n"));
            wide.push_str(&format!("S{i}(x) -> T(x)\n"));
        }
        let mut syms = SymbolTable::new();
        let diags = lint_source(&mut syms, &format!("{src}{wide}"), &LintOptions::default());
        let d = diags
            .iter()
            .find(|d| d.code == PROVENANCE_FAN_IN)
            .expect("NDL045");
        assert!(d.message.contains("T.1"), "{}", d.message);
        assert!(d.message.contains("fan-in 8"), "{}", d.message);
        // A higher threshold silences it.
        let opts = LintOptions {
            max_provenance_fan_in: 9,
            ..LintOptions::default()
        };
        let mut syms = SymbolTable::new();
        let relaxed = lint_source(&mut syms, &format!("{src}{wide}"), &opts);
        assert!(!codes(&relaxed).contains(&PROVENANCE_FAN_IN), "{relaxed:?}");
    }

    #[test]
    fn single_statement_program_has_no_schedule_report() {
        let diags = lint("S(x) -> R(x)\n");
        assert!(!codes(&diags).contains(&SCHEDULE_WIDTH));
        assert!(!codes(&diags).contains(&SUBSUMED));
    }
}
