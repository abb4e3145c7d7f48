//! Whole-mapping dataflow analysis: which values can flow where through a
//! nested-dependency program.
//!
//! Four fixpoints over the shared [`crate::footprint`] vocabulary:
//!
//! - **relation reachability** — starting from the populated *source*
//!   relations, a clause whose body relations are all reachable marks its
//!   head relations reachable (the abstraction of "can ever hold a
//!   fact");
//! - **statement liveness** — a statement is *dead* when every one of its
//!   clauses reads some unreachable relation: no chase, on any source
//!   instance drawn from the populated relations, can ever fire it;
//! - **groundness** — a relation is *nullable* when some firing clause
//!   can place a Skolem term (directly, or a variable bound only at
//!   nullable relations) into it; everything else is provably
//!   **null-free**, so homomorphism and core machinery need not inspect
//!   it for nulls;
//! - **position provenance** — per target position, the set of source
//!   positions whose values and Skolem functions whose nulls can reach it
//!   through the firing clauses (the position-level refinement of
//!   reachability, mirroring the canonical-instance reachability
//!   arguments of Calì–Torlone).
//!
//! Source relations are the relations populated by `fact:` statements.
//! A program with no facts is analyzed in **assumed-sources** mode: every
//! relation that is read but never written is assumed populated. Both
//! choices are *supersets* of what any actual chase run can see (a fact
//! populates exactly its relation; an empty source populates nothing), and
//! every fixpoint here is monotone in the source set — so the dead and
//! ground sets claimed by this analysis are always subsets of what the
//! chase engines can prove from the real source instance. That is what
//! makes the [`ndl_chase::DataflowCert`] derived from this pass (see
//! [`crate::cost::ChaseAnalysis::tgd_plan`]) verifiable in the
//! certificate-not-trusted style: the engines recompute both sets against
//! the instance they were actually given and refuse certificates that
//! claim too much.
//!
//! Surfaced as the NDL040–NDL045 lints, the [`DataflowSummary`] of
//! `ndl analyze --dataflow [--json]`, and `--dot=dataflow`.

use crate::footprint::{collect_funcs, ProgramFootprints};
use crate::graph::{scc_ids, PosId, ProgramGraphs};
use crate::program::{Statement, StmtAst};
use ndl_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Position-level provenance: what can reach one position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Source positions whose values can be copied here (a source
    /// position reaches itself).
    pub sources: BTreeSet<PosId>,
    /// Skolem functions whose invented nulls can land here.
    pub funcs: BTreeSet<FuncId>,
}

impl Provenance {
    /// Total fan-in: distinct source positions plus distinct Skolem
    /// functions reaching the position.
    pub fn fan_in(&self) -> usize {
        self.sources.len() + self.funcs.len()
    }
}

/// The whole-mapping dataflow analysis (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct DataflowAnalysis {
    /// The populated source relations the fixpoints start from.
    pub sources: BTreeSet<RelId>,
    /// `true` when the program has no `fact:` statements and the sources
    /// are *assumed*: every relation read but never written.
    pub assumed_sources: bool,
    /// Relations that can hold a fact in some chase from the sources.
    pub reachable: BTreeSet<RelId>,
    /// Dead statements: every clause reads some unreachable relation.
    pub dead: BTreeSet<usize>,
    /// Live scheduled statements (the complement of `dead` within the
    /// scheduled set).
    pub live: BTreeSet<usize>,
    /// Relations that are read and written somewhere, yet unreachable —
    /// all their writers are dead or never fire (NDL041).
    pub unwritten_reads: BTreeSet<RelId>,
    /// Source relations no firing clause and no egd ever reads (NDL042).
    pub unused_sources: BTreeSet<RelId>,
    /// `(relation, 0-based column)` of source columns whose value is
    /// never used: in every firing clause and egd reading the relation,
    /// the variable at that column occurs nowhere else (NDL043).
    pub unused_source_columns: BTreeSet<(RelId, usize)>,
    /// Relations some reachable derivation can place a null into.
    pub nullable: BTreeSet<RelId>,
    /// Provably null-free relations: every relation mentioned by the
    /// program that is not `nullable` (unreachable relations are
    /// vacuously ground — they stay empty).
    pub ground: BTreeSet<RelId>,
    /// Per-position provenance, indexed by [`PosId`] of the position
    /// graph. Flows are taken from *firing* clauses only.
    pub provenance: Vec<Provenance>,
}

impl DataflowAnalysis {
    /// Runs the dataflow fixpoints. `graphs` supplies the Skolemized
    /// clauses and the position vocabulary; `stmts` supplies facts (the
    /// sources) and egds (extra readers); `fps` are the program's
    /// footprints, shared with the interference pass.
    pub fn of(
        graphs: &ProgramGraphs,
        stmts: &[Statement],
        fps: &ProgramFootprints,
    ) -> DataflowAnalysis {
        let mut a = DataflowAnalysis::default();

        // Sources: fact-populated relations, or (assumed mode) the
        // relations read but never written.
        let mut read: BTreeSet<RelId> = BTreeSet::new();
        let mut written: BTreeSet<RelId> = fps.fact_relations.clone();
        for fp in fps.footprints.values() {
            read.extend(fp.reads.iter().copied());
            written.extend(fp.writes.iter().copied());
        }
        if fps.fact_relations.is_empty() {
            a.assumed_sources = true;
            a.sources = read.difference(&written).copied().collect();
        } else {
            a.sources = fps.fact_relations.clone();
        }

        // Relation reachability: a clause whose body is reachable marks
        // its heads reachable.
        a.reachable = a.sources.clone();
        loop {
            let mut changed = false;
            for cv in &graphs.clauses {
                if cv.clause.body.iter().all(|b| a.reachable.contains(&b.rel)) {
                    for ta in &cv.clause.head {
                        changed |= a.reachable.insert(ta.rel);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let firing: Vec<bool> = graphs
            .clauses
            .iter()
            .map(|cv| cv.clause.body.iter().all(|b| a.reachable.contains(&b.rel)))
            .collect();

        // Statement liveness: dead iff *every* clause fails to fire.
        let alive: BTreeSet<usize> = graphs
            .clauses
            .iter()
            .zip(&firing)
            .filter_map(|(cv, &f)| f.then_some(cv.stmt))
            .collect();
        for &s in &fps.scheduled {
            if alive.contains(&s) {
                a.live.insert(s);
            } else {
                a.dead.insert(s);
            }
        }

        // Groundness: nullable relations, over firing clauses only. A
        // head argument introduces a null when it is a Skolem term, or a
        // variable all of whose body bindings come from nullable
        // relations (a join binds the variable at *every* occurrence, so
        // one null-free occurrence grounds it).
        loop {
            let mut changed = false;
            for (cv, &fires) in graphs.clauses.iter().zip(&firing) {
                if !fires {
                    continue;
                }
                for ta in &cv.clause.head {
                    if a.nullable.contains(&ta.rel) {
                        continue;
                    }
                    let introduces = ta.args.iter().any(|t| match t {
                        Term::App(..) => true,
                        Term::Var(v) => {
                            let mut any = false;
                            let all_nullable = cv
                                .clause
                                .body
                                .iter()
                                .filter(|b| b.args.contains(v))
                                .all(|b| {
                                    any = true;
                                    a.nullable.contains(&b.rel)
                                });
                            !any || all_nullable
                        }
                    });
                    if introduces {
                        a.nullable.insert(ta.rel);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mentioned: BTreeSet<RelId> = a
            .sources
            .iter()
            .chain(read.iter())
            .chain(written.iter())
            .copied()
            .collect();
        a.ground = mentioned.difference(&a.nullable).copied().collect();

        // NDL041: read somewhere, written somewhere, still unreachable —
        // every writer is dead or never fires.
        a.unwritten_reads = read
            .intersection(&written)
            .filter(|r| !a.reachable.contains(r))
            .copied()
            .collect();

        // NDL042/NDL043: what the live program actually consumes.
        let mut live_read: BTreeSet<RelId> = BTreeSet::new();
        for (cv, &fires) in graphs.clauses.iter().zip(&firing) {
            if fires {
                live_read.extend(cv.clause.body.iter().map(|b| b.rel));
            }
        }
        for stmt in stmts {
            if let Some(StmtAst::Egd(e)) = &stmt.ast {
                live_read.extend(e.body.iter().map(|b| b.rel));
            }
        }
        a.unused_sources = a.sources.difference(&live_read).copied().collect();
        a.unused_source_columns = unused_source_columns(graphs, stmts, &a.sources, &firing);

        a.provenance = provenance(graphs, &a.sources, &firing);
        a
    }

    /// The serializable report of `ndl analyze --dataflow`.
    pub fn summary(&self, syms: &SymbolTable, graphs: &ProgramGraphs) -> DataflowSummary {
        let names = |rels: &BTreeSet<RelId>| -> Vec<String> {
            let mut v: Vec<String> = rels.iter().map(|&r| syms.rel_name(r).to_string()).collect();
            v.sort();
            v
        };
        let mentioned: BTreeSet<RelId> = self
            .reachable
            .iter()
            .chain(self.nullable.iter())
            .chain(self.ground.iter())
            .copied()
            .collect();
        let unreachable: BTreeSet<RelId> = mentioned.difference(&self.reachable).copied().collect();
        DataflowSummary {
            assumed_sources: self.assumed_sources,
            sources: names(&self.sources),
            reachable: names(&self.reachable),
            unreachable: names(&unreachable),
            dead_statements: self.dead.iter().copied().collect(),
            live_statements: self.live.iter().copied().collect(),
            ground: names(&self.ground),
            nullable: names(&self.nullable),
            unwritten_reads: names(&self.unwritten_reads),
            unused_sources: names(&self.unused_sources),
            unused_source_columns: self
                .unused_source_columns
                .iter()
                .map(|&(r, i)| format!("{}.{}", syms.rel_name(r), i + 1))
                .collect(),
            provenance: self
                .provenance
                .iter()
                .enumerate()
                .filter(|(_, p)| p.fan_in() > 0)
                .map(|(q, p)| ProvenanceReport {
                    position: graphs.positions.display_pos(syms, q),
                    sources: p
                        .sources
                        .iter()
                        .map(|&s| graphs.positions.display_pos(syms, s))
                        .collect(),
                    functions: p
                        .funcs
                        .iter()
                        .map(|&f| syms.func_name(f).to_string())
                        .collect(),
                    fan_in: p.fan_in(),
                })
                .collect(),
        }
    }

    /// Graphviz DOT rendering of the relation-level dataflow graph
    /// (`ndl analyze --dot=dataflow`): one node per relation (sources
    /// filled, unreachable relations dashed gray, ground relations
    /// annotated), one edge per body-to-head flow, dead flows dashed.
    pub fn to_dot(&self, syms: &SymbolTable, graphs: &ProgramGraphs) -> String {
        let mut rels: BTreeSet<RelId> = self.sources.iter().copied().collect();
        let firing: Vec<bool> = graphs
            .clauses
            .iter()
            .map(|cv| {
                cv.clause
                    .body
                    .iter()
                    .all(|b| self.reachable.contains(&b.rel))
            })
            .collect();
        // flow (from, to) → (statements, any contributing clause fires,
        // Skolem functions the flow can invent nulls through)
        type FlowEdge = (BTreeSet<usize>, bool, BTreeSet<FuncId>);
        let mut flows: BTreeMap<(RelId, RelId), FlowEdge> = BTreeMap::new();
        for (cv, &fires) in graphs.clauses.iter().zip(&firing) {
            for b in &cv.clause.body {
                rels.insert(b.rel);
                for ta in &cv.clause.head {
                    rels.insert(ta.rel);
                    let entry = flows.entry((b.rel, ta.rel)).or_default();
                    entry.0.insert(cv.stmt);
                    entry.1 |= fires;
                    for t in &ta.args {
                        collect_funcs(t, &mut entry.2);
                    }
                }
            }
        }
        let mut out = String::from("digraph dataflow {\n  rankdir=LR;\n  node [shape=box];\n");
        for &r in &rels {
            let name = syms.rel_name(r);
            let mut attrs = Vec::new();
            let label = if self.ground.contains(&r) {
                format!("{name}\\n(ground)")
            } else {
                name.to_string()
            };
            attrs.push(format!("label=\"{label}\""));
            if self.sources.contains(&r) {
                attrs.push("style=filled".to_string());
                attrs.push("fillcolor=lightsteelblue".to_string());
            } else if !self.reachable.contains(&r) {
                attrs.push("style=dashed".to_string());
                attrs.push("color=gray50".to_string());
                attrs.push("fontcolor=gray50".to_string());
            }
            out.push_str(&format!("  \"{}\" [{}];\n", name, attrs.join(", ")));
        }
        for (&(from, to), (stmts, live, funcs)) in &flows {
            let mut label: Vec<String> = stmts.iter().map(|s| format!("s{s}")).collect();
            label.extend(funcs.iter().map(|&f| format!("{}()", syms.func_name(f))));
            let style = if *live {
                String::new()
            } else {
                ", style=dashed, color=gray50, fontcolor=gray50".to_string()
            };
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"{}];\n",
                syms.rel_name(from),
                syms.rel_name(to),
                label.join("\\n"),
                style
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Source columns whose value is never consumed (NDL043): for every
/// firing clause and every egd with a body atom over the source relation,
/// the variable at the column occurs nowhere else in the statement.
fn unused_source_columns(
    graphs: &ProgramGraphs,
    stmts: &[Statement],
    sources: &BTreeSet<RelId>,
    firing: &[bool],
) -> BTreeSet<(RelId, usize)> {
    // (relation, column) → was any occurrence used?
    let mut seen: BTreeMap<(RelId, usize), bool> = BTreeMap::new();
    for (cv, &fires) in graphs.clauses.iter().zip(firing) {
        if !fires {
            continue;
        }
        let c = &cv.clause;
        let mut head_vars: BTreeSet<VarId> = BTreeSet::new();
        let mut funcs = BTreeSet::new();
        for ta in &c.head {
            for t in &ta.args {
                collect_vars(t, &mut head_vars);
                collect_funcs(t, &mut funcs);
            }
        }
        for (l, r) in &c.equalities {
            collect_vars(l, &mut head_vars);
            collect_vars(r, &mut head_vars);
        }
        for (ai, atom) in c.body.iter().enumerate() {
            if !sources.contains(&atom.rel) {
                continue;
            }
            for (i, &v) in atom.args.iter().enumerate() {
                let body_occurrences: usize = c
                    .body
                    .iter()
                    .enumerate()
                    .map(|(bi, b)| {
                        b.args
                            .iter()
                            .enumerate()
                            .filter(|&(j, &w)| w == v && (bi != ai || j != i))
                            .count()
                    })
                    .sum();
                let used = body_occurrences > 0 || head_vars.contains(&v);
                *seen.entry((atom.rel, i)).or_insert(false) |= used;
            }
        }
    }
    for stmt in stmts {
        let Some(StmtAst::Egd(e)) = &stmt.ast else {
            continue;
        };
        for (ai, atom) in e.body.iter().enumerate() {
            if !sources.contains(&atom.rel) {
                continue;
            }
            for (i, &v) in atom.args.iter().enumerate() {
                let elsewhere = e.body.iter().enumerate().any(|(bi, b)| {
                    b.args
                        .iter()
                        .enumerate()
                        .any(|(j, &w)| w == v && (bi != ai || j != i))
                });
                let used = elsewhere || e.eq.0 == v || e.eq.1 == v;
                *seen.entry((atom.rel, i)).or_insert(false) |= used;
            }
        }
    }
    seen.into_iter()
        .filter_map(|(col, used)| (!used).then_some(col))
        .collect()
}

/// Position provenance over the firing clauses: source positions reach
/// themselves; a head variable receives the provenance of every body
/// position binding it; a Skolem head term deposits its functions (the
/// invented null hides its arguments' values, so only the functions
/// propagate onward).
fn provenance(
    graphs: &ProgramGraphs,
    sources: &BTreeSet<RelId>,
    firing: &[bool],
) -> Vec<Provenance> {
    let pg = &graphs.positions;
    let ids: BTreeMap<(RelId, usize), PosId> = pg
        .positions
        .iter()
        .enumerate()
        .map(|(i, &rp)| (rp, i))
        .collect();
    let mut prov: Vec<Provenance> = vec![Provenance::default(); pg.positions.len()];
    for (p, &(rel, _)) in pg.positions.iter().enumerate() {
        if sources.contains(&rel) {
            prov[p].sources.insert(p);
        }
    }
    // Copy flows (from-position, to-position) of the firing clauses.
    let mut copies: BTreeSet<(PosId, PosId)> = BTreeSet::new();
    for (cv, &fires) in graphs.clauses.iter().zip(firing) {
        if !fires {
            continue;
        }
        let c = &cv.clause;
        let mut body_pos: BTreeMap<VarId, BTreeSet<PosId>> = BTreeMap::new();
        for b in &c.body {
            for (i, &v) in b.args.iter().enumerate() {
                if let Some(&p) = ids.get(&(b.rel, i)) {
                    body_pos.entry(v).or_default().insert(p);
                }
            }
        }
        for ta in &c.head {
            for (i, t) in ta.args.iter().enumerate() {
                let Some(&q) = ids.get(&(ta.rel, i)) else {
                    continue;
                };
                match t {
                    Term::Var(x) => {
                        for &p in body_pos.get(x).into_iter().flatten() {
                            copies.insert((p, q));
                        }
                    }
                    t @ Term::App(..) => {
                        collect_funcs(t, &mut prov[q].funcs);
                    }
                }
            }
        }
    }
    // The least fixpoint of `prov[q] ⊇ prov[p]` over the copy edges,
    // solved once per strongly connected component: every position of a
    // component reaches every other, so all share one set — the union of
    // their own seeds and of the sets of the components copying into
    // them. Component ids are topologically ordered, so predecessors are
    // final when a component is visited.
    let n = prov.len();
    let mut fwd: Vec<Vec<PosId>> = vec![Vec::new(); n];
    let mut back: Vec<Vec<PosId>> = vec![Vec::new(); n];
    for &(p, q) in copies.iter().filter(|(p, q)| p != q) {
        fwd[p].push(q);
        back[q].push(p);
    }
    let comp = scc_ids(&fwd);
    let ncomp = comp.iter().map(|&c| c + 1).max().unwrap_or(0);
    let mut members: Vec<Vec<PosId>> = vec![Vec::new(); ncomp];
    for (p, &c) in comp.iter().enumerate() {
        members[c].push(p);
    }
    // Sorted, deduplicated vectors while solving: a union is one
    // sort of the concatenation rather than a set insert per element.
    let mut solved: Vec<(Vec<PosId>, Vec<FuncId>)> = Vec::with_capacity(ncomp);
    let mut preds: Vec<usize> = Vec::new();
    for (c, ps) in members.iter().enumerate() {
        let (mut sources, mut funcs) = (Vec::new(), Vec::new());
        preds.clear();
        for &q in ps {
            sources.extend(prov[q].sources.iter().copied());
            funcs.extend(prov[q].funcs.iter().copied());
            preds.extend(back[q].iter().map(|&p| comp[p]).filter(|&d| d != c));
        }
        preds.sort_unstable();
        preds.dedup();
        for &d in &preds {
            sources.extend_from_slice(&solved[d].0);
            funcs.extend_from_slice(&solved[d].1);
        }
        sources.sort_unstable();
        sources.dedup();
        funcs.sort_unstable();
        funcs.dedup();
        solved.push((sources, funcs));
    }
    for (p, slot) in prov.iter_mut().enumerate() {
        let (sources, funcs) = &solved[comp[p]];
        *slot = Provenance {
            sources: sources.iter().copied().collect(),
            funcs: funcs.iter().copied().collect(),
        };
    }
    prov
}

fn collect_vars(t: &Term, out: &mut BTreeSet<VarId>) {
    match t {
        Term::Var(v) => {
            out.insert(*v);
        }
        Term::App(_, args) => {
            for a in args {
                collect_vars(a, out);
            }
        }
    }
}

/// Provenance of one position in the [`DataflowSummary`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceReport {
    /// The position, rendered `R.i` (1-based).
    pub position: String,
    /// Source positions reaching it.
    pub sources: Vec<String>,
    /// Skolem functions reaching it.
    pub functions: Vec<String>,
    /// `sources.len() + functions.len()`.
    pub fan_in: usize,
}

/// The serializable dataflow report of `ndl analyze --dataflow [--json]`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataflowSummary {
    /// Were the sources assumed (no `fact:` statements)?
    pub assumed_sources: bool,
    /// Source relation names, sorted.
    pub sources: Vec<String>,
    /// Reachable relation names, sorted.
    pub reachable: Vec<String>,
    /// Mentioned-but-unreachable relation names, sorted.
    pub unreachable: Vec<String>,
    /// Dead statement indices (0-based).
    pub dead_statements: Vec<usize>,
    /// Live scheduled statement indices (0-based).
    pub live_statements: Vec<usize>,
    /// Provably null-free relation names, sorted.
    pub ground: Vec<String>,
    /// Possibly-null-carrying relation names, sorted.
    pub nullable: Vec<String>,
    /// Read-and-written yet unreachable relation names (NDL041).
    pub unwritten_reads: Vec<String>,
    /// Source relations nothing live reads (NDL042).
    pub unused_sources: Vec<String>,
    /// Unused source columns, rendered `R.i` (NDL043).
    pub unused_source_columns: Vec<String>,
    /// Per-position provenance (positions with nonzero fan-in only).
    pub provenance: Vec<ProvenanceReport>,
}

impl DataflowSummary {
    /// Pretty-printed JSON with a trailing newline (diff-friendly, like
    /// the other `ndl analyze` reports).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("reports serialize infallibly");
        s.push('\n');
        s
    }

    /// Parses a summary back from [`DataflowSummary::to_json`] output.
    pub fn from_json(text: &str) -> std::result::Result<DataflowSummary, serde::Error> {
        serde_json::from_str(text)
    }

    /// Human-readable rendering (the default `--dataflow` output).
    pub fn render(&self) -> String {
        let list = |v: &[String]| -> String {
            if v.is_empty() {
                "(none)".to_string()
            } else {
                v.join(", ")
            }
        };
        let stmts = |v: &[usize]| -> String {
            if v.is_empty() {
                "(none)".to_string()
            } else {
                v.iter()
                    .map(|s| format!("s{s}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        let mut out = String::new();
        let assumed = if self.assumed_sources {
            " (assumed)"
        } else {
            ""
        };
        out.push_str(&format!("sources{}: {}\n", assumed, list(&self.sources)));
        out.push_str(&format!("reachable: {}\n", list(&self.reachable)));
        out.push_str(&format!("unreachable: {}\n", list(&self.unreachable)));
        out.push_str(&format!(
            "dead statements: {}\n",
            stmts(&self.dead_statements)
        ));
        out.push_str(&format!(
            "live statements: {}\n",
            stmts(&self.live_statements)
        ));
        out.push_str(&format!("ground: {}\n", list(&self.ground)));
        out.push_str(&format!("nullable: {}\n", list(&self.nullable)));
        out.push_str(&format!(
            "unwritten reads: {}\n",
            list(&self.unwritten_reads)
        ));
        out.push_str(&format!("unused sources: {}\n", list(&self.unused_sources)));
        out.push_str(&format!(
            "unused source columns: {}\n",
            list(&self.unused_source_columns)
        ));
        out.push_str("provenance:\n");
        for p in &self.provenance {
            let mut from: Vec<String> = p.sources.clone();
            from.extend(p.functions.iter().map(|f| format!("{f}()")));
            out.push_str(&format!(
                "  {} <- {} (fan-in {})\n",
                p.position,
                from.join(", "),
                p.fan_in
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parse_program;

    fn dataflow(src: &str) -> (SymbolTable, ProgramGraphs, DataflowAnalysis) {
        let mut syms = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut syms, src);
        assert!(errs.is_empty(), "{errs:?}");
        let graphs = ProgramGraphs::build(&mut syms, &stmts);
        let a = DataflowAnalysis::of(&graphs, &stmts, &ProgramFootprints::of(&graphs, &stmts));
        (syms, graphs, a)
    }

    fn rel(syms: &SymbolTable, name: &str) -> RelId {
        syms.find_rel(name).unwrap()
    }

    #[test]
    fn reachability_follows_write_chains() {
        let (syms, _, a) = dataflow("fact: S(a)\nS(x) -> T(x)\nT(x) -> U(x)\nZ(x) -> W(x)\n");
        assert!(!a.assumed_sources);
        assert_eq!(a.sources, BTreeSet::from([rel(&syms, "S")]));
        for r in ["S", "T", "U"] {
            assert!(a.reachable.contains(&rel(&syms, r)), "{r} reachable");
        }
        for r in ["Z", "W"] {
            assert!(!a.reachable.contains(&rel(&syms, r)), "{r} unreachable");
        }
        // Statement 3 reads Z, which nothing populates.
        assert_eq!(a.dead, BTreeSet::from([3]));
        assert_eq!(a.live, BTreeSet::from([1, 2]));
        assert!(a.unwritten_reads.is_empty());
    }

    #[test]
    fn dead_chains_propagate() {
        let (syms, _, a) = dataflow("fact: S(a)\nZ(x) -> D(x)\nD(x) -> E(x)\nS(x) -> T(x)\n");
        // Statement 1 is dead (Z unpopulated); D is written only by it,
        // so statement 2 is transitively dead and D is an unwritten read.
        assert_eq!(a.dead, BTreeSet::from([1, 2]));
        assert_eq!(a.unwritten_reads, BTreeSet::from([rel(&syms, "D")]));
    }

    #[test]
    fn groundness_tracks_null_introduction_and_copying() {
        let (syms, _, a) =
            dataflow("fact: S(a)\nS(x) -> exists y R(x,y)\nS(x) -> T(x)\nR(x,y) -> P(y)\n");
        assert_eq!(
            a.nullable,
            BTreeSet::from([rel(&syms, "R"), rel(&syms, "P")])
        );
        assert!(a.ground.contains(&rel(&syms, "S")));
        assert!(a.ground.contains(&rel(&syms, "T")));
    }

    #[test]
    fn join_with_ground_relation_grounds_the_variable() {
        // y is bound at both R.2 (nullable) and G.1 (ground): the join
        // can only produce ground values for y, so Q stays ground.
        let (syms, _, a) =
            dataflow("fact: S(a)\nfact: G(a)\nS(x) -> exists y R(x,y)\nR(x,y) & G(y) -> Q(y)\n");
        assert!(a.nullable.contains(&rel(&syms, "R")));
        assert!(a.ground.contains(&rel(&syms, "Q")));
    }

    #[test]
    fn unreachable_relations_are_vacuously_ground() {
        let (syms, _, a) = dataflow("fact: S(a)\nZ(x) -> exists y W(x,y)\n");
        assert!(a.ground.contains(&rel(&syms, "W")));
        assert!(a.ground.contains(&rel(&syms, "Z")));
    }

    #[test]
    fn assumed_sources_without_facts() {
        let (syms, _, a) = dataflow("S(x) -> T(x)\nT(x) -> U(x)\n");
        assert!(a.assumed_sources);
        assert_eq!(a.sources, BTreeSet::from([rel(&syms, "S")]));
        assert!(a.dead.is_empty());
        assert_eq!(a.live, BTreeSet::from([0, 1]));
    }

    #[test]
    fn unused_sources_and_columns() {
        let (syms, _, a) = dataflow("fact: S(a, b)\nfact: V(a)\nS(x,y) -> T(x)\n");
        assert_eq!(a.unused_sources, BTreeSet::from([rel(&syms, "V")]));
        assert_eq!(
            a.unused_source_columns,
            BTreeSet::from([(rel(&syms, "S"), 1)])
        );
    }

    #[test]
    fn joined_and_equated_columns_are_used() {
        let src = "fact: S(a, b)\negd: S(x,y) & S(x,z) -> y = z\nS(x,y) -> T(x)\n";
        let (_syms, _, a) = dataflow(src);
        // Column 1 joins the egd atoms; column 2 is equated.
        assert!(a.unused_source_columns.is_empty());
    }

    #[test]
    fn provenance_reaches_through_copies_and_funcs() {
        let (syms, graphs, a) = dataflow("fact: S(a)\nS(x) -> exists y R(x,y)\nR(x,y) -> T(y)\n");
        let pos = |name: &str, i: usize| -> PosId {
            let r = rel(&syms, name);
            graphs
                .positions
                .positions
                .iter()
                .position(|&p| p == (r, i))
                .unwrap()
        };
        // R.1 copies S.1; R.2 holds the Skolem null; T.1 copies R.2.
        assert_eq!(
            a.provenance[pos("R", 0)].sources,
            BTreeSet::from([pos("S", 0)])
        );
        assert_eq!(a.provenance[pos("R", 1)].funcs.len(), 1);
        assert_eq!(
            a.provenance[pos("T", 0)].funcs,
            a.provenance[pos("R", 1)].funcs
        );
        assert!(a.provenance[pos("T", 0)].sources.is_empty());
    }

    #[test]
    fn dead_clause_flows_are_excluded_from_provenance() {
        // Statement 1 is dead (Z unpopulated): its S.1 -> T.1 copy must
        // not contribute provenance, but statement 2's U.1 -> T.1 does.
        let (syms, graphs, a) =
            dataflow("fact: S(a)\nfact: U(a)\nZ(x) & S(x) -> T(x)\nU(x) -> T(x)\n");
        let pos = |name: &str, i: usize| -> PosId {
            let r = rel(&syms, name);
            graphs
                .positions
                .positions
                .iter()
                .position(|&p| p == (r, i))
                .unwrap()
        };
        assert_eq!(
            a.provenance[pos("T", 0)].sources,
            BTreeSet::from([pos("U", 0)])
        );
    }

    #[test]
    fn summary_round_trips_and_renders() {
        let (syms, graphs, a) = dataflow("fact: S(a)\nS(x) -> exists y R(x,y)\nZ(x) -> W(x)\n");
        let s = a.summary(&syms, &graphs);
        assert!(s.to_json().ends_with('\n'));
        let back = DataflowSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        let text = s.render();
        assert!(text.contains("sources: S"));
        assert!(text.contains("dead statements: s2"));
        let dot = a.to_dot(&syms, &graphs);
        assert!(dot.starts_with("digraph dataflow {"));
        assert!(dot.contains("\"S\" ["));
        assert!(dot.contains("style=dashed"));
    }
}
