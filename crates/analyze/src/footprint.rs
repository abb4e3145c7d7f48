//! Per-statement footprints: what each statement of a program reads,
//! writes, and which Skolem functions it invents nulls through.
//!
//! Footprints are the shared vocabulary of the whole-program passes:
//! the firing order follows producer-to-consumer relations through them,
//! [`crate::interference`] builds the statement conflict graph from them
//! (which pairs may fire in parallel within a round), and
//! [`crate::dataflow`] runs the reachability/liveness/groundness fixpoints
//! over them (which statements can ever fire at all). The analysis
//! computes them once and shares the one map, which keeps the passes
//! byte-for-byte agreed on what a statement touches.
//!
//! Footprints deliberately mirror `ndl_chase::parallel::StmtFootprint`:
//! reads are body relations, writes are head relations, and the Skolem
//! set contains the functions *occurring* in clause heads and equality
//! gates (a declared-but-unused function invents nothing and so cannot
//! conflict). The chase engine re-derives footprints itself when checking
//! a schedule certificate, so the two computations must agree — the
//! round-trip is pinned by tests in `crates/chase/tests/`.
//!
//! Beyond tgds, the pass also folds in the passive statements: ground
//! facts count as writers of their relation and egd bodies as readers.
//! They never enter the schedule (facts load before round 1, egds are not
//! chased by the fixpoint engine), but they complete the whole-program
//! read/write picture behind the NDL031/NDL032 relation-role lints and
//! the dataflow reachability fixpoint. A fact writes exactly its one
//! relation and nothing else, so facts are kept per relation
//! ([`ProgramFootprints::fact_relations`]) rather than per statement: a
//! program of thousands of facts adds only its few fact relations here.

use crate::graph::ProgramGraphs;
use crate::program::{Statement, StmtAst};
use ndl_core::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The static footprint of one statement: what it reads, what it writes,
/// and which Skolem functions it invents nulls through.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Relations matched in clause bodies (or an egd body).
    pub reads: BTreeSet<RelId>,
    /// Relations inserted into by clause heads (or a ground fact).
    pub writes: BTreeSet<RelId>,
    /// Skolem functions occurring in heads or equality gates.
    pub funcs: BTreeSet<FuncId>,
}

impl Footprint {
    /// Do two *distinct* statements conflict? True on any W–W, R–W (either
    /// direction) or shared-Skolem overlap.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        !self.kinds_against(other).is_empty()
    }

    /// The conflict kinds between two distinct statements (empty when
    /// they are independent).
    pub fn kinds_against(&self, other: &Footprint) -> Vec<ConflictKind> {
        let mut kinds = Vec::new();
        if self.writes.intersection(&other.writes).next().is_some() {
            kinds.push(ConflictKind::WriteWrite);
        }
        if self.reads.intersection(&other.writes).next().is_some()
            || other.reads.intersection(&self.writes).next().is_some()
        {
            kinds.push(ConflictKind::ReadWrite);
        }
        if self.funcs.intersection(&other.funcs).next().is_some() {
            kinds.push(ConflictKind::SharedNullFactory);
        }
        kinds
    }

    /// Does the statement read a relation it also writes? Such a statement
    /// can re-trigger on its own insertions and must run alone in its
    /// stage (the engine refuses multi-statement stages containing one).
    pub fn self_interfering(&self) -> bool {
        self.reads.intersection(&self.writes).next().is_some()
    }
}

/// Why two statements cannot fire in parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConflictKind {
    /// Both statements write a common relation.
    WriteWrite,
    /// One statement reads a relation the other writes.
    ReadWrite,
    /// Both statements invent nulls through a common Skolem function.
    SharedNullFactory,
}

impl ConflictKind {
    /// Stable lowercase label (used in JSON reports and DOT edge labels).
    pub fn label(self) -> &'static str {
        match self {
            ConflictKind::WriteWrite => "write-write",
            ConflictKind::ReadWrite => "read-write",
            ConflictKind::SharedNullFactory => "shared-null-factory",
        }
    }
}

/// The whole-program footprint map: one [`Footprint`] per tgd or egd
/// statement, the relations ground facts write, and the set of statements
/// eligible for scheduling (exactly the tgd statements with Skolemized
/// clauses in [`ProgramGraphs::clauses`]).
#[derive(Clone, Debug, Default)]
pub struct ProgramFootprints {
    /// Footprint per contributing statement: tgd statements that entered
    /// [`ProgramGraphs`], plus egds (which the graphs skip).
    pub footprints: BTreeMap<usize, Footprint>,
    /// The relations written by the program's ground facts: the union of
    /// the facts' footprints, each of which is one written relation.
    pub fact_relations: BTreeSet<RelId>,
    /// Statements eligible for scheduling — exactly the tgd statements
    /// with Skolemized clauses in [`ProgramGraphs::clauses`].
    pub scheduled: BTreeSet<usize>,
}

impl ProgramFootprints {
    /// Computes the footprints of every statement. `graphs` supplies the
    /// Skolemized clauses of analyzable tgd statements; `stmts` supplies
    /// the facts and egds the graphs skip.
    pub fn of(graphs: &ProgramGraphs, stmts: &[Statement]) -> ProgramFootprints {
        let mut p = ProgramFootprints::default();
        for cv in &graphs.clauses {
            let fp = p.footprints.entry(cv.stmt).or_default();
            p.scheduled.insert(cv.stmt);
            for atom in &cv.clause.body {
                fp.reads.insert(atom.rel);
            }
            for atom in &cv.clause.head {
                fp.writes.insert(atom.rel);
                for t in &atom.args {
                    collect_funcs(t, &mut fp.funcs);
                }
            }
            for (l, r) in &cv.clause.equalities {
                collect_funcs(l, &mut fp.funcs);
                collect_funcs(r, &mut fp.funcs);
            }
        }
        for stmt in stmts {
            match &stmt.ast {
                Some(StmtAst::Fact(f)) => {
                    p.fact_relations.insert(f.rel);
                }
                Some(StmtAst::Egd(e)) => {
                    let fp = p.footprints.entry(stmt.index).or_default();
                    for atom in &e.body {
                        fp.reads.insert(atom.rel);
                    }
                }
                _ => {}
            }
        }
        p
    }
}

/// Collects the function symbols occurring anywhere in a term.
pub(crate) fn collect_funcs(t: &Term, out: &mut BTreeSet<FuncId>) {
    if let Term::App(f, args) = t {
        out.insert(*f);
        for a in args {
            collect_funcs(a, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parse_program;

    fn build(src: &str) -> (SymbolTable, Vec<Statement>, ProgramGraphs) {
        let mut syms = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut syms, src);
        assert!(errs.is_empty(), "{errs:?}");
        let graphs = ProgramGraphs::build(&mut syms, &stmts);
        (syms, stmts, graphs)
    }

    #[test]
    fn footprints_cover_tgds_facts_and_egds() {
        let src = "fact: S(a, b)\negd: S(x,y) & S(x,z) -> y = z\nS(x,y) -> R(x)\n";
        let (_, stmts, graphs) = build(src);
        let p = ProgramFootprints::of(&graphs, &stmts);
        assert_eq!(p.scheduled.iter().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(p.fact_relations.len(), 1);
        assert!(!p.footprints.contains_key(&0));
        assert!(p.footprints[&1].reads.len() == 1 && p.footprints[&1].writes.is_empty());
        assert!(p.footprints[&2].reads.len() == 1 && p.footprints[&2].writes.len() == 1);
    }

    #[test]
    fn funcs_track_occurring_not_declared() {
        let src = "exists f, g . S(x) -> R(x, f(x))\n";
        let (_, stmts, graphs) = build(src);
        let p = ProgramFootprints::of(&graphs, &stmts);
        assert_eq!(p.footprints[&0].funcs.len(), 1);
    }

    /// Regression pin: the analysis computes footprints once and hands the
    /// same map to the interference pass — it must equal a fresh
    /// computation (the chase engines re-derive footprints themselves).
    #[test]
    fn analysis_footprints_are_exactly_program_footprints() {
        let src = "fact: S(a, b)\n\
                   egd: S(x,y) & S(x,z) -> y = z\n\
                   S(x,y) -> exists z R(x, z)\n\
                   R(x,y) & S(y,w) -> T(x)\n\
                   exists f . T(x) -> U(x, f(x))\n\
                   V(x,y) & V(y,z) -> V(x,z)\n";
        let (_, stmts, graphs) = build(src);
        let p = ProgramFootprints::of(&graphs, &stmts);
        // A fresh symbol table: Skolemization interns the same function
        // ids as the `build` above.
        let (a, _) = crate::ChaseAnalysis::analyze_source(&mut SymbolTable::new(), src);
        assert_eq!(a.interference.footprints, p.footprints);
        assert_eq!(a.interference.fact_relations, p.fact_relations);
        assert_eq!(a.interference.scheduled, p.scheduled);
    }
}
