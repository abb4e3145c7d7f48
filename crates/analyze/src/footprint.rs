//! Per-statement footprints: what each statement of a program reads,
//! writes, and which Skolem functions it invents nulls through.
//!
//! Footprints are the shared vocabulary of the whole-program passes:
//! the firing order follows producer-to-consumer relations through them,
//! [`crate::interference`] builds the statement conflict graph from them
//! (which pairs may fire in parallel within a round), and
//! [`crate::dataflow`] runs the reachability/liveness/groundness fixpoints
//! over them (which statements can ever fire at all). The analysis
//! computes them once and shares the one table ([`Footprints`]: every
//! statement's sorted reads, writes and functions as slices of two flat
//! vectors), which keeps the passes byte-for-byte agreed on what a
//! statement touches.
//!
//! Reads are body relations, writes are head relations, and the Skolem
//! set contains the functions *occurring* in clause heads and equality
//! gates (a declared-but-unused function invents nothing and so cannot
//! conflict).
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
use std::collections::BTreeSet;

/// The static footprint of one statement: what it reads, what it writes,
/// and which Skolem functions it invents nulls through — each a sorted,
/// duplicate-free slice of the [`Footprints`] table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint<'a> {
    /// Relations matched in clause bodies (or an egd body).
    pub reads: &'a [RelId],
    /// Relations inserted into by clause heads.
    pub writes: &'a [RelId],
    /// Skolem functions occurring in heads or equality gates.
    pub funcs: &'a [FuncId],
}

/// Do two sorted slices share an element? One merge pass.
fn meet<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl Footprint<'_> {
    /// Do two *distinct* statements conflict? True on any W–W, R–W (either
    /// direction) or shared-Skolem overlap.
    pub fn conflicts_with(&self, other: &Footprint<'_>) -> bool {
        !self.kinds_against(other).is_empty()
    }

    /// The conflict kinds between two distinct statements (empty when
    /// they are independent).
    pub fn kinds_against(&self, other: &Footprint<'_>) -> ConflictKinds {
        let mut kinds = ConflictKinds::default();
        if meet(self.writes, other.writes) {
            kinds.insert(ConflictKind::WriteWrite);
        }
        if meet(self.reads, other.writes) || meet(other.reads, self.writes) {
            kinds.insert(ConflictKind::ReadWrite);
        }
        if meet(self.funcs, other.funcs) {
            kinds.insert(ConflictKind::SharedNullFactory);
        }
        kinds
    }

    /// Does the statement read a relation it also writes? Such a statement
    /// can re-trigger on its own insertions and must run alone in its
    /// stage (the engine refuses multi-statement stages containing one).
    pub fn self_interfering(&self) -> bool {
        meet(self.reads, self.writes)
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
    /// Every kind, in order.
    pub const ALL: [ConflictKind; 3] = [
        ConflictKind::WriteWrite,
        ConflictKind::ReadWrite,
        ConflictKind::SharedNullFactory,
    ];

    /// Stable lowercase label (used in JSON reports and DOT edge labels).
    pub fn label(self) -> &'static str {
        match self {
            ConflictKind::WriteWrite => "write-write",
            ConflictKind::ReadWrite => "read-write",
            ConflictKind::SharedNullFactory => "shared-null-factory",
        }
    }
}

/// A set of [`ConflictKind`]s (one bit each), iterated in kind order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictKinds(u8);

impl ConflictKinds {
    /// Adds a kind.
    pub fn insert(&mut self, kind: ConflictKind) {
        self.0 |= 1 << kind as u8;
    }

    /// Does the set hold `kind`?
    pub fn contains(self, kind: ConflictKind) -> bool {
        self.0 & (1 << kind as u8) != 0
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The kinds in the set, in [`ConflictKind`] order.
    pub fn iter(self) -> impl Iterator<Item = ConflictKind> {
        ConflictKind::ALL
            .into_iter()
            .filter(move |&k| self.contains(k))
    }
}

/// The footprints of a program's statements in one table: per statement
/// with a footprint, its reads, writes and Skolem functions as ranges of
/// two flat vectors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprints {
    /// Statements with a footprint, ascending, each with the end of its
    /// reads, of its writes (both in `rels`) and of its functions.
    rows: Vec<(usize, [usize; 3])>,
    rels: Vec<RelId>,
    funcs: Vec<FuncId>,
}

impl Footprints {
    /// Appends the footprint of statement `stmt` (above every statement
    /// added so far): `reads`, `writes` and `funcs` are sorted and
    /// deduplicated here.
    fn push(
        &mut self,
        stmt: usize,
        reads: &mut Vec<RelId>,
        writes: &mut Vec<RelId>,
        funcs: &mut Vec<FuncId>,
    ) {
        debug_assert!(self.rows.last().is_none_or(|&(s, _)| s < stmt));
        for set in [&mut *reads, &mut *writes] {
            set.sort_unstable();
            set.dedup();
        }
        funcs.sort_unstable();
        funcs.dedup();
        self.rels.extend_from_slice(reads);
        let reads_end = self.rels.len();
        self.rels.extend_from_slice(writes);
        self.funcs.extend_from_slice(funcs);
        self.rows
            .push((stmt, [reads_end, self.rels.len(), self.funcs.len()]));
    }

    fn row(&self, r: usize) -> (usize, Footprint<'_>) {
        let (stmt, [reads_end, writes_end, funcs_end]) = self.rows[r];
        let (rels_start, funcs_start) = match r.checked_sub(1) {
            Some(p) => (self.rows[p].1[1], self.rows[p].1[2]),
            None => (0, 0),
        };
        let fp = Footprint {
            reads: &self.rels[rels_start..reads_end],
            writes: &self.rels[reads_end..writes_end],
            funcs: &self.funcs[funcs_start..funcs_end],
        };
        (stmt, fp)
    }

    /// The footprint of statement `stmt`, if it has one.
    pub fn get(&self, stmt: usize) -> Option<Footprint<'_>> {
        let r = self.rows.binary_search_by_key(&stmt, |&(s, _)| s).ok()?;
        Some(self.row(r).1)
    }

    /// Every `(statement, footprint)`, in statement order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Footprint<'_>)> {
        (0..self.rows.len()).map(|r| self.row(r))
    }

    /// One more than the largest relation id any footprint mentions.
    pub(crate) fn relation_bound(&self) -> usize {
        self.rels.iter().map(|r| r.index() + 1).max().unwrap_or(0)
    }

    /// One more than the largest function id any footprint mentions.
    pub(crate) fn func_bound(&self) -> usize {
        self.funcs.iter().map(|f| f.index() + 1).max().unwrap_or(0)
    }
}

/// The whole-program footprints: one [`Footprint`] per tgd or egd
/// statement, the relations ground facts write, and the statements
/// eligible for scheduling (exactly the tgd statements with Skolemized
/// clauses in [`ProgramGraphs::clauses`]).
#[derive(Clone, Debug, Default)]
pub struct ProgramFootprints {
    /// Footprint per contributing statement: tgd statements that entered
    /// [`ProgramGraphs`], plus egds (which the graphs skip).
    pub footprints: Footprints,
    /// The relations written by the program's ground facts: the union of
    /// the facts' footprints, each of which is one written relation.
    pub fact_relations: BTreeSet<RelId>,
    /// Statements eligible for scheduling, ascending — exactly the tgd
    /// statements with Skolemized clauses in [`ProgramGraphs::clauses`].
    pub scheduled: Vec<usize>,
}

impl ProgramFootprints {
    /// Computes the footprints of every statement. `graphs` supplies the
    /// Skolemized clauses of analyzable tgd statements (in statement
    /// order); `stmts` supplies the facts and egds the graphs skip.
    pub fn of(graphs: &ProgramGraphs, stmts: &[Statement]) -> ProgramFootprints {
        let mut p = ProgramFootprints::default();
        let (mut reads, mut writes, mut funcs) = (Vec::new(), Vec::new(), Vec::new());
        let mut clauses = graphs.clauses.iter().peekable();
        for stmt in stmts {
            reads.clear();
            writes.clear();
            funcs.clear();
            match &stmt.ast {
                Some(StmtAst::Fact(f)) => {
                    p.fact_relations.insert(f.rel);
                    continue;
                }
                Some(StmtAst::Egd(e)) => {
                    reads.extend(e.body.iter().map(|a| a.rel));
                }
                _ => {
                    let mut any = false;
                    while let Some(cv) = clauses.next_if(|cv| cv.stmt == stmt.index) {
                        any = true;
                        let c = &cv.clause;
                        reads.extend(c.body.iter().map(|a| a.rel));
                        for atom in &c.head {
                            writes.push(atom.rel);
                            for t in &atom.args {
                                collect_funcs(t, &mut funcs);
                            }
                        }
                        for (l, r) in &c.equalities {
                            collect_funcs(l, &mut funcs);
                            collect_funcs(r, &mut funcs);
                        }
                    }
                    if !any {
                        continue;
                    }
                    p.scheduled.push(stmt.index);
                }
            }
            p.footprints
                .push(stmt.index, &mut reads, &mut writes, &mut funcs);
        }
        p
    }
}

/// Appends the function symbols occurring anywhere in a term.
pub(crate) fn collect_funcs(t: &Term, out: &mut Vec<FuncId>) {
    if let Term::App(f, args) = t {
        out.push(*f);
        for a in args {
            collect_funcs(a, out);
        }
    }
}

/// Appends the variables occurring anywhere in a term.
pub(crate) fn collect_vars(t: &Term, out: &mut Vec<VarId>) {
    match t {
        Term::Var(v) => out.push(*v),
        Term::App(_, args) => {
            for a in args {
                collect_vars(a, out);
            }
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
        assert_eq!(p.scheduled, vec![2]);
        assert_eq!(p.fact_relations.len(), 1);
        assert!(p.footprints.get(0).is_none());
        let egd = p.footprints.get(1).unwrap();
        assert!(egd.reads.len() == 1 && egd.writes.is_empty());
        let tgd = p.footprints.get(2).unwrap();
        assert!(tgd.reads.len() == 1 && tgd.writes.len() == 1);
    }

    #[test]
    fn funcs_track_occurring_not_declared() {
        let src = "exists f, g . S(x) -> R(x, f(x))\n";
        let (_, stmts, graphs) = build(src);
        let p = ProgramFootprints::of(&graphs, &stmts);
        assert_eq!(p.footprints.get(0).unwrap().funcs.len(), 1);
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
