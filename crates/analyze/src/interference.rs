//! Interference analysis: the **statement conflict graph** built from the
//! per-statement footprints of [`crate::footprint`].
//!
//! Two statements *interfere* when firing them concurrently inside one
//! chase round could observe or produce different state than firing them
//! in sequence:
//!
//! - **W–W**: both write the same relation (their head insertions race on
//!   the same posting lists);
//! - **R–W**: one reads a relation the other writes (the reader's matches
//!   could see the writer's half-committed round);
//! - **shared null factory**: both invent nulls through the same Skolem
//!   function, so interning order — and hence null identity — depends on
//!   scheduling.
//!
//! The round-snapshot discipline of the fixpoint engine (matches run
//! against the *previous* round's index, insertions commit at round end)
//! already neutralizes R–W and W–W conflicts *across* rounds; the conflict
//! graph is about what may fire **in parallel within a round** while
//! staying bit-identical to the sequential engine. [`crate::schedule`]
//! stratifies this graph into conflict-free stages.
//!
//! Footprint computation lives in [`crate::footprint`] (shared with the
//! dataflow pass); the types [`Footprint`] and [`ConflictKind`] are
//! re-exported here so pre-split import paths keep working.

use crate::footprint::ProgramFootprints;
use ndl_core::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

pub use crate::footprint::{ConflictKind, Footprint};

/// An edge of the statement conflict graph (`a < b`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictEdge {
    /// Smaller statement index.
    pub a: usize,
    /// Larger statement index.
    pub b: usize,
    /// Every reason the pair conflicts, in [`ConflictKind`] order.
    pub kinds: Vec<ConflictKind>,
}

/// The interference analysis of a program: footprints, the conflict
/// graph, and the whole-program relation roles behind NDL031/NDL032.
#[derive(Clone, Debug, Default)]
pub struct InterferenceAnalysis {
    /// Footprint per statement that contributes reads or writes: tgd
    /// statements that entered
    /// [`ProgramGraphs`](crate::graph::ProgramGraphs), plus egds (which
    /// the graphs skip).
    pub footprints: BTreeMap<usize, Footprint>,
    /// The relations written by ground facts (see
    /// [`ProgramFootprints::fact_relations`]).
    pub fact_relations: BTreeSet<RelId>,
    /// Statements eligible for scheduling — exactly the tgd statements
    /// with Skolemized clauses in
    /// [`ProgramGraphs::clauses`](crate::graph::ProgramGraphs::clauses).
    pub scheduled: BTreeSet<usize>,
    /// Conflict edges among *scheduled* statements, ordered by `(a, b)`.
    pub edges: Vec<ConflictEdge>,
    /// Scheduled statements whose own reads and writes overlap.
    pub self_interfering: Vec<usize>,
    /// Relations some statement writes but none reads (NDL031). For a
    /// data-exchange mapping these are simply the target relations, so
    /// the lint is informational.
    pub write_only: Vec<RelId>,
    /// Relations some statement reads but none writes (NDL032): the
    /// matches can only ever see source facts — or nothing at all.
    pub read_only: Vec<RelId>,
}

impl InterferenceAnalysis {
    /// Builds the conflict graph over the program's footprints (computed
    /// once per analysis by [`ProgramFootprints::of`] and shared with the
    /// dataflow pass).
    ///
    /// Output-sensitive: scheduled statements are indexed by written
    /// relation, read relation and Skolem function, and only pairs sharing
    /// a key are tested — a pair with no common key cannot conflict. The
    /// cost is the number of such candidate pairs, not the square of the
    /// statement count.
    pub fn of(fps: ProgramFootprints) -> InterferenceAnalysis {
        let mut a = InterferenceAnalysis {
            footprints: fps.footprints,
            fact_relations: fps.fact_relations,
            scheduled: fps.scheduled,
            ..InterferenceAnalysis::default()
        };
        // Posting lists in ascending statement order (`scheduled` is).
        let mut writers: BTreeMap<RelId, Vec<usize>> = BTreeMap::new();
        let mut readers: BTreeMap<RelId, Vec<usize>> = BTreeMap::new();
        let mut makers: BTreeMap<FuncId, Vec<usize>> = BTreeMap::new();
        for &s in &a.scheduled {
            let fp = &a.footprints[&s];
            for &r in &fp.writes {
                writers.entry(r).or_default().push(s);
            }
            for &r in &fp.reads {
                readers.entry(r).or_default().push(s);
            }
            for &f in &fp.funcs {
                makers.entry(f).or_default().push(s);
            }
        }
        // The part of a posting list after `s`: each pair is found from
        // its smaller end, so edges come out in `(a, b)` order.
        fn after(list: Option<&Vec<usize>>, s: usize) -> &[usize] {
            let list = list.map_or(&[][..], Vec::as_slice);
            &list[list.partition_point(|&t| t <= s)..]
        }
        let mut candidates: Vec<usize> = Vec::new();
        for &s in &a.scheduled {
            let fp = &a.footprints[&s];
            if fp.self_interfering() {
                a.self_interfering.push(s);
            }
            candidates.clear();
            for r in &fp.writes {
                candidates.extend(after(writers.get(r), s));
                candidates.extend(after(readers.get(r), s));
            }
            for r in &fp.reads {
                candidates.extend(after(writers.get(r), s));
            }
            for f in &fp.funcs {
                candidates.extend(after(makers.get(f), s));
            }
            candidates.sort_unstable();
            candidates.dedup();
            for &t in &candidates {
                let kinds = fp.kinds_against(&a.footprints[&t]);
                a.edges.push(ConflictEdge { a: s, b: t, kinds });
            }
        }
        let mut read: BTreeSet<RelId> = BTreeSet::new();
        let mut written: BTreeSet<RelId> = a.fact_relations.clone();
        for fp in a.footprints.values() {
            read.extend(fp.reads.iter().copied());
            written.extend(fp.writes.iter().copied());
        }
        a.write_only = written.difference(&read).copied().collect();
        a.read_only = read.difference(&written).copied().collect();
        a
    }

    /// Is the pair conflict-free (both scheduled, no edge between them)?
    /// A binary search over the `(a, b)`-sorted edge list.
    pub fn independent(&self, a: usize, b: usize) -> bool {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        a != b
            && self.scheduled.contains(&a)
            && self.scheduled.contains(&b)
            && self
                .edges
                .binary_search_by(|e| (e.a, e.b).cmp(&(a, b)))
                .is_err()
    }

    /// Renders the conflict graph in Graphviz DOT: one box per scheduled
    /// statement labeled with its read/write sets, one undirected edge per
    /// conflict labeled with its reasons. Self-interfering statements are
    /// drawn with a doubled border.
    pub fn to_dot(&self, syms: &SymbolTable) -> String {
        let names = |rels: &BTreeSet<RelId>| -> String {
            let v: Vec<&str> = rels.iter().map(|&r| syms.rel_name(r)).collect();
            v.join(",")
        };
        let mut out = String::from("graph conflicts {\n  node [shape=box];\n");
        for &s in &self.scheduled {
            let fp = &self.footprints[&s];
            let peripheries = if fp.self_interfering() {
                ", peripheries=2"
            } else {
                ""
            };
            out.push_str(&format!(
                "  s{} [label=\"s{}\\nR: {}\\nW: {}\"{}];\n",
                s,
                s,
                names(&fp.reads),
                names(&fp.writes),
                peripheries
            ));
        }
        for e in &self.edges {
            let labels: Vec<&str> = e.kinds.iter().map(|k| k.label()).collect();
            out.push_str(&format!(
                "  s{} -- s{} [label=\"{}\"];\n",
                e.a,
                e.b,
                labels.join("\\n")
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProgramGraphs;
    use crate::program::parse_program;

    fn build(src: &str) -> (SymbolTable, InterferenceAnalysis) {
        let mut syms = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut syms, src);
        assert!(errs.is_empty(), "{errs:?}");
        let graphs = ProgramGraphs::build(&mut syms, &stmts);
        let a = InterferenceAnalysis::of(ProgramFootprints::of(&graphs, &stmts));
        (syms, a)
    }

    #[test]
    fn independent_statements_have_no_edge() {
        let (_, a) = build("S(x) -> R(x)\nT(x) -> U(x)\n");
        assert!(a.edges.is_empty());
        assert!(a.independent(0, 1));
    }

    #[test]
    fn write_write_and_read_write_edges() {
        // Both write R: W–W. Statement 2 reads R which 0 and 1 write: R–W.
        let (_, a) = build("S(x) -> R(x)\nT(x) -> R(x)\nR(x) -> U(x)\n");
        let edge = |x: usize, y: usize| a.edges.iter().find(|e| e.a == x && e.b == y).unwrap();
        assert_eq!(edge(0, 1).kinds, vec![ConflictKind::WriteWrite]);
        assert_eq!(edge(0, 2).kinds, vec![ConflictKind::ReadWrite]);
        assert_eq!(edge(1, 2).kinds, vec![ConflictKind::ReadWrite]);
        assert!(!a.independent(0, 1));
    }

    #[test]
    fn shared_skolem_function_is_a_conflict() {
        // Two SO tgds invent nulls through the same declared function f.
        let src = "exists f . S(x) -> R(x, f(x))\nexists f . T(x) -> U(x, f(x))\n";
        let (_, a) = build(src);
        assert_eq!(a.edges.len(), 1);
        assert_eq!(a.edges[0].kinds, vec![ConflictKind::SharedNullFactory]);
    }

    #[test]
    fn unused_declared_function_does_not_conflict() {
        // g is declared by both but only applied by the first: footprints
        // track *occurring* functions, so no shared-factory edge.
        let src = "exists f, g . S(x) -> R(x, f(x))\nexists f2, g . T(x) -> U(x, f2(x))\n";
        let (_, a) = build(src);
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn self_interfering_statement_is_flagged() {
        let (_, a) = build("E(x,y) & R(y) -> R(x)\n");
        assert_eq!(a.self_interfering, vec![0]);
        assert!(a.footprints[&0].self_interfering());
    }

    #[test]
    fn facts_write_and_egds_read() {
        let src = "fact: S(a, b)\negd: S(x,y) & S(x,z) -> y = z\nS(x,y) -> R(x)\n";
        let (_, a) = build(src);
        // The fact writes S; the egd reads S; only statement 2 schedules.
        assert_eq!(a.scheduled.iter().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(a.fact_relations.len(), 1);
        assert!(a.footprints[&1].reads.len() == 1 && a.footprints[&1].writes.is_empty());
        // S is both written (fact) and read; R is write-only.
        assert_eq!(a.write_only.len(), 1);
        assert!(a.read_only.is_empty());
    }

    #[test]
    fn read_only_relation_is_reported() {
        let (_, a) = build("S(x) -> R(x)\n");
        assert_eq!(a.read_only.len(), 1); // S: read, never written
        assert_eq!(a.write_only.len(), 1); // R: written, never read
    }

    #[test]
    fn dot_renders_nodes_and_labeled_edges() {
        let (syms, a) = build("S(x) -> R(x)\nT(x) -> R(x)\n");
        let dot = a.to_dot(&syms);
        assert!(dot.starts_with("graph conflicts {"));
        assert!(dot.contains("s0 -- s1"));
        assert!(dot.contains("write-write"));
        assert!(dot.contains("W: R"));
    }
}
