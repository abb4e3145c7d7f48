//! Chase-termination classes from the position graph.
//!
//! - **Richly acyclic** (Hernich–Schweikardt): no cycle through a special
//!   edge even when special edges start at *every* universal body
//!   position. The oblivious chase — including the fixpoint engine in
//!   `ndl-chase` — terminates on every instance, in polynomially many
//!   steps.
//! - **Weakly acyclic** (Fagin–Kolaitis–Miller–Popa): no special-edge
//!   cycle when special edges start only at body positions of universals
//!   that are copied to the head. The *restricted* chase terminates; the
//!   oblivious chase may diverge (e.g. `T(x) -> exists y T(y)`).
//! - **Cyclic**: a special-edge cycle exists even under the weak rule —
//!   no chase variant is guaranteed to terminate, and the cycle is
//!   reported as a witness (NDL020).
//!
//! Rich acyclicity implies weak acyclicity, so the classes are ordered.

use crate::graph::{PosEdge, ProgramGraphs};
use ndl_core::prelude::*;

/// The three-way termination classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TerminationClass {
    /// Every chase variant terminates (position graph richly acyclic).
    RichlyAcyclic,
    /// The restricted chase terminates; the oblivious chase may not.
    WeaklyAcyclic,
    /// Not weakly acyclic: termination is not guaranteed at all.
    Cyclic,
}

impl TerminationClass {
    /// Stable lowercase name used in reports and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            TerminationClass::RichlyAcyclic => "richly-acyclic",
            TerminationClass::WeaklyAcyclic => "weakly-acyclic",
            TerminationClass::Cyclic => "cyclic",
        }
    }
}

/// The termination verdict for a program, with its witness when negative.
#[derive(Clone, Debug)]
pub struct Termination {
    /// The class.
    pub class: TerminationClass,
    /// For [`TerminationClass::Cyclic`], the special-edge cycle of the
    /// weak-acyclicity graph; for [`TerminationClass::WeaklyAcyclic`], the
    /// special-edge cycle of the rich-acyclicity graph that rules out
    /// rich acyclicity. Empty for richly acyclic programs. The first edge
    /// is the special one; the rest close the cycle.
    pub witness: Vec<PosEdge>,
    /// The same cycle rendered as `R.1 =f=> R.2 (statement 3)` strings.
    pub witness_rendered: Vec<String>,
    /// Maximum position rank — the deepest null-over-null creation chain.
    /// `None` when the program is cyclic (ranks are unbounded).
    pub max_rank: Option<usize>,
    /// Per-relation null-generation depth: the maximum rank over the
    /// relation's positions. Only relations with a positive depth appear.
    pub relation_depths: Vec<(RelId, usize)>,
}

impl Termination {
    /// Classifies the program behind `graphs`. The weak-acyclicity graph
    /// and its components are built once, for the cycle search and the
    /// ranks; the rich-acyclicity graph only when the weak one is acyclic.
    pub fn of(graphs: &ProgramGraphs, syms: &SymbolTable) -> Termination {
        let pg = &graphs.positions;
        let wa = pg.acyclicity_graph(true);
        let (class, witness) = match pg.special_cycle(&wa) {
            Some(cycle) => (TerminationClass::Cyclic, cycle),
            None => match pg.special_cycle(&pg.acyclicity_graph(false)) {
                Some(cycle) => (TerminationClass::WeaklyAcyclic, cycle),
                None => (TerminationClass::RichlyAcyclic, Vec::new()),
            },
        };
        let witness_rendered = witness.iter().map(|e| pg.display_edge(syms, e)).collect();
        let (max_rank, relation_depths) = match pg.ranks(&wa) {
            None => (None, Vec::new()),
            Some(ranks) => {
                // A relation's positions are numbered consecutively, so
                // each relation is one run of `positions`.
                let mut depths: Vec<(RelId, usize)> = Vec::new();
                for (&(rel, _), &rank) in pg.positions.iter().zip(&ranks) {
                    match depths.last_mut() {
                        Some((r, d)) if *r == rel => *d = (*d).max(rank),
                        _ => depths.push((rel, rank)),
                    }
                }
                depths.retain(|&(_, d)| d > 0);
                depths.sort_unstable();
                (Some(ranks.iter().copied().max().unwrap_or(0)), depths)
            }
        };
        Termination {
            class,
            witness,
            witness_rendered,
            max_rank,
            relation_depths,
        }
    }

    /// One-line explanation of a negative verdict (used as the chase
    /// plan's diagnosis and in NDL020/NDL021 messages); `None` when the
    /// program is richly acyclic.
    pub fn diagnosis(&self) -> Option<String> {
        let cycle = self.witness_rendered.join(", ");
        match self.class {
            TerminationClass::RichlyAcyclic => None,
            TerminationClass::WeaklyAcyclic => Some(format!(
                "weakly but not richly acyclic: the oblivious chase may diverge \
                 (special-edge cycle {cycle})"
            )),
            TerminationClass::Cyclic => Some(format!(
                "not weakly acyclic: chase termination is not guaranteed \
                 (special-edge cycle {cycle})"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parse_program;

    fn classify(src: &str) -> Termination {
        let mut syms = SymbolTable::new();
        let (stmts, _) = parse_program(&mut syms, src);
        let g = ProgramGraphs::build(&mut syms, &stmts);
        Termination::of(&g, &syms)
    }

    #[test]
    fn source_to_target_programs_are_richly_acyclic() {
        let t = classify("S(x,y) -> exists z (R(x,z) & T(z,y))\nfact: S(a,b)\n");
        assert_eq!(t.class, TerminationClass::RichlyAcyclic);
        assert!(t.witness.is_empty());
        assert_eq!(t.max_rank, Some(1));
        assert!(t.diagnosis().is_none());
    }

    #[test]
    fn blind_recursion_is_weakly_acyclic_only() {
        let t = classify("T(x) -> exists y T(y)\n");
        assert_eq!(t.class, TerminationClass::WeaklyAcyclic);
        assert!(!t.witness.is_empty());
        assert!(t.diagnosis().unwrap().contains("oblivious"));
        assert_eq!(t.max_rank, Some(0));
    }

    #[test]
    fn propagating_recursion_is_cyclic() {
        let t = classify("E(x,y) -> exists z E(y,z)\n");
        assert_eq!(t.class, TerminationClass::Cyclic);
        assert!(t.witness[0].special);
        assert_eq!(t.max_rank, None);
        let d = t.diagnosis().unwrap();
        assert!(d.contains("not weakly acyclic"), "{d}");
        assert!(d.contains("E.2"), "{d}");
    }

    #[test]
    fn two_statement_cycle_is_found() {
        // R(x) -> exists y E(x,y); E(x,y) -> R(y): classic non-WA pair.
        let t = classify("R(x) -> exists y E(x,y)\nE(x,y) -> R(y)\n");
        assert_eq!(t.class, TerminationClass::Cyclic);
        // The witness cycle visits both statements.
        let stmts: std::collections::BTreeSet<usize> = t.witness.iter().map(|e| e.stmt).collect();
        assert_eq!(stmts.len(), 2, "{:?}", t.witness_rendered);
    }

    #[test]
    fn classes_are_ordered() {
        assert!(TerminationClass::RichlyAcyclic < TerminationClass::WeaklyAcyclic);
        assert!(TerminationClass::WeaklyAcyclic < TerminationClass::Cyclic);
    }
}
