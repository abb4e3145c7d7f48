//! # ndl-bench
//!
//! Regenerators for every figure and worked example of the paper
//! (binaries under `src/bin`, one per artifact — see DESIGN.md §3 for the
//! index), plus Criterion performance benchmarks (under `benches/`).
//!
//! Shared fixtures live here so that the regenerators, benches and tests
//! all work from identical objects.

#![warn(missing_docs)]

pub mod alloc;
pub mod baseline;
pub mod record;

pub use record::ExperimentRecord;

use ndl_core::prelude::*;
use ndl_gen::{clio_scenario, random_program_with_dead_code, ProgramGenOptions};
use std::fmt::Write as _;

/// A dead-code program shaped like the `exchange` benchmark's dead-code
/// jobs: [`random_program_with_dead_code`] over 40 live statements, a pool
/// of `2 × dead` relations, no recursion, comment probability 0.1 and fact
/// probability 0.3, drawn from seeds `seed`, `seed + 1`, … until the
/// analyzer finds the program richly acyclic (its chase is then
/// guaranteed to terminate).
pub fn dead_code_program(dead: usize, seed: u64) -> String {
    for attempt in 0.. {
        let opts = ProgramGenOptions {
            statements: 40,
            relations: 2 * dead,
            recursion_prob: 0.0,
            comment_prob: 0.1,
            fact_prob: 0.3,
            seed: seed.wrapping_add(attempt),
        };
        let src = random_program_with_dead_code(&opts, dead);
        let art = ndl_analyze::ProgramArtifacts::build(&src);
        if art.parse_errors.is_empty()
            && art.analysis.termination.class == ndl_analyze::TerminationClass::RichlyAcyclic
        {
            return src;
        }
    }
    unreachable!("the attempt loop only exits by returning")
}

/// A Clio HR program shaped like the `exchange` benchmark's Clio jobs:
/// the flat or the nested mapping of [`clio_scenario`] over `depts`
/// departments with two members each, then one `fact:` statement per
/// source fact — the text `ndl chase` reads.
pub fn clio_program(depts: usize, seed: u64, flat: bool) -> String {
    let mut syms = SymbolTable::new();
    let sc = clio_scenario(&mut syms, depts, 2, seed);
    let mapping = if flat { &sc.flat } else { &sc.nested };
    let mut src = String::new();
    for t in &mapping.tgds {
        let _ = writeln!(src, "{}", t.display(&syms));
    }
    ndl_chase::NullFactory::new().write_fact_lines(sc.source.facts(), &syms, "fact: ", &mut src);
    src
}

/// The running example σ of Section 2 (marked (*)), with parts σ1–σ4.
pub fn running_sigma(syms: &mut SymbolTable) -> NestedTgd {
    parse_nested_tgd(
        syms,
        "forall x1 (S1(x1) -> exists y1 (\
           forall x2 (S2(x2) -> R2(y1,x2)) & \
           forall x3 (S3(x1,x3) -> (R3(y1,x3) & \
             forall x4 (S4(x3,x4) -> exists y2 R4(y2,x4))))))",
    )
    .expect("running example parses")
}

/// τ of Example 3.10: ∀x1 (S1(x1) → ∃y (∀x2 S2(x2) → R(x2,y))).
pub fn tau_310(syms: &mut SymbolTable) -> NestedTgd {
    parse_nested_tgd(
        syms,
        "forall x1 (S1(x1) -> exists y (forall x2 S2(x2) -> R(x2,y)))",
    )
    .expect("τ parses")
}

/// The intro nested tgd, not equivalent to any finite set of s-t tgds.
pub fn intro_nested(syms: &mut SymbolTable) -> NestedMapping {
    NestedMapping::parse(
        syms,
        &["forall x1,x2 (S(x1,x2) -> exists y (R(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))"],
        &[],
    )
    .expect("intro tgd parses")
}

/// σ of Example 4.8: S(x,y) → R(f(x),f(y)) ∧ R(f(y),f(x)).
pub fn sigma_48(syms: &mut SymbolTable) -> SoTgd {
    parse_so_tgd(syms, "exists f . S(x,y) -> R(f(x),f(y)) & R(f(y),f(x))").expect("σ parses")
}

/// τ of Proposition 4.13 / Section 1: S(x,y) → R(f(x),f(y)).
pub fn tau_413(syms: &mut SymbolTable) -> SoTgd {
    parse_so_tgd(syms, "exists f . S(x,y) -> R(f(x),f(y))").expect("τ parses")
}

/// σ of Example 4.14: S(x,y) ∧ Q(z) → R(f(z,x),f(z,y),g(z)).
pub fn sigma_414(syms: &mut SymbolTable) -> SoTgd {
    parse_so_tgd(syms, "exists f,g . S(x,y) & Q(z) -> R(f(z,x),f(z,y),g(z))").expect("σ parses")
}

/// σ' of Example 4.15: S(x,y) ∧ Q(z) → R(f(z,x,y),g(z),x).
pub fn sigma_415(syms: &mut SymbolTable) -> SoTgd {
    parse_so_tgd(syms, "exists f,g . S(x,y) & Q(z) -> R(f(z,x,y),g(z),x)").expect("σ' parses")
}

/// The nested tgd displayed in Example 4.15, logically equivalent to σ'.
pub fn nested_415(syms: &mut SymbolTable) -> NestedMapping {
    NestedMapping::parse(
        syms,
        &["forall z (Q(z) -> exists u (forall x,y (S(x,y) -> exists v R(v,u,x))))"],
        &[],
    )
    .expect("nested 4.15 parses")
}

/// A successor family with an optional `Q(o)` singleton, shared by the
/// Section 4.2 sweeps.
pub fn successor_family(syms: &mut SymbolTable, with_q: bool, ns: &[usize]) -> Vec<Instance> {
    let s = syms.rel("S");
    let q = syms.rel("Q");
    ns.iter()
        .map(|&n| {
            let mut inst = ndl_gen::successor(syms, s, n, &format!("c{n}_"));
            if with_q {
                let o = Value::Const(syms.constant("o"));
                inst.insert(Fact::new(q, vec![o]));
            }
            inst
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_parse_and_validate() {
        let mut syms = SymbolTable::new();
        let mut schema = Schema::new();
        running_sigma(&mut syms).validate(&mut schema).unwrap();
        let mut schema = Schema::new();
        tau_310(&mut syms).validate(&mut schema).unwrap();
        assert!(!intro_nested(&mut syms).is_glav());
        assert!(sigma_48(&mut syms).is_plain());
        assert!(tau_413(&mut syms).is_plain());
        assert!(sigma_414(&mut syms).is_plain());
        assert!(sigma_415(&mut syms).is_plain());
        let _ = nested_415(&mut syms);
        assert_eq!(successor_family(&mut syms, true, &[4, 6]).len(), 2);
    }
}
