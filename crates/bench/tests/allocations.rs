//! Heap allocations of the front end, counted by a global allocator.
//!
//! The count is process-wide, so this binary holds a single test: no other
//! test thread allocates while it measures.

use ndl_analyze::{parse_program, ChaseAnalysis, ProgramArtifacts};
use ndl_bench::alloc::{counting, CountingAlloc};
use ndl_bench::dead_code_program;
use ndl_core::prelude::*;
use std::fmt::Write as _;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `R(a1,…,an)`.
fn wide_fact(n: usize) -> String {
    let args: Vec<String> = (1..=n).map(|i| format!("a{i}")).collect();
    format!("R({})", args.join(","))
}

/// Three tgds and `facts` fact statements of arity 1–3 over fresh and
/// repeated constants.
fn fact_program(facts: usize) -> String {
    let mut src = String::from(
        "S(x,y) -> exists z T(x,z)\n\
         T(x,y) & U(y) -> V(x)\n\
         W(x,y,z) -> S(x,z)\n",
    );
    for i in 0..facts {
        let _ = match i % 3 {
            0 => writeln!(src, "fact: S(c{i}, d{})", i % 7),
            1 => writeln!(src, "fact: U(c{i})"),
            _ => writeln!(src, "fact: W(c{i}, d{}, e{i})", i % 5),
        };
    }
    src
}

#[test]
fn front_end_allocations_are_bounded() {
    // Lexing and parsing a fact against a warm symbol table allocates a
    // fixed number of times (the token buffer and the argument vector),
    // whatever the fact's arity.
    let mut syms = SymbolTable::new();
    let counts: Vec<u64> = [1, 5, 50, 200]
        .iter()
        .map(|&n| {
            let text = wide_fact(n);
            let warm = parse_fact(&mut syms, &text).expect("parses");
            let (fact, allocs) = counting(|| parse_fact(&mut syms, &text).expect("parses"));
            assert_eq!(fact, warm);
            allocs
        })
        .collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    assert!(counts[0] <= 2, "{counts:?}");

    // Building the artifacts of a program costs a bounded number of
    // allocations per fact statement (its argument vector, plus amortized
    // growth), not per token or per analysis pass.
    let build = |facts: usize| {
        let src = fact_program(facts);
        let (art, allocs) = counting(|| ProgramArtifacts::build(&src));
        assert!(art.parse_errors.is_empty());
        assert_eq!(art.source.len(), facts);
        allocs
    };
    let (small, large) = (build(2_000), build(8_000));
    let per_fact = (large - small) as f64 / 6_000.0;
    assert!(
        per_fact <= 1.5,
        "{per_fact:.2} allocations per fact statement ({small} for 2000 facts, {large} for 8000)"
    );

    // The analysis behind `ndl chase` — `ChaseAnalysis::analyze`, then
    // `so_tgds` and `tgd_plan` — on the dead-code programs of the
    // exchange benchmark: a bounded number of allocations per statement
    // (the Skolemized clauses and their copies for the chase), at either
    // size and for every statement added.
    let analysis = |dead: usize| {
        let src = dead_code_program(dead, 1);
        let mut syms = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut syms, &src);
        assert!(errs.is_empty(), "{errs:?}");
        let ((tgds, dead_tgds), allocs) = counting(|| {
            let analysis = ChaseAnalysis::analyze(&mut syms, &stmts);
            let tgds = analysis.so_tgds();
            let plan = analysis.tgd_plan(None);
            (tgds.len(), plan.cert.map_or(0, |c| c.dead.len()))
        });
        assert!(dead_tgds >= dead, "{dead_tgds} of {tgds} tgds dead");
        (stmts.len(), allocs)
    };
    let ((n_small, small), (n_large, large)) = (analysis(300), analysis(600));
    for (n, allocs) in [(n_small, small), (n_large, large)] {
        let per_stmt = allocs as f64 / n as f64;
        assert!(
            per_stmt <= 15.0,
            "{per_stmt:.2} allocations per statement ({allocs} for {n} statements)"
        );
    }
    let growth = (large - small) as f64 / (n_large - n_small) as f64;
    assert!(
        growth <= 15.0,
        "{growth:.2} allocations per added statement ({small} for {n_small}, {large} for {n_large})"
    );
}
