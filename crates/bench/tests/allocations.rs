//! Heap allocations of the front end and the chase, counted by a global
//! allocator.
//!
//! The count is process-wide, so this binary holds a single test: no other
//! test thread allocates while it measures.

use ndl_analyze::{parse_program, ChaseAnalysis, ProgramArtifacts};
use ndl_bench::alloc::{counting, CountingAlloc};
use ndl_bench::{clio_program, dead_code_program};
use ndl_chase::NullFactory;
use ndl_core::prelude::*;
use ndl_incr::{IncrDb, IncrOptions, QueryKey};
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

/// A depth-`depth` existential pipeline over `seeds` disjoint pairs.
fn pipeline_program(depth: usize, seeds: usize) -> String {
    let mut src = String::new();
    for i in 0..depth {
        let _ = writeln!(src, "S{i}(x,y) -> exists z S{}(y,z)", i + 1);
    }
    for i in 0..seeds {
        let _ = writeln!(src, "fact: S0(a{i},b{i})");
    }
    src
}

/// The allocations of `chase_fixpoint_delta` over a program's source
/// (built, planned and warmed up outside the count), with the chased
/// fact count.
fn chase_allocations(src: &str) -> (u64, usize) {
    let art = ProgramArtifacts::build(src);
    assert!(art.chase_refusal("p").is_none());
    let plan = art.analysis.tgd_plan(None);
    let run = || {
        let mut nulls = NullFactory::new();
        let res = ndl_chase::chase_fixpoint_delta(&art.source, &art.tgds, &plan, &mut nulls);
        res.expect("terminates").instance.len()
    };
    run();
    let (facts, allocs) = counting(run);
    (allocs, facts)
}

/// The chase's claims: interning `n` new nulls allocates `O(log n)`
/// times, and a delta chase's allocation count grows at most
/// logarithmically with its source — a bounded number more each time the
/// source doubles, on a Clio-flat program and on a depth-8 pipeline.
fn chase_allocations_are_logarithmic() {
    let mut syms = SymbolTable::new();
    let f = syms.func("f");
    let intern = |n: u32| {
        let (len, allocs) = counting(|| {
            let mut nulls = NullFactory::new();
            for i in 0..n {
                let args = [Value::Const(ConstId(i)), Value::Null(NullId(i / 2))];
                nulls.null_for_app_slice(f, &args);
            }
            nulls.len()
        });
        assert_eq!(len, n as usize);
        allocs
    };
    for n in [1_000u32, 8_000, 64_000] {
        let allocs = intern(n);
        // Four arrays, each growing by doubling: a function symbol, an
        // argument end and the arguments per null, and the id table.
        let bound = 4 * u64::from(n.ilog2() + 2);
        assert!(
            allocs <= bound,
            "interning {n} nulls allocated {allocs} times (bound {bound})"
        );
    }

    for (name, program) in [
        (
            "clio-flat",
            &(|n: usize| clio_program(n, 1, true)) as &dyn Fn(usize) -> String,
        ),
        ("pipeline depth 8", &|n: usize| pipeline_program(8, 2 * n)),
    ] {
        let counts: Vec<(usize, u64, usize)> = [250, 500, 1_000, 2_000]
            .into_iter()
            .map(|n| {
                let (allocs, facts) = chase_allocations(&program(n));
                (n, allocs, facts)
            })
            .collect();
        let shown = format!("{name}: (size, allocations, facts) {counts:?}");
        for w in counts.windows(2) {
            assert!(10 * w[1].2 >= 19 * w[0].2, "the source doubles: {shown}");
            assert!(w[1].1 <= w[0].1 + 64, "{shown}");
        }
    }
}

/// The core of a Clio-nested chase (the `core` query of an incremental
/// Clio session) allocates a bounded number of times more each time the
/// departments double: its index, blocks and null tables are a fixed set
/// of arrays, not an instance per block.
fn core_allocations_are_logarithmic() {
    let counts: Vec<(usize, u64, usize)> = [250, 500, 1_000, 2_000]
        .into_iter()
        .map(|depts| {
            let art = ProgramArtifacts::build(&clio_program(depts, 1, false));
            let plan = art.analysis.tgd_plan(None);
            let mut nulls = NullFactory::new();
            let res = ndl_chase::chase_fixpoint_delta(&art.source, &art.tgds, &plan, &mut nulls);
            let inst = res.expect("terminates").instance;
            let ((core, _), allocs) = counting(|| ndl_hom::core_with_f_block_size(&inst));
            assert_eq!(
                core.len(),
                inst.len(),
                "the nested Clio chase is its own core"
            );
            (depts, allocs, inst.len())
        })
        .collect();
    let shown = format!("Clio-nested core: (departments, allocations, facts) {counts:?}");
    for w in counts.windows(2) {
        assert!(w[1].1 <= w[0].1 + 64, "{shown}");
    }
}

/// Rendering a listing of `n` facts whose nulls are nested Skolem terms
/// into a pre-sized buffer allocates a fixed number of times (the term
/// memo and the walk's stack), whatever `n`.
fn listing_allocations_are_constant() {
    let counts: Vec<u64> = [1_000u32, 2_000, 5_000, 10_000]
        .into_iter()
        .map(|n| {
            let mut syms = SymbolTable::new();
            let (r, s) = (syms.rel("R"), syms.rel("S"));
            let (f, g) = (syms.func("f"), syms.func("g"));
            let mut nulls = NullFactory::new();
            let mut inst = Instance::new();
            for i in 0..n {
                let c = Value::Const(syms.constant(&format!("c{i}")));
                let inner = Value::Null(nulls.null_for_app_slice(f, &[c]));
                let outer = Value::Null(nulls.null_for_app_slice(g, &[inner, c]));
                inst.insert_tuple(r, [c, outer]);
                inst.insert_tuple(s, [inner]);
            }
            let facts: Vec<FactRef<'_>> = inst.facts().collect();
            let mut out = String::with_capacity(64 * facts.len());
            let ((), allocs) = counting(|| {
                nulls.write_fact_lines(facts.iter().copied(), &syms, "  ", &mut out);
            });
            assert_eq!(out.lines().count(), 2 * n as usize);
            assert!(out.contains("R(c7,g(f(c7),c7))"), "nested terms render");
            allocs
        })
        .collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    assert!(counts[0] <= 4, "{counts:?}");
}

#[test]
fn allocations_are_bounded() {
    chase_allocations_are_logarithmic();
    core_allocations_are_logarithmic();
    listing_allocations_are_constant();

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

    // A chase recompute of an incremental session after one insert. The
    // memoized path numbers the live facts into its memoized statement
    // analysis and chases them: beyond the chase's own allocations, a
    // small constant per source fact. The `--scratch` text path
    // re-renders, re-parses and re-analyzes every fact statement.
    let src = fact_program(2_000);
    let chase = {
        let art = ProgramArtifacts::build(&src);
        let plan = art.analysis.tgd_plan(None);
        let mut nulls = ndl_chase::NullFactory::new();
        let run = || ndl_chase::chase_fixpoint_delta(&art.source, &art.tgds, &plan, &mut nulls);
        let (res, allocs) = counting(run);
        assert!(res.is_ok());
        allocs as f64 / art.source.len() as f64
    };
    let recompute = |scratch: bool| {
        let opts = IncrOptions {
            scratch,
            ..IncrOptions::default()
        };
        let mut db = IncrDb::new(&src, opts).expect("session loads");
        db.query(QueryKey::Chase);
        assert!(db.insert_fact("U(fresh)").expect("insert applies"));
        let (out, allocs) = counting(|| db.query(QueryKey::Chase));
        assert!(out.stdout.starts_with("fixpoint: "), "{out:?}");
        allocs as f64 / db.fact_count() as f64
    };
    let (direct, text) = (recompute(false), recompute(true));
    let shown = format!(
        "allocations per source fact: {direct:.2} memoized recompute, {text:.2} text path, \
         {chase:.2} the chase alone"
    );
    assert!(direct - chase <= 0.25, "{shown}");
    assert!(direct < 2.0 && direct < text, "{shown}");
}
