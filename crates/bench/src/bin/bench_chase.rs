//! Measures the planned fixpoint chase on structured workloads —
//! transitive-closure paths (quadratic fact growth, no nulls) and
//! existential pipeline chains (null-producing, one stage per round) —
//! and quantifies the cost of the observability layer by running every
//! workload twice: once with the no-op observer and once collecting
//! [`ChaseStats`]. Each workload's fixpoint is then rendered as
//! `ndl chase` prints it (one [`NullFactory::write_fact_lines`] pass),
//! after asserting that the text equals the structural rendering
//! ([`NullFactory::term`] per null). The results land in
//! `BENCH_chase.json` (committed
//! under `experiments/`; see `docs/performance.md` and
//! `docs/observability.md`).
//!
//! Pass an output directory as the first argument to write elsewhere
//! (e.g. `bench_chase target/experiments` for a throwaway run).

use ndl_analyze::{parse_program, ChaseAnalysis, StmtAst};
use ndl_bench::ExperimentRecord;
use ndl_chase::{chase_fixpoint_with, ChasePlan, NullFactory};
use ndl_core::prelude::*;
use ndl_obs::{ChaseStats, NoopObserver};
use std::fmt::Write as _;
use std::time::Instant;

/// Mean seconds per call over `reps` calls (plus one warm-up).
fn time<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// A path of `n` edges closed under transitivity: the chase derives all
/// n(n+1)/2 reachability pairs with no nulls, so trigger matching and
/// deduplication dominate.
fn tc_path(n: usize) -> String {
    let mut text = String::from("E(x,y) & E(y,z) -> E(x,z)\n");
    for i in 0..n {
        let _ = writeln!(text, "fact: E(v{i}, v{})", i + 1);
    }
    text
}

/// A `depth`-stage existential pipeline seeded with `seeds` facts: each
/// round pushes every chain one stage forward and interns one null per
/// firing, so null interning and per-round bookkeeping dominate.
fn pipeline_chain(depth: usize, seeds: usize) -> String {
    let mut text = String::new();
    for i in 0..depth {
        let _ = writeln!(text, "S{i}(x,y) -> exists z S{}(y,z)", i + 1);
    }
    for j in 0..seeds {
        let _ = writeln!(text, "fact: S0(c{j}, d{j})");
    }
    text
}

/// Parses a workload program and derives source instance, grouped SO
/// tgds and the analyzer's chase plan — the same pipeline the
/// `ndl chase <file>` subcommand runs.
fn prepare(text: &str) -> (SymbolTable, Instance, Vec<SoTgd>, ChasePlan) {
    let mut syms = SymbolTable::new();
    let (stmts, errs) = parse_program(&mut syms, text);
    assert!(errs.is_empty(), "workload programs parse");
    let analysis = ChaseAnalysis::analyze(&mut syms, &stmts);
    let mut source = Instance::new();
    for s in &stmts {
        if let Some(StmtAst::Fact(f)) = &s.ast {
            source.insert(f.clone());
        }
    }
    let tgds = analysis.so_tgds().into_iter().map(|(_, t)| t).collect();
    let plan = analysis.tgd_plan(Some(10_000_000));
    (syms, source, tgds, plan)
}

/// The fact listing rebuilt structurally: each null's ground term from
/// [`NullFactory::term`], `_Nk` where it has none.
fn structural_listing(inst: &Instance, nulls: &NullFactory, syms: &SymbolTable) -> String {
    let mut out = String::new();
    for fact in inst.facts() {
        let args: Vec<String> = fact
            .args
            .iter()
            .map(|&v| match v {
                Value::Const(c) => syms.const_name(c).to_string(),
                Value::Null(n) => match nulls.term(n) {
                    Some(t) => t.display(syms).to_string(),
                    None => format!("_N{}", n.0),
                },
            })
            .collect();
        let _ = writeln!(out, "  {}({})", syms.rel_name(fact.rel), args.join(","));
    }
    out
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "experiments".into());
    let mut record = ExperimentRecord::new(
        "BENCH_chase",
        "planned fixpoint chase on TC paths and pipeline chains, no-op observer vs. ChaseStats",
        "observability must be pay-as-you-go: the stats sink adds only per-statement \
         clock reads and counter bumps on top of the no-op run",
    );

    let workloads: Vec<(String, String, u32)> = vec![
        ("tc-path/60".into(), tc_path(60), 20),
        ("tc-path/120".into(), tc_path(120), 10),
        ("tc-path/240".into(), tc_path(240), 5),
        ("pipeline/24x16".into(), pipeline_chain(24, 16), 20),
        ("pipeline/12x400".into(), pipeline_chain(12, 400), 20),
    ];

    println!("planned fixpoint chase (mean ms per run)\n");
    println!(
        "  workload          facts  derived  rounds   noop ms  stats ms  overhead  \
         render ms  render MB/s"
    );
    let mut max_overhead = 0.0f64;
    for (name, text, reps) in &workloads {
        let (syms, source, tgds, plan) = prepare(text);
        let run_noop = || {
            let mut nulls = NullFactory::new();
            let mut obs = NoopObserver;
            chase_fixpoint_with(&source, &tgds, &plan, &mut nulls, &mut obs)
                .expect("workload terminates")
                .instance
                .len()
        };
        let noop_secs = time(*reps, run_noop);
        let facts = run_noop();
        let mut stats = ChaseStats::new();
        let stats_secs = time(*reps, || {
            stats = ChaseStats::new();
            let mut nulls = NullFactory::new();
            chase_fixpoint_with(&source, &tgds, &plan, &mut nulls, &mut stats)
                .expect("workload terminates")
                .instance
                .len()
        });
        let overhead = (stats_secs - noop_secs) / noop_secs * 100.0;
        max_overhead = max_overhead.max(overhead);

        let mut nulls = NullFactory::new();
        let res = chase_fixpoint_with(&source, &tgds, &plan, &mut nulls, &mut NoopObserver)
            .expect("workload terminates");
        let render = || {
            let mut out = String::new();
            nulls.write_fact_lines(res.instance.facts(), &syms, "  ", &mut out);
            out
        };
        let listing = render();
        assert_eq!(
            listing,
            structural_listing(&res.instance, &nulls, &syms),
            "{name}: the one-pass listing differs from the structural rendering"
        );
        let render_secs = time(*reps, render);
        let render_mb_per_s = listing.len() as f64 / render_secs / 1e6;
        println!(
            "  {:<16} {:>6}  {:>7}  {:>6}  {:>8.3}  {:>8.3}  {:>7.1}%  {:>9.3}  {:>11.1}",
            name,
            facts,
            stats.derived,
            stats.rounds,
            noop_secs * 1e3,
            stats_secs * 1e3,
            overhead,
            render_secs * 1e3,
            render_mb_per_s
        );
        record.row(&[
            ("workload", name.clone()),
            ("facts", facts.to_string()),
            ("derived", stats.derived.to_string()),
            ("rounds", stats.rounds.to_string()),
            ("triggers_examined", stats.triggers_examined.to_string()),
            ("noop_ms", format!("{:.3}", noop_secs * 1e3)),
            ("stats_ms", format!("{:.3}", stats_secs * 1e3)),
            ("overhead_pct", format!("{overhead:.1}")),
            ("render_bytes", listing.len().to_string()),
            ("render_ms", format!("{:.3}", render_secs * 1e3)),
            ("render_mb_per_s", format!("{render_mb_per_s:.1}")),
        ]);
    }

    // Acceptance: the stats sink stays within noise of the no-op run.
    // Clock reads are per statement per round, so the bound is loose
    // enough to survive a busy CI container but catches accidental
    // per-trigger work sneaking into the hot loop.
    let passed = max_overhead < 50.0;
    println!(
        "\n=> stats-sink overhead within noise (max {:.1}% < 50%): {}",
        max_overhead,
        if passed { "pass" } else { "FAIL" }
    );
    record.passed = passed;
    let path = record
        .write_to(std::path::Path::new(&out_dir))
        .expect("record written");
    println!("record: {}", path.display());
    if !passed {
        std::process::exit(1);
    }
}
