//! Measures the semi-naive delta chase (sequential and sharded-parallel)
//! against the naive rescan engine on closure and pipeline workloads in
//! the 10⁵–10⁶ fact range. **Output identity is asserted before any
//! timing**: all three engines must produce the same instance, bit for
//! bit (`NullId`s included), the same round count and the same derived
//! count, or the run fails. The results land in `BENCH_delta.json`
//! (committed under `experiments/`; see `docs/performance.md`).
//!
//! The gate: on every workload marked `gate_5x`, the sequential delta
//! engine must beat the naive engine by ≥ 5×, and the record's `passed`
//! flag carries the verdict. Workloads:
//!
//! - `tc/<n>` — linear transitive closure `E(x,y) & P(y,z) -> P(x,z)`
//!   over an `n`-edge chain, `P` seeded with `E`: ~n²/2 final facts over
//!   ~n rounds. The naive engine rescans the ever-growing `P` every
//!   round (Θ(n·|P|) total work); the delta engine touches each new `P`
//!   fact once plus the root scan — the textbook semi-naive win.
//! - `pipeline/<d>x<m>` — a depth-`d` existential pipeline over `m`
//!   disjoint seed pairs: d·m derived facts in d+1 rounds. The naive
//!   engine rescans every completed stage each round (Θ(d²·m) matches
//!   vs the delta engine's Θ(d·m)), so the win scales with depth. At
//!   48 × 21 000 the chase crosses 10⁶ facts and still completes under
//!   the default (no) budget — the plan is guaranteed terminating.
//!
//! Sources are built programmatically (`ndl_gen::{successor,
//! disjoint_pairs}`) so the parser never sees 10⁵ `fact:` lines; the
//! small program text still goes through the analyzer for the real plan.
//!
//! Speedups are honest about hardware: `threads_available` is recorded
//! in every row, and on a 1-CPU host the sharded-parallel column is
//! expected to trail the sequential delta engine slightly.
//!
//! Pass an output directory as the first argument to write elsewhere
//! (e.g. `bench_delta target/experiments` for a throwaway run).

use ndl_analyze::{parse_program, ChaseAnalysis};
use ndl_bench::ExperimentRecord;
use ndl_chase::{
    chase_fixpoint, chase_fixpoint_delta, chase_fixpoint_delta_parallel_with, ChaseConfig,
    ChasePlan, NullFactory,
};
use ndl_core::prelude::*;
use ndl_gen::{disjoint_pairs, successor};
use ndl_obs::NoopObserver;
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

/// One bench workload: a parsed program (for the analyzer's plan) over a
/// programmatically built source.
struct Workload {
    name: String,
    source: Instance,
    tgds: Vec<SoTgd>,
    plan: ChasePlan,
    reps: u32,
    /// Is this row subject to the ≥ 5× sequential-delta gate?
    gate_5x: bool,
}

/// Pairs a programmatically built `source` with an empty program; the
/// caller fills `tgds` and `plan` via [`analyze_into`].
fn prepare(name: &str, source: Instance, reps: u32, gate_5x: bool) -> Workload {
    Workload {
        name: name.to_string(),
        source,
        tgds: Vec::new(),
        plan: ChasePlan::trusting(0),
        reps,
        gate_5x,
    }
}

/// Linear transitive closure over an `edges`-edge chain.
fn tc_workload(syms: &mut SymbolTable, edges: usize, reps: u32) -> Workload {
    let text = "E(x,y) & P(y,z) -> P(x,z)";
    let e = syms.rel("E");
    let p = syms.rel("P");
    let mut source = successor(syms, e, edges + 1, "n");
    for f in successor(syms, p, edges + 1, "n").facts() {
        source.insert(f.to_fact());
    }
    let mut w = prepare(&format!("tc/{edges}"), source, reps, true);
    analyze_into(syms, text, &mut w);
    w
}

/// A depth-`depth` existential pipeline over `seeds` disjoint pairs.
fn pipeline_workload(syms: &mut SymbolTable, depth: usize, seeds: usize, reps: u32) -> Workload {
    let mut text = String::new();
    for i in 0..depth {
        let _ = writeln!(text, "S{i}(x,y) -> exists z S{}(y,z)", i + 1);
    }
    let s0 = syms.rel("S0");
    let source = disjoint_pairs(syms, s0, seeds, "p");
    let mut w = prepare(&format!("pipeline/{depth}x{seeds}"), source, reps, true);
    analyze_into(syms, &text, &mut w);
    w
}

/// Runs the analyzer over `text` and installs the grouped SO tgds and the
/// plan (schedule attached, no step budget — every workload here is
/// guaranteed terminating) into `w`.
fn analyze_into(syms: &mut SymbolTable, text: &str, w: &mut Workload) {
    let (stmts, errs) = parse_program(syms, text);
    assert!(errs.is_empty(), "{}: program parses", w.name);
    let analysis = ChaseAnalysis::analyze(syms, &stmts);
    w.tgds = analysis.so_tgds().into_iter().map(|(_, t)| t).collect();
    w.plan = analysis.tgd_plan(None);
    // The workload's source is not part of `text`, so the dataflow
    // certificate (derived from the program's own facts) would claim
    // every statement dead and the engines would reject it.
    w.plan.cert = None;
    assert!(
        w.plan.guaranteed_terminating,
        "{}: bench workloads must complete under the default (no) budget",
        w.name
    );
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "experiments".into());
    let cfg = ChaseConfig::from_env();
    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut record = ExperimentRecord::new(
        "BENCH_delta",
        "semi-naive delta chase (sequential and sharded-parallel) vs the naive rescan \
         engine on 10^5-10^6 fact closure and pipeline workloads",
        "output identity (instance, NullIds, rounds, derived) is asserted for all three \
         engines before any timing; the gate requires sequential delta >= 5x naive on \
         gated workloads; threads_available records the hardware the parallel column ran on",
    );

    let mut syms = SymbolTable::new();
    let workloads = vec![
        tc_workload(&mut syms, 450, 2),
        pipeline_workload(&mut syms, 48, 2_500, 3),
        pipeline_workload(&mut syms, 48, 21_000, 1),
    ];

    println!(
        "semi-naive delta chase, {} worker thread(s), {} shard(s), {} CPU(s) (mean ms per run)\n",
        cfg.threads,
        cfg.shards.map_or("auto".to_string(), |s| s.to_string()),
        threads_available
    );
    println!(
        "  workload            facts  derived  rounds   naive ms   delta ms  dpar ms  speedup"
    );
    let mut all_pass = true;
    for w in &workloads {
        // Output identity first: an engine that changes one NullId or
        // round count disqualifies the workload from timing at all.
        let mut n_naive = NullFactory::new();
        let naive =
            chase_fixpoint(&w.source, &w.tgds, &w.plan, &mut n_naive).expect("workload terminates");
        let mut n_delta = NullFactory::new();
        let delta = chase_fixpoint_delta(&w.source, &w.tgds, &w.plan, &mut n_delta)
            .expect("workload terminates");
        let mut n_dpar = NullFactory::new();
        let dpar = chase_fixpoint_delta_parallel_with(
            &w.source,
            &w.tgds,
            &w.plan,
            &mut n_dpar,
            &cfg,
            &mut NoopObserver,
        )
        .expect("workload terminates");
        let identical = naive.instance == delta.instance
            && naive.instance == dpar.instance
            && naive.rounds == delta.rounds
            && naive.rounds == dpar.rounds
            && naive.derived == delta.derived
            && naive.derived == dpar.derived
            && n_naive.len() == n_delta.len()
            && n_naive.len() == n_dpar.len();
        assert!(identical, "{}: delta output diverged from naive", w.name);

        let naive_secs = time(w.reps, || {
            let mut nulls = NullFactory::new();
            chase_fixpoint(&w.source, &w.tgds, &w.plan, &mut nulls)
                .expect("workload terminates")
                .instance
                .len()
        });
        let delta_secs = time(w.reps, || {
            let mut nulls = NullFactory::new();
            chase_fixpoint_delta(&w.source, &w.tgds, &w.plan, &mut nulls)
                .expect("workload terminates")
                .instance
                .len()
        });
        let dpar_secs = time(w.reps, || {
            let mut nulls = NullFactory::new();
            chase_fixpoint_delta_parallel_with(
                &w.source,
                &w.tgds,
                &w.plan,
                &mut nulls,
                &cfg,
                &mut NoopObserver,
            )
            .expect("workload terminates")
            .instance
            .len()
        });
        let speedup = naive_secs / delta_secs;
        let gate_ok = !w.gate_5x || speedup >= 5.0;
        all_pass &= gate_ok;
        println!(
            "  {:<18} {:>7}  {:>7}  {:>6}  {:>9.1}  {:>9.1}  {:>7.1}  {:>6.1}x{}",
            w.name,
            naive.instance.len(),
            naive.derived,
            naive.rounds,
            naive_secs * 1e3,
            delta_secs * 1e3,
            dpar_secs * 1e3,
            speedup,
            if gate_ok { "" } else { "  << below 5x gate" }
        );
        record.row(&[
            ("workload", w.name.clone()),
            ("facts", naive.instance.len().to_string()),
            ("derived", naive.derived.to_string()),
            ("rounds", naive.rounds.to_string()),
            ("identical", identical.to_string()),
            ("naive_ms", format!("{:.3}", naive_secs * 1e3)),
            ("delta_ms", format!("{:.3}", delta_secs * 1e3)),
            ("delta_parallel_ms", format!("{:.3}", dpar_secs * 1e3)),
            ("speedup_delta", format!("{speedup:.2}")),
            (
                "speedup_delta_parallel",
                format!("{:.2}", naive_secs / dpar_secs),
            ),
            ("gate_5x", w.gate_5x.to_string()),
            ("gate_ok", gate_ok.to_string()),
            ("workers", cfg.threads.to_string()),
            (
                "shards",
                cfg.shards.map_or("auto".to_string(), |s| s.to_string()),
            ),
            ("threads_available", threads_available.to_string()),
        ]);
    }

    println!(
        "\n=> identity asserted on every workload; 5x gate: {}",
        if all_pass { "pass" } else { "FAIL" }
    );
    record.passed = all_pass;
    let path = record
        .write_to(std::path::Path::new(&out_dir))
        .expect("record written");
    println!("record: {}", path.display());
    if !all_pass {
        std::process::exit(1);
    }
}
