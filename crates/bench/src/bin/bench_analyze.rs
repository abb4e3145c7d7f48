//! Measures the semantic-analysis pipeline (parse → position/Skolem
//! graphs → termination class → cost bounds → firing order → conflict
//! graph → schedule → dataflow) on generated dependency programs of
//! 10¹ – 10³ statements, plus a dead-code-heavy 10³-statement program,
//! and records the throughput and per-pass split as `BENCH_analyze.json`
//! (committed under `experiments/`; see `docs/performance.md`).
//!
//! Pass an output directory as the first argument to write elsewhere
//! (e.g. `bench_analyze target/experiments` for a throwaway run).
//!
//! Gate: the per-statement cost of every 10³-statement row stays within
//! 20× of the cost at 10 statements (near-linear scaling). The binary
//! exits non-zero when the gate fails, so a return to quadratic analysis
//! fails CI.

use ndl_analyze::{ChaseAnalysis, PassTimings};
use ndl_bench::ExperimentRecord;
use ndl_core::prelude::*;
use ndl_gen::{random_program, random_program_with_dead_code, ProgramGenOptions};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Mean seconds per analysis over `reps` runs (plus one warm-up), and the
/// mean per-pass split in milliseconds.
fn time(reps: u32, text: &str) -> (f64, Vec<(&'static str, f64)>) {
    let run = || {
        let mut syms = SymbolTable::new();
        ChaseAnalysis::analyze_source(&mut syms, text).0.passes_ns
    };
    std::hint::black_box(run());
    let mut sum = [0u64; 7];
    let start = Instant::now();
    for _ in 0..reps {
        for (acc, (_, ns)) in sum.iter_mut().zip(passes(&std::hint::black_box(run()))) {
            *acc += ns;
        }
    }
    let secs = start.elapsed().as_secs_f64() / f64::from(reps);
    let split = passes(&PassTimings::default())
        .iter()
        .zip(sum)
        .map(|(&(name, _), ns)| (name, ns as f64 / 1e6 / f64::from(reps)))
        .collect();
    (secs, split)
}

fn passes(t: &PassTimings) -> [(&'static str, u64); 7] {
    [
        ("graphs", t.graphs),
        ("termination", t.termination),
        ("cost", t.cost),
        ("firing_order", t.firing_order),
        ("interference", t.interference),
        ("schedule", t.schedule),
        ("dataflow", t.dataflow),
    ]
}

fn main() -> ExitCode {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "experiments".into());
    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut record = ExperimentRecord::new(
        "BENCH_analyze",
        "full semantic analysis (graphs, termination, cost, firing order, conflict graph, \
         schedule, dataflow) on generated programs",
        "static analysis should stay near-linear up to 10^3-statement programs",
    );

    let opts = |n: usize| ProgramGenOptions {
        statements: n,
        relations: (n / 4).max(4),
        seed: 42,
        ..Default::default()
    };
    // Dead-code row: 250 generated statements padded with 500 statements
    // over never-populated relations (plus the generator's interleaved
    // copy rules) — about 10^3 statements, two thirds of them dead.
    let workloads: Vec<(&str, String)> = vec![
        ("random", random_program(&opts(10))),
        ("random", random_program(&opts(100))),
        ("random", random_program(&opts(1_000))),
        ("dead-code", random_program_with_dead_code(&opts(250), 500)),
    ];

    println!(
        "semantic analysis throughput (mean ms per run, {threads_available} thread(s) available)\n"
    );
    println!("  program     statements   positions   class            ms    stmts/s   dead");
    let mut ms_per_stmt = Vec::new();
    for (family, text) in &workloads {
        let mut syms = SymbolTable::new();
        let (analysis, _) = ChaseAnalysis::analyze_source(&mut syms, text);
        let report = analysis.report(&syms);
        let n = report.statements;
        let reps = if n <= 100 { 200 } else { 20 };
        let (secs, split) = time(reps, text);
        let ms = secs * 1e3;
        ms_per_stmt.push(ms / n as f64);
        println!(
            "  {:<10}  {:>10}   {:>9}   {:<14} {:>6.3}   {:>8.0}   {:>4}",
            family,
            n,
            report.positions,
            report.class,
            ms,
            n as f64 / secs,
            analysis.dataflow.dead.len()
        );
        let split_line: Vec<String> = split
            .iter()
            .map(|(name, ms)| format!("{name} {ms:.3}"))
            .collect();
        println!("              passes (ms): {}", split_line.join(", "));
        let mut row = vec![
            ("program", family.to_string()),
            ("statements", n.to_string()),
            ("positions", report.positions.to_string()),
            ("clauses", report.clauses.to_string()),
            ("class", report.class.clone()),
            ("dead", analysis.dataflow.dead.len().to_string()),
            (
                "conflict_edges",
                analysis.interference.edges.len().to_string(),
            ),
            ("skolem_edges", report.skolem_edges.to_string()),
            ("ms", format!("{ms:.3}")),
            ("stmts_per_sec", format!("{:.0}", n as f64 / secs)),
        ];
        for (name, ms) in &split {
            row.push((*name, format!("{ms:.3}")));
        }
        row.push(("threads_available", threads_available.to_string()));
        record.row(&row);
    }

    // Acceptance: scaling stays near-linear — the per-statement cost of
    // every 10³-statement program is within 20x of the cost at 10
    // statements.
    let passed = ms_per_stmt[2..].iter().all(|&c| c <= ms_per_stmt[0] * 20.0);
    println!(
        "\n=> near-linear scaling to 10^3 statements: {} (per-statement cost {:.1}x / {:.1}x of the 10-statement row)",
        if passed { "yes ✓" } else { "NO" },
        ms_per_stmt[2] / ms_per_stmt[0],
        ms_per_stmt[3] / ms_per_stmt[0],
    );
    record.passed = passed;
    match record.write_to(Path::new(&out_dir)) {
        Ok(path) => println!("record written to {}", path.display()),
        Err(e) => eprintln!("could not write record: {e}"),
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
