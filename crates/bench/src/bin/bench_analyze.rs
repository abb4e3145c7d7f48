//! Measures the semantic-analysis pipeline (parse → position/Skolem
//! graphs → termination class → cost bounds → firing order → conflict
//! graph → schedule → dataflow) on generated dependency programs of
//! 10¹ – 10³ statements, plus a dead-code-heavy 10³-statement program,
//! and records the throughput and per-pass split as `BENCH_analyze.json`
//! (committed under `experiments/`; see `docs/performance.md`).
//!
//! A second table times the analysis behind `ndl chase` on the dead-code
//! programs of the `exchange` benchmark (40 live statements padded with
//! 300 and 600 dead ones, see [`ndl_bench::dead_code_program`]): the
//! median milliseconds of each analysis pass, of `so_tgds` and of
//! `tgd_plan`, and the heap allocations of all three. Every iteration's
//! analysis, schedule and dataflow reports are asserted equal to the
//! first iteration's before its timings count.
//!
//! A third table times the front end of `ndl chase` on fact-heavy
//! programs — the flat Clio mapping over 1000 and 2000 departments, one
//! `fact:` statement per source fact — split as `ProgramArtifacts::build`
//! runs it: parse, analysis, source-instance extraction, and freeing it
//! all again, with the heap allocations the build makes (a counting
//! global allocator is installed). Every iteration's analysis report and
//! source listing are asserted equal to `ProgramArtifacts::build`'s
//! before its timings count.
//!
//! Pass an output directory as the first argument to write elsewhere
//! (e.g. `bench_analyze target/experiments` for a throwaway run). With
//! `--parent <record>`, the dead-code and fact-heavy rows of an earlier
//! record (the same binary built on the parent commit) are copied in,
//! labelled `"build": "parent"`, beside this build's rows.
//!
//! Gate: the per-statement cost of every 10³-statement row stays within
//! 20× of the cost at 10 statements (near-linear scaling). The binary
//! exits non-zero when the gate fails, so a return to quadratic analysis
//! fails CI.

use ndl_analyze::{parse_program, ChaseAnalysis, PassTimings, ProgramArtifacts, StmtAst};
use ndl_bench::alloc::{allocations, CountingAlloc};
use ndl_bench::{dead_code_program, ExperimentRecord};
use ndl_chase::NullFactory;
use ndl_core::prelude::*;
use ndl_gen::{clio_scenario, random_program, random_program_with_dead_code, ProgramGenOptions};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

/// Median of a column of timings.
fn median(col: &mut [f64]) -> f64 {
    col.sort_by(f64::total_cmp);
    col[col.len() / 2]
}

/// The dead-code rows: median milliseconds per analysis pass, of
/// `so_tgds` and of `tgd_plan` over `reps` runs (after one warm-up), and
/// the allocations of the three; each run's reports asserted equal to the
/// first run's.
fn dead_code_rows(record: &mut ExperimentRecord, threads_available: usize) {
    println!("\ndead-code analysis: exchange-shaped programs (median ms per run)\n");
    println!(
        "  dead  statements  graphs   term   cost  order  inter  sched  dflow  so_tgds  tgd_plan   total   allocs"
    );
    for dead in [300, 600] {
        let text = dead_code_program(dead, 1);
        let mut syms = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut syms, &text);
        assert!(errs.is_empty(), "the dead-code program parses");
        let reps = 31;
        // Seven passes, then so_tgds, tgd_plan and the total.
        let mut cols: [Vec<f64>; 10] = Default::default();
        let mut want = None;
        let mut allocs = 0;
        for rep in 0..=reps {
            let mut syms = SymbolTable::new();
            let (stmts, _) = parse_program(&mut syms, &text);
            let before = allocations();
            let t = Instant::now();
            let analysis = ChaseAnalysis::analyze(&mut syms, &stmts);
            let analyzed = t.elapsed();
            let t = Instant::now();
            let tgds = std::hint::black_box(analysis.so_tgds());
            let so_tgds = t.elapsed();
            let t = Instant::now();
            let plan = std::hint::black_box(analysis.tgd_plan(None));
            let tgd_plan = t.elapsed();
            let n = allocations() - before;
            let got = (
                analysis.report(&syms).to_json(),
                analysis.schedule_report(&syms).to_json(),
                analysis.dataflow_summary(&syms).to_json(),
                tgds.len(),
                plan.order,
            );
            match &want {
                None => want = Some(got),
                Some(w) => assert!(*w == got, "analysis reports differ between runs"),
            }
            if rep == 0 {
                continue;
            }
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            let split = passes(&analysis.passes_ns).map(|(_, ns)| ns as f64 / 1e6);
            let total = ms(analyzed) + ms(so_tgds) + ms(tgd_plan);
            let row = split.into_iter().chain([ms(so_tgds), ms(tgd_plan), total]);
            for (col, x) in cols.iter_mut().zip(row) {
                col.push(x);
            }
            allocs = n;
        }
        let med: Vec<f64> = cols.iter_mut().map(|c| median(c)).collect();
        let cell: Vec<String> = med.iter().map(|x| format!("{x:.3}")).collect();
        println!(
            "  {dead:>4}  {:>10}  {}  {allocs:>7}",
            stmts.len(),
            cell.iter()
                .zip([6, 5, 5, 5, 5, 5, 5, 7, 8, 6])
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        );
        let mut row = vec![
            ("program", "dead-code".to_string()),
            ("build", "this".to_string()),
            ("dead", dead.to_string()),
            ("statements", stmts.len().to_string()),
        ];
        for ((name, _), c) in passes(&PassTimings::default()).iter().zip(&cell) {
            row.push((name, c.clone()));
        }
        row.extend([
            ("so_tgds", cell[7].clone()),
            ("tgd_plan", cell[8].clone()),
            ("total_ms", cell[9].clone()),
            ("allocs", allocs.to_string()),
            (
                "allocs_per_statement",
                format!("{:.2}", allocs as f64 / stmts.len() as f64),
            ),
            ("threads_available", threads_available.to_string()),
        ]);
        record.row(&row);
    }
}

/// The flat Clio mapping over `depts` departments (about two employees
/// and two projects each) as a program file: its three tgds, then one
/// `fact:` statement per source fact — the shape of the `exchange`
/// benchmark's Clio jobs.
fn clio_flat_program(depts: usize) -> String {
    let mut syms = SymbolTable::new();
    let sc = clio_scenario(&mut syms, depts, 2, 1);
    let mut src = String::new();
    for t in &sc.flat.tgds {
        let _ = writeln!(src, "{}", t.display(&syms));
    }
    NullFactory::new().write_fact_lines(sc.source.facts(), &syms, "fact: ", &mut src);
    src
}

/// What one front-end run leaves, rendered for the identity check: the
/// analysis report as JSON and the source instance's fact listing.
fn outputs(syms: &SymbolTable, analysis: &ChaseAnalysis, source: &Instance) -> (String, String) {
    let report = serde_json::to_string(&analysis.report(syms)).expect("report serializes");
    let mut listing = String::new();
    NullFactory::new().write_fact_lines(source.facts(), syms, "", &mut listing);
    (report, listing)
}

/// One front-end run, split as `ProgramArtifacts::build` runs it:
/// milliseconds of parse, analysis, source extraction and drop, the
/// allocations of the build (drop excluded), and its outputs.
fn front_end(text: &str) -> ([f64; 4], u64, (String, String)) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let allocs = allocations();
    let t = Instant::now();
    let mut syms = SymbolTable::new();
    let (stmts, errs) = parse_program(&mut syms, text);
    let parse_errors: Vec<(usize, String)> =
        errs.iter().map(|(i, e)| (*i, e.to_string())).collect();
    let parse = ms(t);
    let t = Instant::now();
    let analysis = ChaseAnalysis::analyze(&mut syms, &stmts);
    let analyze = ms(t);
    let t = Instant::now();
    let mut source = Instance::new();
    let mut egds = Vec::new();
    for s in &stmts {
        match &s.ast {
            Some(StmtAst::Fact(f)) => {
                source.insert_tuple(f.rel, &f.args);
            }
            Some(StmtAst::Egd(e)) => egds.push(e.clone()),
            _ => {}
        }
    }
    let tgds: Vec<SoTgd> = analysis.so_tgds().into_iter().map(|(_, t)| t).collect();
    let source_ms = ms(t);
    let allocs = allocations() - allocs;
    let out = outputs(&syms, &analysis, &source);
    let t = Instant::now();
    drop(std::hint::black_box((
        syms,
        stmts,
        parse_errors,
        analysis,
        source,
        egds,
        tgds,
    )));
    ([parse, analyze, source_ms, ms(t)], allocs, out)
}

/// The fact-heavy rows: median milliseconds per front-end phase over
/// `reps` runs (after one warm-up), each run's outputs asserted equal to
/// `ProgramArtifacts::build`'s first.
fn fact_heavy_rows(record: &mut ExperimentRecord, threads_available: usize) {
    println!("\nfact-heavy front end: flat Clio programs (median ms per run)\n");
    println!(
        "  departments  statements  facts   parse   analyze  source    drop   total     allocs"
    );
    for depts in [1000, 2000] {
        let text = clio_flat_program(depts);
        let art = ProgramArtifacts::build(&text);
        let want = outputs(&art.syms, &art.analysis, &art.source);
        let (statements, facts) = (art.stmts.len(), art.source.len());
        drop(art);
        let reps = 21;
        let mut phases: [Vec<f64>; 4] = Default::default();
        let mut allocs = 0;
        for rep in 0..=reps {
            let (ms, n, out) = front_end(&text);
            assert!(
                out == want,
                "front-end outputs differ from ProgramArtifacts::build"
            );
            if rep == 0 {
                continue;
            }
            for (col, ms) in phases.iter_mut().zip(ms) {
                col.push(ms);
            }
            allocs = n;
        }
        let med: Vec<f64> = phases.iter_mut().map(|col| median(col)).collect();
        let total: f64 = med.iter().sum();
        println!(
            "  {depts:>11}  {statements:>10}  {facts:>5}  {:>6.2}  {:>8.2}  {:>6.2}  {:>6.2}  {total:>6.2}  {allocs:>9}",
            med[0], med[1], med[2], med[3]
        );
        record.row(&[
            ("program", "clio-flat".to_string()),
            ("build", "this".to_string()),
            ("departments", depts.to_string()),
            ("statements", statements.to_string()),
            ("facts", facts.to_string()),
            ("bytes", text.len().to_string()),
            ("parse_ms", format!("{:.3}", med[0])),
            ("analyze_ms", format!("{:.3}", med[1])),
            ("source_ms", format!("{:.3}", med[2])),
            ("drop_ms", format!("{:.3}", med[3])),
            ("total_ms", format!("{total:.3}")),
            ("allocs", allocs.to_string()),
            ("threads_available", threads_available.to_string()),
        ]);
    }
}

/// Copies the dead-code and fact-heavy rows of the record at `path`,
/// relabelled `"build": "parent"`.
fn parent_rows(record: &mut ExperimentRecord, path: &str) -> std::result::Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parent: ExperimentRecord =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    for row in parent.rows {
        if !row.iter().any(|(k, _)| k == "build") {
            continue;
        }
        record.rows.push(
            row.into_iter()
                .map(|(k, v)| {
                    let v = if k == "build" {
                        "parent".to_string()
                    } else {
                        v
                    };
                    (k, v)
                })
                .collect(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parent = args
        .iter()
        .position(|a| a == "--parent")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default());
    let out_dir = args
        .iter()
        .enumerate()
        .find(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1] != "--parent"))
        .map_or_else(|| "experiments".into(), |(_, a)| a.clone());
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
    if let Some(path) = parent {
        if let Err(e) = parent_rows(&mut record, &path) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    dead_code_rows(&mut record, threads_available);
    fact_heavy_rows(&mut record, threads_available);
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
