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
//! A second table follows a user path: `clio-flat/<d>` and
//! `clio-nested/<d>` are the Clio programs of the `exchange` benchmark
//! (the flat or nested mapping over `d` departments, one `fact:` statement
//! per source fact; [`ndl_bench::clio_program`]), built through
//! `ProgramArtifacts` as `ndl chase` builds them and chased with the
//! sequential delta engine. Before any timing, the rendered listing is
//! asserted equal to `ndl chase`'s output (`eval::chase_program`). Each row
//! splits the median run into build (artifacts and plan), index build
//! (after the certificate check), match rounds, round commits, render and
//! drop (of the result, the nulls, the listing and the artifacts), with
//! the heap allocations of the chase phases and the render (a counting
//! global allocator is installed).
//!
//! Speedups are honest about hardware: `threads_available` is recorded
//! in every row, and on a 1-CPU host the sharded-parallel column is
//! expected to trail the sequential delta engine slightly.
//!
//! Pass an output directory as the first argument to write elsewhere
//! (e.g. `bench_delta target/experiments` for a throwaway run). With
//! `--parent <record>`, the Clio rows of an earlier record (the same
//! bench source built on the parent commit) are copied in, labelled
//! `"build": "parent"`, beside this build's rows. `--clio` runs the Clio
//! rows alone, as such a parent record needs.

use ndl_analyze::{parse_program, ChaseAnalysis, ProgramArtifacts};
use ndl_bench::alloc::{allocations, CountingAlloc};
use ndl_bench::{clio_program, ExperimentRecord};
use ndl_chase::{
    chase_fixpoint, chase_fixpoint_delta, chase_fixpoint_delta_parallel_with,
    chase_fixpoint_delta_with, ChaseConfig, ChasePlan, NullFactory,
};
use ndl_core::prelude::*;
use ndl_gen::{disjoint_pairs, successor};
use ndl_obs::{ChaseObserver, NoopObserver, StmtRound};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

/// Wall time and allocations of one chase, split at the engine's
/// observer events: index build (from the certificate check, or the
/// start, to round 1), match rounds (statement by statement), and round
/// commits (from a round's last statement to its end).
#[derive(Default)]
struct PhaseClock {
    /// When the current phase began, and the allocation count then.
    mark: Option<(Instant, u64)>,
    /// Per phase: nanoseconds and allocations.
    index: (u64, u64),
    rounds: (u64, u64),
    commit: (u64, u64),
}

impl PhaseClock {
    /// Ends the current phase, adding it to `phase`, and starts the next.
    fn lap(&mut self, phase: fn(&mut PhaseClock) -> &mut (u64, u64)) {
        let now = (Instant::now(), allocations());
        if let Some((at, allocs)) = self.mark {
            let p = phase(self);
            p.0 += (now.0 - at).as_nanos() as u64;
            p.1 += now.1 - allocs;
        }
        self.mark = Some(now);
    }
}

impl ChaseObserver for PhaseClock {
    fn chase_start(&mut self, _: usize, _: usize) {
        self.mark = Some((Instant::now(), allocations()));
    }

    fn dataflow_cert(&mut self, _: usize, _: usize) {
        self.mark = Some((Instant::now(), allocations()));
    }

    fn round_start(&mut self, round: usize) {
        if round == 1 {
            self.lap(|c| &mut c.index);
        }
    }

    fn statement_skipped(&mut self, _: usize, _: usize) {
        self.lap(|c| &mut c.rounds);
    }

    fn statement(&mut self, _: &StmtRound) {
        self.lap(|c| &mut c.rounds);
    }

    fn round_end(&mut self, _: usize, _: u64, _: u64) {
        self.lap(|c| &mut c.commit);
    }
}

fn median(col: &mut [f64]) -> f64 {
    col.sort_by(f64::total_cmp);
    col[col.len() / 2]
}

/// The Clio rows: each program chased `reps` times (after one warm-up)
/// the way `ndl chase` chases it, its output asserted equal to
/// `ndl chase`'s first; median milliseconds and allocations per phase.
fn clio_rows(record: &mut ExperimentRecord, threads_available: usize) {
    println!("\nClio programs, as ndl chase runs them (median ms per run)\n");
    println!(
        "  program            facts  derived  nulls   build   index  rounds  commit  render    drop   chase   allocs (index/rounds/commit/render)"
    );
    const PATH: &str = "clio.ndl";
    let cfg = ChaseConfig::default();
    for (flat, depts) in [(true, 1000), (true, 2000), (false, 1000), (false, 2000)] {
        let family = if flat { "clio-flat" } else { "clio-nested" };
        let text = clio_program(depts, 1, flat);
        let want = {
            let art = ProgramArtifacts::build(&text);
            let out = ndl_serve::eval::chase_program(&art, PATH, &[], &cfg, None);
            out.expect("the Clio program chases").stdout
        };
        let reps = 21;
        // build (artifacts and plan), index, rounds, commit, render, drop.
        let mut ms: [Vec<f64>; 6] = Default::default();
        let mut allocs = [0u64; 4];
        let mut counts = (0, 0, 0);
        for rep in 0..=reps {
            let t = Instant::now();
            let art = ProgramArtifacts::build(&text);
            let plan = art.analysis.tgd_plan(None);
            let build_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut nulls = NullFactory::new();
            let mut clock = PhaseClock::default();
            let res =
                chase_fixpoint_delta_with(&art.source, &art.tgds, &plan, &mut nulls, &mut clock)
                    .expect("the Clio program chases");
            let (t, before) = (Instant::now(), allocations());
            let mut out = format!(
                "fixpoint: {} facts ({} derived, {} nulls) in {} rounds\n",
                res.instance.len(),
                res.derived,
                nulls.len(),
                res.rounds
            );
            nulls.write_fact_lines(res.instance.facts(), &art.syms, "  ", &mut out);
            let render = (t.elapsed().as_secs_f64() * 1e3, allocations() - before);
            assert!(
                out == want,
                "{family}/{depts}: output differs from ndl chase"
            );
            counts = (res.instance.len(), res.derived, nulls.len());
            let t = Instant::now();
            drop((res, nulls, out, plan, art));
            let drop_ms = t.elapsed().as_secs_f64() * 1e3;
            if rep == 0 {
                continue;
            }
            let phases = [clock.index, clock.rounds, clock.commit];
            let row = [
                build_ms,
                phases[0].0 as f64 / 1e6,
                phases[1].0 as f64 / 1e6,
                phases[2].0 as f64 / 1e6,
                render.0,
                drop_ms,
            ];
            for (col, v) in ms.iter_mut().zip(row) {
                col.push(v);
            }
            allocs = [phases[0].1, phases[1].1, phases[2].1, render.1];
        }
        let med: Vec<f64> = ms.iter_mut().map(|col| median(col)).collect();
        let chase_ms = med[1] + med[2] + med[3];
        let name = format!("{family}/{depts}");
        println!(
            "  {name:<17} {:>6}  {:>7}  {:>5}  {:>6.2}  {:>6.2}  {:>6.2}  {:>6.2}  {:>6.2}  {:>6.2}  {chase_ms:>6.2}   {}/{}/{}/{}",
            counts.0, counts.1, counts.2, med[0], med[1], med[2], med[3], med[4], med[5],
            allocs[0], allocs[1], allocs[2], allocs[3]
        );
        record.row(&[
            ("workload", name),
            ("build", "this".to_string()),
            ("facts", counts.0.to_string()),
            ("derived", counts.1.to_string()),
            ("nulls", counts.2.to_string()),
            ("identical", "true".to_string()),
            ("build_ms", format!("{:.3}", med[0])),
            ("index_ms", format!("{:.3}", med[1])),
            ("rounds_ms", format!("{:.3}", med[2])),
            ("commit_ms", format!("{:.3}", med[3])),
            ("render_ms", format!("{:.3}", med[4])),
            ("drop_ms", format!("{:.3}", med[5])),
            ("chase_ms", format!("{chase_ms:.3}")),
            ("index_allocs", allocs[0].to_string()),
            ("rounds_allocs", allocs[1].to_string()),
            ("commit_allocs", allocs[2].to_string()),
            ("render_allocs", allocs[3].to_string()),
            ("threads_available", threads_available.to_string()),
        ]);
    }
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

    // The Clio rows run first, so that a parent build's `--clio` run
    // made just before is timed under the same host speed.
    clio_rows(&mut record, threads_available);
    let mut syms = SymbolTable::new();
    let workloads = if args.iter().any(|a| a == "--clio") {
        Vec::new()
    } else {
        vec![
            tc_workload(&mut syms, 450, 2),
            pipeline_workload(&mut syms, 48, 2_500, 3),
            pipeline_workload(&mut syms, 48, 21_000, 1),
        ]
    };

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
    if let Some(path) = parent {
        if let Err(e) = record.push_parent_rows(&path) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let path = record
        .write_to(std::path::Path::new(&out_dir))
        .expect("record written");
    println!("record: {}", path.display());
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
