//! Bit-identity of the semi-naive delta chase — sequential and
//! sharded-parallel — against the naive sequential engine, end to end
//! through the analyzer: same instance (same `NullId`s, not just
//! isomorphic), same round count, same derived count, same error behavior
//! — over the committed example programs and seeded random programs from
//! `ndl-gen`.
//!
//! The container running CI may expose a single CPU, and the engine's
//! sequential cutoff would keep every small test instance on one thread
//! and one shard — so the tests pass an aggressive explicit
//! [`ChaseConfig`] (3 workers, 4 shards, cutoff 1) to force the
//! scoped-thread sharded match path. Configuration is a per-call value,
//! not a process global (see `per_call_configs_both_take_effect` for the
//! regression pinning that).

use ndl_analyze::ChaseAnalysis;
use ndl_chase::{
    chase_fixpoint, chase_fixpoint_delta_parallel_with, chase_fixpoint_delta_with, ChaseConfig,
    ChasePlan, FixpointChase, FixpointError, NullFactory,
};
use ndl_core::prelude::*;
use ndl_gen::{
    random_nested_tgd, random_program, random_program_with_dead_code, ProgramGenOptions,
    TgdGenOptions,
};
use ndl_obs::{ChaseObserver, ChaseStats, NoopObserver, StmtRound};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Forces worker threads and multi-way sharding even for tiny instances
/// on 1-CPU machines.
fn force_sharded_config() -> ChaseConfig {
    ChaseConfig {
        threads: 3,
        sequential_cutoff: 1,
        shards: Some(4),
        ..ChaseConfig::default()
    }
}

type ChaseOutcome = std::result::Result<FixpointChase, FixpointError>;

/// A parsed program: its source facts, its SO tgds and the analyzer's
/// plan (firing order, schedule, dataflow certificate) under `budget`.
fn prepare(src: &str, budget: Option<usize>) -> (Instance, Vec<SoTgd>, ChasePlan) {
    let mut syms = SymbolTable::new();
    let (stmts, _) = ndl_analyze::parse_program(&mut syms, src);
    let analysis = ChaseAnalysis::analyze(&mut syms, &stmts);
    let mut source = Instance::new();
    for s in &stmts {
        if let Some(ndl_analyze::StmtAst::Fact(f)) = &s.ast {
            source.insert(f.clone());
        }
    }
    let tgds: Vec<SoTgd> = analysis.so_tgds().into_iter().map(|(_, t)| t).collect();
    (source, tgds, analysis.tgd_plan(budget))
}

/// Chases `src` with the naive, delta, and delta-parallel engines under
/// the same budget, the delta engines reporting to `obs`; returns the
/// three outcomes plus their null counts.
fn chase_three_observed<O: ChaseObserver>(
    src: &str,
    budget: Option<usize>,
    obs: [&mut O; 2],
) -> ([ChaseOutcome; 3], [usize; 3]) {
    let cfg = force_sharded_config();
    let (source, tgds, plan) = prepare(src, budget);
    let [seq_obs, par_obs] = obs;
    let mut nulls = [NullFactory::new(), NullFactory::new(), NullFactory::new()];
    let naive = chase_fixpoint(&source, &tgds, &plan, &mut nulls[0]);
    let delta = chase_fixpoint_delta_with(&source, &tgds, &plan, &mut nulls[1], seq_obs);
    let par =
        chase_fixpoint_delta_parallel_with(&source, &tgds, &plan, &mut nulls[2], &cfg, par_obs);
    (
        [naive, delta, par],
        [nulls[0].len(), nulls[1].len(), nulls[2].len()],
    )
}

/// [`chase_three_observed`] under the no-op observer.
fn chase_three(src: &str, budget: Option<usize>) -> ([ChaseOutcome; 3], [usize; 3]) {
    chase_three_observed(src, budget, [&mut NoopObserver, &mut NoopObserver])
}

/// Asserts all three outcomes are bit-identical (instance equality
/// compares `NullId`s directly — interning order must match, not just
/// structure).
fn assert_identical(src: &str, budget: Option<usize>) {
    assert_outcomes_identical(src, chase_three(src, budget));
}

fn assert_outcomes_identical(src: &str, outcomes: ([ChaseOutcome; 3], [usize; 3])) {
    let ([naive, delta, par], nulls) = outcomes;
    for (name, other, n) in [
        ("delta", &delta, nulls[1]),
        ("delta-parallel", &par, nulls[2]),
    ] {
        match (&naive, other) {
            (Ok(s), Ok(p)) => {
                assert_eq!(
                    s.instance, p.instance,
                    "{name} instance differs for:\n{src}"
                );
                assert_eq!(s.rounds, p.rounds, "{name} rounds differ for:\n{src}");
                assert_eq!(s.derived, p.derived, "{name} derived differs for:\n{src}");
                assert_eq!(nulls[0], n, "{name} null count differs for:\n{src}");
            }
            (
                Err(FixpointError::BudgetExhausted {
                    budget: b1,
                    progress: p1,
                    ..
                }),
                Err(FixpointError::BudgetExhausted {
                    budget: b2,
                    progress: p2,
                    ..
                }),
            ) => {
                assert_eq!(b1, b2, "{name} budget differs for:\n{src}");
                assert_eq!(p1, p2, "{name} cutoff progress differs for:\n{src}");
            }
            (
                Err(FixpointError::NonTerminating { .. }),
                Err(FixpointError::NonTerminating { .. }),
            ) => {}
            (s, p) => {
                panic!("engines disagree on outcome for:\n{src}\nnaive: {s:?}\n{name}: {p:?}")
            }
        }
    }
}

fn example(name: &str) -> String {
    let path = format!(
        "{}/../../examples/programs/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn example_programs_are_bit_identical() {
    for name in ["running.ndl", "pipeline.ndl"] {
        assert_identical(&example(name), None);
    }
}

#[test]
fn recursive_example_refusal_and_budget_parity() {
    let src = example("recursive.ndl");
    // Without a budget all engines refuse; with one, all cut off at the
    // same round with the same progress.
    assert_identical(&src, None);
    assert_identical(&src, Some(5));
    assert_identical(&src, Some(100));
}

#[test]
fn empty_delta_round_does_not_rescan() {
    // Regression test for the semi-naive work bound: once the chase
    // derives nothing, the final round must prune at the planning stage —
    // candidate tuples touched in that round stay far below one rescan of
    // the instance (the naive engine re-examines all |E|² pairs).
    let mut syms = SymbolTable::new();
    let tgd = parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap();
    let e = syms.rel("E");
    let n = 24usize;
    let vals: Vec<Value> = (0..=n)
        .map(|i| Value::Const(syms.constant(&format!("v{i}"))))
        .collect();
    let source = Instance::from_facts((0..n).map(|i| Fact::new(e, vec![vals[i], vals[i + 1]])));
    let mut nulls = NullFactory::new();
    let mut stats = ChaseStats::new();
    let out = chase_fixpoint_delta_with(
        &source,
        std::slice::from_ref(&tgd),
        &ChasePlan::trusting(1),
        &mut nulls,
        &mut stats,
    )
    .unwrap();
    // The last round committed nothing...
    assert_eq!(*stats.round_fresh.last().unwrap(), 0);
    // ...but its frontier was the previous round's fresh facts, so the
    // join only probed candidates reachable from them: the statement's
    // total touched across ALL rounds stays below one naive round's
    // examined count (|E_final|² pairs via the index is ≥ |E_final|
    // candidates per root tuple).
    let edges = out.instance.rel_len(e) as u64;
    let touched: u64 = stats.statements.iter().map(|s| s.touched).sum();
    assert!(
        touched < edges * edges,
        "semi-naive join touched {touched} candidates, not obviously \
         better than one naive rescan of {edges}² pairs"
    );
    // And the delta frontier of the final round matches the previous
    // round's commit exactly.
    assert_eq!(
        *stats.round_delta.last().unwrap(),
        stats.round_fresh[stats.round_fresh.len() - 2]
    );
}

/// Chases the transitive-closure rule over `source` with the delta
/// engine; returns the chased fact count and the store counters' rehash
/// and regrow counts.
fn tc_growth(syms: &mut SymbolTable, source: &Instance) -> (usize, u64, u64) {
    let tgd = parse_so_tgd(syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap();
    let plan = ChasePlan::trusting(1);
    let mut nulls = NullFactory::new();
    let mut stats = ChaseStats::new();
    let out = chase_fixpoint_delta_with(
        source,
        std::slice::from_ref(&tgd),
        &plan,
        &mut nulls,
        &mut stats,
    )
    .unwrap();
    (
        out.instance.len(),
        stats.store.rehashes,
        stats.store.regrows,
    )
}

#[test]
fn index_sized_to_the_source_grows_by_doubling() {
    // The engines start the store at the source's size and grow it by
    // amortized doubling. A chase whose result fits in that size (here a
    // transitively closed source: every trigger fires, every fact is a
    // dedup hit) never rehashes; a chase growing from `s` to `f` facts
    // rehashes at most ⌈log2(f/s)⌉+1 times.
    let mut syms = SymbolTable::new();
    let e = syms.rel("E");
    let vals: Vec<Value> = (0..=40)
        .map(|i| Value::Const(syms.constant(&format!("v{i}"))))
        .collect();

    let closed = Instance::from_facts(
        (0..12)
            .flat_map(|i| (i + 1..12).map(move |j| (i, j)))
            .map(|(i, j)| Fact::new(e, vec![vals[i], vals[j]])),
    );
    let (f, rehashes, regrows) = tc_growth(&mut syms, &closed);
    assert_eq!(f, closed.len(), "a closed source derives nothing");
    assert_eq!(rehashes, 0, "store rehashed though the result fit");
    assert_eq!(regrows, 0, "row arena regrew though the result fit");

    for s in [1usize, 5, 10, 40] {
        let chain = Instance::from_facts((0..s).map(|i| Fact::new(e, vec![vals[i], vals[i + 1]])));
        let (f, rehashes, regrows) = tc_growth(&mut syms, &chain);
        assert_eq!(f, s * (s + 1) / 2, "TC of an {s}-chain");
        let bound = u64::from((f as f64 / s as f64).log2().ceil() as u32) + 1;
        assert!(
            rehashes <= bound,
            "{s}-chain grew to {f} facts with {rehashes} rehashes (bound {bound})"
        );
        assert!(
            regrows <= bound,
            "{s}-chain grew to {f} facts with {regrows} regrows (bound {bound})"
        );
    }
}

#[test]
fn per_call_configs_both_take_effect() {
    // Regression for the process-lifetime config hazard: `ChaseConfig`
    // used to be cached in a process-wide `OnceLock` on first use, so a
    // long-lived server could never apply per-request settings — the
    // second request silently ran under the first request's shard count.
    // Configuration is now an explicit per-call value; two chases in one
    // process with different shard settings must each observe their own.
    let mut syms = SymbolTable::new();
    let tgd = parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap();
    let e = syms.rel("E");
    let vals: Vec<Value> = (0..=8)
        .map(|i| Value::Const(syms.constant(&format!("v{i}"))))
        .collect();
    let source = Instance::from_facts((0..8).map(|i| Fact::new(e, vec![vals[i], vals[i + 1]])));
    let plan = ChasePlan::trusting(1);
    let mut observed = Vec::new();
    for shards in [2usize, 3usize] {
        let cfg = ChaseConfig {
            threads: 3,
            sequential_cutoff: 1,
            shards: Some(shards),
            ..ChaseConfig::default()
        };
        let mut nulls = NullFactory::new();
        let mut stats = ChaseStats::new();
        let out = chase_fixpoint_delta_parallel_with(
            &source,
            std::slice::from_ref(&tgd),
            &plan,
            &mut nulls,
            &cfg,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.instance.rel_len(e), 8 * 9 / 2); // TC of an 8-chain
        observed.push(stats.statements[0].max_shards);
    }
    assert_eq!(
        observed,
        vec![2, 3],
        "per-call shard settings were not both applied — a cached \
         process-wide config is masking the second request's settings"
    );
}

/// Every event a delta engine reports, timings left out, one line each:
/// the per-statement aggregates (`examined`, `touched` and the rest), the
/// shard split, and each round's frontier and commit sizes.
#[derive(Default)]
struct RoundLog(String);

impl ChaseObserver for RoundLog {
    fn round_delta(&mut self, round: usize, frontier: u64) {
        let _ = writeln!(self.0, "r{round} frontier={frontier}");
    }

    fn statement(&mut self, sr: &StmtRound) {
        let _ = writeln!(
            self.0,
            "r{} s{} examined={} fired={} derived={} dedup={} nulls={} touched={}",
            sr.round,
            sr.stmt,
            sr.examined,
            sr.fired,
            sr.derived,
            sr.dedup_hits,
            sr.nulls_interned,
            sr.touched
        );
    }

    fn statement_shards(&mut self, round: usize, stmt: usize, touched: &[u64]) {
        let _ = writeln!(self.0, "r{round} s{stmt} shards={touched:?}");
    }

    fn statement_skipped(&mut self, round: usize, stmt: usize) {
        let _ = writeln!(self.0, "r{round} s{stmt} skipped");
    }

    fn round_end(&mut self, round: usize, fresh: u64, _elapsed_ns: u64) {
        let _ = writeln!(self.0, "r{round} fresh={fresh}");
    }

    fn chase_end(&mut self, rounds: usize, derived: u64, outcome: &str) {
        let _ = writeln!(self.0, "end rounds={rounds} derived={derived} {outcome}");
    }
}

/// FNV-1a, for a platform-independent digest of a [`RoundLog`].
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sum of `key=<n>` over the lines of a [`RoundLog`].
fn log_sum(log: &str, key: &str) -> u64 {
    log.split_whitespace()
        .filter_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse::<u64>().ok())
        .sum()
}

/// `ndl-gen` nested tgds as program text, over a few facts for every
/// source relation their bodies read.
fn nested_program(seed: u64) -> String {
    let mut syms = SymbolTable::new();
    let mut src = String::new();
    let mut sources: Vec<(RelId, usize)> = Vec::new();
    for t in 0..3u64 {
        let tgd = random_nested_tgd(
            &mut syms,
            &format!("{seed}x{t}"),
            &TgdGenOptions {
                max_depth: 3,
                max_children: 2,
                existential_prob: 0.7,
                seed: seed * 31 + t,
            },
        );
        let _ = writeln!(src, "{}", tgd.display(&syms));
        for part in tgd.parts() {
            for atom in &part.body {
                sources.push((atom.rel, atom.args.len()));
            }
        }
    }
    for (i, &(rel, arity)) in sources.iter().enumerate() {
        for k in 0..3 {
            let args: Vec<String> = (0..arity)
                .map(|p| format!("c{}", (i + k * (p + 1) + seed as usize) % 4))
                .collect();
            let _ = writeln!(src, "fact: {}({})", syms.rel_name(rel), args.join(", "));
        }
    }
    src
}

/// SO tgds whose heads nest Skolem terms, one of them feeding `R0` back
/// with nulls, so terms nest deeper every lap and only the budget ends
/// the chase.
fn nested_skolem_program(seed: u64) -> String {
    let mut src = String::new();
    let k = seed as usize;
    let _ = writeln!(src, "exists f,g . R0(x,y) -> R1(x, f(g(y)))");
    let _ = writeln!(src, "exists h . R1(x,y) & R0(x,z) -> R2(h(y,z), z)");
    let _ = writeln!(src, "exists f . R2(x,y) & R0(y,z) -> R0(x, f(z))");
    let _ = writeln!(src, "R1(x,y) & R1(y,z) -> R3(x,z)");
    for i in 0..4 + k % 3 {
        let _ = writeln!(
            src,
            "fact: R0(c{}, c{})",
            (i * (k + 1)) % 5,
            (i + 2 * k) % 4
        );
    }
    src
}

/// The probe-set parity corpus: recursive programs under a budget,
/// dead-code programs, and programs with nested Skolem heads (from nested
/// tgds and from nested terms in SO-tgd heads).
fn probe_corpus() -> Vec<(String, String, Option<usize>)> {
    let mut out = Vec::new();
    for seed in 0..8 {
        let src = random_program(&ProgramGenOptions {
            statements: 12,
            relations: 4,
            recursion_prob: 0.5,
            comment_prob: 0.0,
            fact_prob: 0.35,
            seed,
        });
        out.push((format!("recursive/{seed}"), src, Some(250)));
    }
    for seed in 0..6 {
        let opts = ProgramGenOptions {
            statements: 10,
            relations: 6,
            recursion_prob: 0.1,
            comment_prob: 0.0,
            fact_prob: 0.3,
            seed,
        };
        let src = random_program_with_dead_code(&opts, 3 + seed as usize % 3);
        out.push((format!("dead-code/{seed}"), src, Some(400)));
    }
    for seed in 0..6 {
        out.push((format!("nested/{seed}"), nested_program(seed), None));
    }
    for seed in 0..4 {
        let src = nested_skolem_program(seed);
        out.push((format!("nested-skolem/{seed}"), src, Some(150)));
    }
    out
}

/// Per-statement work of both delta engines over [`probe_corpus`],
/// recorded before the chase indexed only probe-set positions: one line
/// per program and engine with the round count, the `examined` and
/// `touched` totals, and a digest of every per-statement, shard and round
/// event (see [`RoundLog`]).
const PROBE_GOLDEN: &str = include_str!("golden/delta_rounds.txt");

#[test]
fn probe_set_index_keeps_outputs_and_work_of_the_full_index() {
    let mut got = String::new();
    for (name, src, budget) in probe_corpus() {
        let mut logs = [RoundLog::default(), RoundLog::default()];
        let [seq, par] = &mut logs;
        let outcomes = chase_three_observed(&src, budget, [seq, par]);
        assert_outcomes_identical(&src, outcomes);
        for (engine, log) in ["delta", "delta-parallel"].iter().zip(&logs) {
            let log = &log.0;
            let _ = writeln!(
                got,
                "{name} {engine} rounds={} examined={} touched={} digest={:016x}",
                log.lines().filter(|l| l.contains("frontier=")).count(),
                log_sum(log, "examined"),
                log_sum(log, "touched"),
                fnv1a(log),
            );
        }
    }
    for (want, have) in PROBE_GOLDEN.lines().zip(got.lines()) {
        assert_eq!(have, want, "per-statement delta work changed");
    }
    assert_eq!(PROBE_GOLDEN.lines().count(), got.lines().count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random generated programs (tgds, SO tgds, facts, recursion,
    /// comments) chase bit-identically under a budget across all three
    /// engines: identical instances/rounds/derived on success, identical
    /// progress on a cutoff, identical refusal otherwise.
    #[test]
    fn random_programs_are_bit_identical(seed in 0u64..500, statements in 2usize..10, recursion in 0usize..2) {
        let src = random_program(&ProgramGenOptions {
            statements,
            relations: 5,
            recursion_prob: 0.3 * recursion as f64,
            comment_prob: 0.1,
            fact_prob: 0.35,
            seed,
        });
        assert_identical(&src, Some(300));
    }

    /// Refusal parity without a budget: either every engine runs to the
    /// same fixpoint or every engine refuses the unguaranteed program.
    #[test]
    fn random_programs_agree_without_budget(seed in 0u64..200) {
        let src = random_program(&ProgramGenOptions {
            statements: 6,
            relations: 4,
            recursion_prob: 0.4,
            comment_prob: 0.0,
            fact_prob: 0.3,
            seed,
        });
        assert_identical(&src, None);
    }
}
