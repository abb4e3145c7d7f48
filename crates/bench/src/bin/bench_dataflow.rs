//! Measures certified dead-code elimination in the chase and the
//! ground-relation fast path in the hom engines. **Output identity is
//! asserted before any timing**: on every workload the certified and
//! uncertified runs of the naive and delta engines must be bit-identical
//! (`NullId`s included, same round and derived counts) to the uncertified
//! naive run, and the hinted hom entry points must return exactly what the
//! unhinted ones do, or the run fails. The results land in `BENCH_dataflow.json`
//! (committed under `experiments/`; see `docs/performance.md`).
//!
//! The gate: on every workload marked `gate_1p5x`, the certified delta
//! chase must beat the uncertified delta chase by ≥ 1.5×, and the
//! record's `passed` flag carries the verdict. Workloads:
//!
//! - `dead/<n>+<k>` — linear transitive closure over an `n`-edge chain
//!   with `k` provably dead statements riding along, each reading the
//!   growing closure relation `P` twice before a relation `Z{i}` nothing
//!   populates. Every engine dismisses a dead statement quickly (its
//!   empty body relation zeroes the candidate scan), but not for free:
//!   the per-statement round setup and candidate/frontier probes recur
//!   every round. A dead-heavy program — hundreds of dead statements
//!   against a small live core, the shape a generated or
//!   machine-translated mapping produces — pays that constant `k·rounds`
//!   times, and the certificate removes the whole term. The `dead/220+8`
//!   row is the honest converse: with few dead statements the overhead
//!   is noise, so it is reported ungated.
//! - `ground/<k>x<m>` — the hom side: a chase target of `k·m` facts
//!   across `k` certified-ground copy relations plus an `m`-fact nullable
//!   fringe. `null_blocks_with_ground` and `core_of_assuming_ground`
//!   dismiss the ground bulk by relation id instead of scanning every
//!   argument for nulls; speedups are reported, not gated — the win is a
//!   constant factor on the scan, not an asymptotic term.
//!
//! Pass an output directory as the first argument to write elsewhere
//! (e.g. `bench_dataflow target/experiments` for a throwaway run).

use ndl_analyze::{parse_program, ChaseAnalysis};
use ndl_bench::ExperimentRecord;
use ndl_chase::{
    chase_fixpoint, chase_fixpoint_delta, ChasePlan, FixpointChase, FixpointError, NullFactory,
};
use ndl_core::prelude::*;
use ndl_gen::{disjoint_pairs, successor};
use ndl_hom::{core_of, core_of_assuming_ground, null_blocks, null_blocks_with_ground};
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

type Engine = fn(
    &Instance,
    &[SoTgd],
    &ChasePlan,
    &mut NullFactory,
) -> std::result::Result<FixpointChase, FixpointError>;

/// Transitive closure over an `edges`-edge chain plus `dead` statements
/// the dataflow pass proves can never fire.
fn dead_workload(
    syms: &mut SymbolTable,
    edges: usize,
    dead: usize,
) -> (String, Instance, Vec<SoTgd>, ChasePlan) {
    let mut text = "E(x,y) & P(y,z) -> P(x,z)\n".to_string();
    for i in 0..dead {
        // A join chain over the growing closure relation before the
        // orphan Z{i}: the matcher's candidate scan walks the body in
        // order every round until the empty relation zeroes it, so each
        // dead statement costs a per-round constant proportional to its
        // body length unless it is skipped.
        let mut body = String::new();
        for j in 0..7 {
            let _ = write!(body, "P(x{j},x{}) & ", j + 1);
        }
        let _ = writeln!(text, "{body}Z{i}(x7,x8) -> D{i}(x0,x8)");
    }
    let e = syms.rel("E");
    let p = syms.rel("P");
    let mut source = successor(syms, e, edges + 1, "n");
    for f in successor(syms, p, edges + 1, "n").facts() {
        source.insert(f.to_fact());
    }
    let (tgds, plan) = analyze(syms, &text, &source);
    assert_eq!(
        plan.cert.as_ref().map(|c| c.dead.len()),
        Some(dead),
        "analyzer proves every seeded statement dead"
    );
    (format!("dead/{edges}+{dead}"), source, tgds, plan)
}

/// A `facts`-sourced program whose chase target is `copies` ground copy
/// relations plus one nullable fringe relation.
fn ground_workload(
    syms: &mut SymbolTable,
    copies: usize,
    seeds: usize,
) -> (String, Instance, Vec<SoTgd>, ChasePlan) {
    let mut text = String::new();
    for i in 0..copies {
        // Wide (arity-6) targets: the unhinted null scan walks every
        // argument of every ground fact, the hinted one probes one mask.
        let _ = writeln!(text, "S(x,y) -> T{i}(y,x,y,x,y,x)");
    }
    text.push_str("S(x,y) -> exists z N(y,z)\n");
    let s = syms.rel("S");
    let source = disjoint_pairs(syms, s, seeds, "p");
    let (tgds, plan) = analyze(syms, &text, &source);
    (format!("ground/{copies}x{seeds}"), source, tgds, plan)
}

/// Runs the analyzer over `text` with the declared facts of `source` so
/// its dataflow pass sees the real source relations, and returns the
/// grouped SO tgds and the certified plan.
fn analyze(syms: &mut SymbolTable, text: &str, source: &Instance) -> (Vec<SoTgd>, ChasePlan) {
    // Declare the populated relations as facts so the dataflow pass works
    // from known sources (one representative fact per relation is enough
    // for relation-level reachability).
    let mut full = text.to_string();
    let mut seen = std::collections::BTreeSet::new();
    for f in source.facts() {
        if seen.insert(f.rel) {
            let args: Vec<&str> = f.args.iter().map(|_| "c0").collect();
            let _ = writeln!(full, "fact: {}({})", syms.rel_name(f.rel), args.join(", "));
        }
    }
    let (stmts, errs) = parse_program(syms, &full);
    assert!(errs.is_empty(), "bench program parses");
    let analysis = ChaseAnalysis::analyze(syms, &stmts);
    let tgds: Vec<SoTgd> = analysis.so_tgds().into_iter().map(|(_, t)| t).collect();
    let plan = analysis.tgd_plan(None);
    assert!(plan.guaranteed_terminating, "bench workloads terminate");
    assert!(plan.cert.is_some(), "tgd_plan attaches the certificate");
    (tgds, plan)
}

/// Asserts both engines, certified and uncertified, agree bit for bit
/// with the uncertified naive run; returns that run.
fn assert_identity(
    name: &str,
    source: &Instance,
    tgds: &[SoTgd],
    certified: &ChasePlan,
    uncertified: &ChasePlan,
) -> FixpointChase {
    let engines: [(&str, Engine); 2] = [
        ("fixpoint", chase_fixpoint),
        ("delta", chase_fixpoint_delta),
    ];
    let mut base_nulls = NullFactory::new();
    let base =
        chase_fixpoint(source, tgds, uncertified, &mut base_nulls).expect("workload terminates");
    for (engine_name, engine) in engines {
        for (mode, plan) in [("certified", certified), ("uncertified", uncertified)] {
            let mut nulls = NullFactory::new();
            let out = engine(source, tgds, plan, &mut nulls).expect("workload terminates");
            assert!(
                out.instance == base.instance
                    && out.rounds == base.rounds
                    && out.derived == base.derived
                    && nulls.len() == base_nulls.len(),
                "{name}: {engine_name} ({mode}) diverged from the uncertified baseline"
            );
        }
    }
    base
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "experiments".into());
    let mut record = ExperimentRecord::new(
        "BENCH_dataflow",
        "certified dead-statement skipping in the chase (delta engine gated) and the \
         ground-relation fast path in null_blocks/core_of on a mostly-ground target",
        "output identity (instance, NullIds, rounds, derived; hom results) is asserted \
         for every engine and entry point before any timing; the gate requires the \
         certified delta chase >= 1.5x the uncertified one on dead-heavy workloads",
    );
    let mut all_pass = true;

    // --- Dead-heavy: certified vs uncertified chase. -------------------
    println!("certified dead-code elimination (mean ms per run)\n");
    println!("  workload        facts  rounds  naive ms  naive* ms  delta ms  delta* ms  speedup");
    let mut syms = SymbolTable::new();
    for (edges, dead, reps, gated) in [
        (64usize, 1024usize, 5u32, true),
        (64, 2048, 5, true),
        (220, 8, 3, false),
    ] {
        let (name, source, tgds, certified) = dead_workload(&mut syms, edges, dead);
        let uncertified = ChasePlan {
            cert: None,
            ..certified.clone()
        };
        let base = assert_identity(&name, &source, &tgds, &certified, &uncertified);
        let run = |engine: Engine, plan: &ChasePlan| {
            let mut nulls = NullFactory::new();
            engine(&source, &tgds, plan, &mut nulls)
                .expect("workload terminates")
                .instance
                .len()
        };
        let naive_secs = time(reps, || run(chase_fixpoint, &uncertified));
        let naive_cert_secs = time(reps, || run(chase_fixpoint, &certified));
        let delta_secs = time(reps, || run(chase_fixpoint_delta, &uncertified));
        let delta_cert_secs = time(reps, || run(chase_fixpoint_delta, &certified));
        let speedup = delta_secs / delta_cert_secs;
        let gate_ok = !gated || speedup >= 1.5;
        all_pass &= gate_ok;
        println!(
            "  {:<14} {:>6}  {:>6}  {:>8.1}  {:>9.1}  {:>8.1}  {:>9.1}  {:>6.2}x{}",
            name,
            base.instance.len(),
            base.rounds,
            naive_secs * 1e3,
            naive_cert_secs * 1e3,
            delta_secs * 1e3,
            delta_cert_secs * 1e3,
            speedup,
            if gate_ok {
                if gated {
                    ""
                } else {
                    "  (ungated)"
                }
            } else {
                "  << below 1.5x gate"
            }
        );
        record.row(&[
            ("workload", name),
            ("facts", base.instance.len().to_string()),
            ("rounds", base.rounds.to_string()),
            ("dead_statements", dead.to_string()),
            ("identical", "true".to_string()),
            ("naive_ms", format!("{:.3}", naive_secs * 1e3)),
            (
                "naive_certified_ms",
                format!("{:.3}", naive_cert_secs * 1e3),
            ),
            ("delta_ms", format!("{:.3}", delta_secs * 1e3)),
            (
                "delta_certified_ms",
                format!("{:.3}", delta_cert_secs * 1e3),
            ),
            ("speedup_delta_certified", format!("{speedup:.2}")),
            (
                "speedup_naive_certified",
                format!("{:.2}", naive_secs / naive_cert_secs),
            ),
            ("gate_1p5x", gated.to_string()),
            ("gate_ok", gate_ok.to_string()),
        ]);
    }

    // --- Ground-heavy: hinted vs unhinted hom entry points. ------------
    println!("\nground-relation fast path in the hom engines (mean ms per run)\n");
    println!("  workload        facts  ground rels  blocks ms  blocks* ms  core ms  core* ms");
    for (copies, seeds, reps) in [(12usize, 9_000usize, 5u32), (4, 24_000, 5)] {
        let (name, source, tgds, plan) = ground_workload(&mut syms, copies, seeds);
        let mut nulls = NullFactory::new();
        let chased =
            chase_fixpoint_delta(&source, &tgds, &plan, &mut nulls).expect("workload terminates");
        let target = chased.instance;
        let ground = plan.cert.as_ref().expect("certified plan").ground.clone();
        // Identity first: the hint must not change a single block or fact.
        assert_eq!(
            null_blocks_with_ground(&target, &ground),
            null_blocks(&target),
            "{name}: ground hint changed the blocks"
        );
        assert_eq!(
            core_of_assuming_ground(&target, &ground),
            core_of(&target),
            "{name}: ground hint changed the core"
        );
        let blocks_secs = time(reps, || null_blocks(&target).len());
        let blocks_hint_secs = time(reps, || null_blocks_with_ground(&target, &ground).len());
        let core_secs = time(reps, || core_of(&target).len());
        let core_hint_secs = time(reps, || core_of_assuming_ground(&target, &ground).len());
        println!(
            "  {:<14} {:>6}  {:>11}  {:>9.1}  {:>10.1}  {:>7.1}  {:>8.1}",
            name,
            target.len(),
            ground.len(),
            blocks_secs * 1e3,
            blocks_hint_secs * 1e3,
            core_secs * 1e3,
            core_hint_secs * 1e3,
        );
        record.row(&[
            ("workload", name),
            ("facts", target.len().to_string()),
            ("ground_relations", ground.len().to_string()),
            ("identical", "true".to_string()),
            ("null_blocks_ms", format!("{:.3}", blocks_secs * 1e3)),
            (
                "null_blocks_ground_ms",
                format!("{:.3}", blocks_hint_secs * 1e3),
            ),
            ("core_of_ms", format!("{:.3}", core_secs * 1e3)),
            ("core_of_ground_ms", format!("{:.3}", core_hint_secs * 1e3)),
            (
                "speedup_null_blocks",
                format!("{:.2}", blocks_secs / blocks_hint_secs),
            ),
            ("speedup_core", format!("{:.2}", core_secs / core_hint_secs)),
            ("gate_1p5x", "false".to_string()),
            ("gate_ok", "true".to_string()),
        ]);
    }

    println!(
        "\n=> identity asserted on every workload; 1.5x gate: {}",
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
