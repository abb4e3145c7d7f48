//! Measures the indexed, incremental homomorphism/core engine against the
//! preserved scan engine (`ndl_hom::scan`) on grid and random workloads
//! of 10² – 10⁴ facts, and the core of Clio chases against the chase
//! itself, and records both as `BENCH_hom.json` (committed under
//! `experiments/`; see `docs/performance.md`).
//!
//! The Clio rows take the core of the nested (no retraction) and the flat
//! (one retraction per department) Clio chase at 750 and 1500
//! departments. Each row splits the core into the engine's phases —
//! index, blocks, probes, result — plus dropping the result, in
//! milliseconds and allocations, and prints a digest of the rendered core
//! listing, computed before any timing. `--parent <record>` copies the
//! Clio rows of an earlier record (this file built on the parent commit)
//! in, labelled `"build": "parent"`, and fails unless their digests equal
//! this build's. `--clio` runs the Clio rows alone, as such a parent
//! record needs.
//!
//! Pass an output directory as the first positional argument to write
//! elsewhere (e.g. `bench_hom target/experiments` for a throwaway run).

use ndl_analyze::ProgramArtifacts;
use ndl_bench::alloc::{allocations, CountingAlloc};
use ndl_bench::{clio_program, ExperimentRecord};
use ndl_chase::NullFactory;
use ndl_core::prelude::*;
use ndl_gen::{abstract_subpattern, grid, random_target_instance, TargetGenOptions};
use ndl_hom::scan::{core_of_scan, find_homomorphism_scan};
use ndl_hom::{core_of, core_of_observed, core_with_f_block_size, find_homomorphism_into, HomMap};
use ndl_obs::HomObserver;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
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

/// Repetitions scaled to workload size so the slow baseline stays tractable.
fn reps_for(facts: usize) -> u32 {
    match facts {
        0..=300 => 50,
        301..=3_000 => 10,
        _ => 2,
    }
}

struct Row {
    workload: &'static str,
    facts: usize,
    scan_ms: f64,
    indexed_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scan_ms / self.indexed_ms
    }
}

/// The clock and the allocation count at each core-engine phase end.
struct Phases {
    marks: Mutex<Vec<(Instant, u64)>>,
}

impl HomObserver for Phases {
    fn core_phase(&self, _phase: &'static str) {
        let mark = (Instant::now(), allocations());
        self.marks.lock().expect("phase marks").push(mark);
    }
}

/// The engine's phases, then dropping the core.
const PHASES: [&str; 5] = ["index", "blocks", "probes", "result", "drop"];

/// The Clio core rows: the core of the nested and the flat Clio chase
/// against the chase, split by phase. Returns whether every row met its
/// bound (nested core at most 1.5x its chase, flat at most 3x).
fn clio_rows(record: &mut ExperimentRecord) -> bool {
    let mut all_ok = true;
    println!("core of Clio chases (mean ms per call; allocations per call)\n");
    println!(
        "  workload          facts  nulls   core  chase ms   core ms  ratio  \
         index  blocks  probes  result   drop  digest"
    );
    for (flat, bound) in [(false, 1.5), (true, 3.0)] {
        for depts in [750usize, 1500] {
            let workload = format!("clio-{}/{depts}", if flat { "flat" } else { "nested" });
            let art = ProgramArtifacts::build(&clio_program(depts, 1, flat));
            let plan = art.analysis.tgd_plan(None);
            let chase = || {
                let mut nulls = NullFactory::new();
                let res =
                    ndl_chase::chase_fixpoint_delta(&art.source, &art.tgds, &plan, &mut nulls);
                (res.expect("the Clio chase terminates").instance, nulls)
            };
            let (inst, nulls) = chase();
            // The output first: the rendered core, as `ndl incr` prints it.
            let (core, size) = core_with_f_block_size(&inst);
            let mut listing = format!(
                "core: {} facts, {} nulls, f-block size {size}\n",
                core.len(),
                core.nulls().len()
            );
            nulls.write_fact_lines(core.facts(), &art.syms, "  ", &mut listing);
            let digest = format!("{:016x}", fingerprint_str(&listing));
            assert_eq!(core_of(&inst), core, "{workload}: core_of");

            let reps = 20;
            let chase_ms = time(reps, || chase().0.len()) * 1e3;
            let core_ms = time(reps, || core_with_f_block_size(&inst).1) * 1e3;
            let mut ms = [0.0f64; 5];
            let mut allocs = [0u64; 5];
            for _ in 0..reps {
                let phases = Phases {
                    marks: Mutex::new(Vec::with_capacity(8)),
                };
                let (start, before) = (Instant::now(), allocations());
                let core = core_of_observed(&inst, &phases);
                drop(core);
                let end = (Instant::now(), allocations());
                let mut marks = phases.marks.into_inner().expect("phase marks");
                assert_eq!(marks.len(), 4, "one mark per engine phase");
                marks.push(end);
                let mut prev = (start, before);
                for (i, &mark) in marks.iter().enumerate() {
                    ms[i] += (mark.0 - prev.0).as_secs_f64() * 1e3 / f64::from(reps);
                    allocs[i] = mark.1 - prev.1;
                    prev = mark;
                }
            }
            let ratio = core_ms / chase_ms;
            let ok = ratio <= bound;
            all_ok &= ok;
            println!(
                "  {workload:<16} {:>6} {:>6} {:>6}  {chase_ms:>8.3}  {core_ms:>8.3}  {ratio:>5.2}  \
                 {:>5.2}  {:>6.2}  {:>6.2}  {:>6.2}  {:>5.2}  {digest}",
                inst.len(),
                inst.nulls().len(),
                core.len(),
                ms[0],
                ms[1],
                ms[2],
                ms[3],
                ms[4],
            );
            println!(
                "  {:<16} {:>36}  {:>5}  {:>6}  {:>6}  {:>6}  {:>5}  allocations",
                "", "", allocs[0], allocs[1], allocs[2], allocs[3], allocs[4]
            );
            let mut row = vec![
                ("build", "this".to_string()),
                ("workload", workload),
                ("departments", depts.to_string()),
                ("facts", inst.len().to_string()),
                ("nulls", inst.nulls().len().to_string()),
                ("core_facts", core.len().to_string()),
                ("core_digest", digest),
                ("chase_ms", format!("{chase_ms:.3}")),
                ("core_ms", format!("{core_ms:.3}")),
                ("core_over_chase", format!("{ratio:.2}")),
                ("bound", format!("{bound}")),
                ("gate_ok", ok.to_string()),
            ];
            let (ms_keys, alloc_keys) = (
                PHASES.map(|p| format!("{p}_ms")),
                PHASES.map(|p| format!("{p}_allocs")),
            );
            for i in 0..PHASES.len() {
                row.push((ms_keys[i].as_str(), format!("{:.3}", ms[i])));
                row.push((alloc_keys[i].as_str(), allocs[i].to_string()));
            }
            record.row(&row);
        }
    }
    all_ok
}

/// Fails unless every Clio row of the parent record at `path` has the
/// core digest of this build's row for the same workload.
fn check_parent_digests(record: &ExperimentRecord, path: &str) -> std::result::Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parent: ExperimentRecord =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |row: &[(String, String)], key: &str| {
        row.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    for row in parent.rows.iter().filter(|r| field(r, "build").is_some()) {
        let workload = field(row, "workload");
        let ours = record
            .rows
            .iter()
            .find(|r| {
                field(r, "build").as_deref() == Some("this") && field(r, "workload") == workload
            })
            .ok_or_else(|| format!("{path}: no row of this build for {workload:?}"))?;
        if field(ours, "core_digest") != field(row, "core_digest") {
            return Err(format!(
                "{workload:?}: the core differs from the parent build's"
            ));
        }
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
    let mut record = ExperimentRecord::new(
        "BENCH_hom",
        "indexed/incremental hom+core engine vs the preserved scan engine; the core of Clio \
         chases vs the chase",
        "engine optimization (no paper claim); acceptance: >=2x on 10^3-10^4-fact workloads; \
         the Clio-nested core costs at most 1.5x its chase, the Clio-flat core at most 3x, \
         and the rendered core is identical to the parent build's",
    );
    // The Clio rows run first, so that a parent build's `--clio` run made
    // just before is timed under the same host speed.
    let clio_ok = clio_rows(&mut record);
    if let Some(path) = &parent {
        if let Err(e) = check_parent_digests(&record, path) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let mut rows: Vec<Row> = Vec::new();
    let clio_only = args.iter().any(|a| a == "--clio");

    // Homomorphism search: 20 patterns into one target per call — the
    // IMPLIES / core-probe access pattern the engine is built for. The
    // indexed side pays one `TupleIndex` build per call plus 20 indexed
    // searches (via `find_homomorphism_into`).
    let pattern_batch = |target: &Instance, k: usize| -> Vec<Instance> {
        (0..20u64)
            .map(|i| abstract_subpattern(target, k, 100 + i))
            .collect()
    };
    let run_batch = |target: &Instance, patterns: &[Instance], reps: u32| -> (f64, f64) {
        if std::env::var("BENCH_HOM_PROBE").is_ok() {
            for (i, p) in patterns.iter().enumerate() {
                let t = Instant::now();
                let ok = find_homomorphism_scan(p, target).is_some();
                eprintln!(
                    "  pattern {i}: {:.1} ms (len {}, hom={ok})",
                    t.elapsed().as_secs_f64() * 1e3,
                    p.len()
                );
            }
        }
        let scan = time(reps, || {
            patterns
                .iter()
                .filter(|p| find_homomorphism_scan(p, target).is_some())
                .count()
        });
        let indexed = time(reps, || {
            let index = TupleIndex::from_instance(target);
            patterns
                .iter()
                .filter(|p| {
                    find_homomorphism_into(p, &index, &HomMap::new(), &|_, _| false).is_some()
                })
                .count()
        });
        let index = TupleIndex::from_instance(target);
        for p in patterns {
            assert_eq!(
                find_homomorphism_scan(p, target).is_some(),
                find_homomorphism_into(p, &index, &HomMap::new(), &|_, _| false).is_some(),
                "engines disagree"
            );
        }
        (scan, indexed)
    };

    for &w in if clio_only {
        &[][..]
    } else {
        &[8usize, 23, 71]
    } {
        let mut syms = SymbolTable::new();
        let h = syms.rel("H");
        let v = syms.rel("V");
        let target = grid(&mut syms, h, v, w, w, "g");
        let patterns = pattern_batch(&target, 8);
        let facts = target.len();
        let reps = reps_for(facts);
        eprintln!("hom/grid {facts}...");
        let (scan, indexed) = run_batch(&target, &patterns, reps);
        rows.push(Row {
            workload: "hom/grid",
            facts,
            scan_ms: scan * 1e3,
            indexed_ms: indexed * 1e3,
        });
    }

    let sizes = if clio_only {
        &[][..]
    } else {
        &[100usize, 1_000, 10_000]
    };
    for &facts in sizes {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let q = syms.rel("Q");
        let target = random_target_instance(
            &mut syms,
            &[(s, 2), (q, 3)],
            &TargetGenOptions {
                facts,
                // Medium density (domain ~ facts/2): patterns stay
                // nontrivial, while the scan baseline, which explodes on
                // dense targets, stays measurable.
                domain: (facts / 2).max(8),
                redundant_nulls: 0,
                seed: 7,
            },
        );
        // 6-fact patterns: at 8 facts the scan baseline degenerates into
        // minutes-long exponential searches on some seeds.
        let patterns = pattern_batch(&target, 6);
        let reps = reps_for(facts);
        eprintln!("hom/random {facts}...");
        let (scan, indexed) = run_batch(&target, &patterns, reps);
        rows.push(Row {
            workload: "hom/random",
            facts: target.len(),
            scan_ms: scan * 1e3,
            indexed_ms: indexed * 1e3,
        });
    }

    // Core computation: random targets with redundant null blocks.
    for &facts in sizes {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let q = syms.rel("Q");
        let inst = random_target_instance(
            &mut syms,
            &[(s, 2), (q, 3)],
            &TargetGenOptions {
                facts,
                domain: (facts / 5).max(4),
                redundant_nulls: (facts / 10).min(50),
                seed: 7,
            },
        );
        let reps = reps_for(facts).min(5);
        eprintln!("core/random {facts}...");
        let scan = time(reps, || core_of_scan(&inst).len());
        let indexed = time(reps, || core_of(&inst).len());
        assert_eq!(
            core_of_scan(&inst),
            core_of(&inst),
            "engines disagree on core/random {facts}"
        );
        rows.push(Row {
            workload: "core/random",
            facts: inst.len(),
            scan_ms: scan * 1e3,
            indexed_ms: indexed * 1e3,
        });
    }

    println!("\nindexed engine vs scan baseline (mean ms per call)\n");
    println!("  workload      facts     scan ms   indexed ms   speedup");
    for r in &rows {
        println!(
            "  {:<11} {:>7}   {:>9.3}   {:>10.3}   {:>6.1}x",
            r.workload,
            r.facts,
            r.scan_ms,
            r.indexed_ms,
            r.speedup()
        );
    }

    // Acceptance: ≥ 2x on every 10³–10⁴-fact workload.
    let passed = rows
        .iter()
        .filter(|r| r.facts >= 900)
        .all(|r| r.speedup() >= 2.0);
    println!(
        "\n=> ≥2x speedup on all 10³–10⁴-fact workloads: {}; Clio core bounds: {}",
        if passed { "yes ✓" } else { "NO" },
        if clio_ok { "met ✓" } else { "NOT MET" }
    );
    record.passed = passed && clio_ok;
    for r in &rows {
        record.row(&[
            ("workload", r.workload.to_string()),
            ("facts", r.facts.to_string()),
            ("scan_ms", format!("{:.3}", r.scan_ms)),
            ("indexed_ms", format!("{:.3}", r.indexed_ms)),
            ("speedup", format!("{:.1}", r.speedup())),
        ]);
    }
    if let Some(path) = parent {
        if let Err(e) = record.push_parent_rows(&path) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    match record.write_to(Path::new(&out_dir)) {
        Ok(path) => println!("record written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write record: {e}");
            return ExitCode::FAILURE;
        }
    }
    if record.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
