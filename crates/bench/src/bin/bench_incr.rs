//! Measures the red-green incremental query graph (`ndl-incr`) against
//! from-scratch recomputation. **Output identity is asserted before any
//! timing**: the incremental replay of every script must render
//! byte-identically to the `--scratch` replay (which recomputes every
//! query from the canonical program text), or the run fails. The results
//! land in `BENCH_incr.json` (committed under `experiments/`; see
//! `docs/incremental.md` and `docs/performance.md`).
//!
//! Two cases, one row per workload each:
//!
//! - **no-op churn** (`pipeline/*`, a 10⁵-fact live instance): the timed
//!   script is `batches` churn pairs (insert then retract the same fresh
//!   fact — two revision bumps, no net change to the fact set's
//!   fingerprint), each followed by `chase` and `core` queries. The
//!   red-green engine verifies the chase memo green from the unchanged
//!   fact fingerprint and never recomputes; scratch mode re-chases the
//!   full instance for every query. The script is state-neutral, so
//!   repeated replays on one live instance measure the same work. The
//!   gate: incremental ≥ 5× scratch on these rows.
//! - **net edit** (`clio/*`, Clio HR tenants shaped like the daemon
//!   benchmark's sessions: about four source facts per department): each
//!   batch inserts three new employees and retracts three existing
//!   members, so the chased instance changes and every `chase` query
//!   recomputes; the `core` variant queries the core too. Both sides
//!   recompute here, so the row measures what one recompute costs: the
//!   memoized path numbers the live store straight into the memoized
//!   statement analysis, scratch re-renders, re-parses and re-analyzes
//!   the whole canonical text. Each rep replays the script on a freshly
//!   loaded session whose chase is already memoized (loading untimed);
//!   the row reports the median rep.
//!
//! Before the timed scripts, a verify script (untimed) mixes real edits —
//! inserts that grow the chase, a retract, a compact — with churn and
//! queries over every query kind on each workload.
//!
//! `--smoke` runs a reduced workload of each case (still identity-checked)
//! for CI; pass an output directory as the first positional argument to
//! write elsewhere (default `experiments`). `--parent <record>` copies the
//! rows of an earlier record — the same binary built on the parent commit
//! — into this one, labelled `"build": "parent"`.

use ndl_bench::ExperimentRecord;
use ndl_core::prelude::SymbolTable;
use ndl_incr::{parse_edit_script, IncrDb, IncrOptions, QueryKey, QueryOutput};
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

/// A depth-`depth` existential pipeline program over `seeds` disjoint
/// seed pairs, as `ndl incr` source text: `depth · seeds` derived facts
/// over `seeds` source facts, guaranteed terminating, with f-blocks of
/// size ≤ depth (per-seed), so the core stays cheap relative to the
/// chase.
fn pipeline_src(depth: usize, seeds: usize) -> String {
    let mut src = String::new();
    for i in 0..depth {
        let _ = writeln!(src, "S{i}(x,y) -> exists z S{}(y,z)", i + 1);
    }
    for p in 0..seeds {
        let _ = writeln!(src, "fact: S0(a{p},b{p})");
    }
    src
}

/// A Clio HR tenant over `depts` departments as `ndl incr` source text
/// (the nested mapping, then the source facts), with its member facts:
/// the `Emp`/`Proj` facts net edits retract.
fn clio_src(depts: usize, seed: u64) -> (String, Vec<String>) {
    let mut syms = SymbolTable::new();
    let sc = ndl_gen::clio_scenario(&mut syms, depts, 2, seed);
    let mut src = String::new();
    for t in &sc.nested.tgds {
        let _ = writeln!(src, "{}", t.display(&syms));
    }
    let mut members = Vec::new();
    for f in sc.source.facts() {
        let fact = f.display(&syms).to_string();
        let _ = writeln!(src, "fact: {fact}");
        if fact.starts_with("Emp(") || fact.starts_with("Proj(") {
            members.push(fact);
        }
    }
    (src, members)
}

/// The timed net-edit script: `batches` batches of three inserted
/// employees and three retracted members (taken in a fixed stride over
/// `members`), each followed by `chase` (and `core`) queries.
fn net_script(depts: usize, members: &[String], batches: usize, core: bool) -> String {
    let mut s = String::new();
    let mut next = 0usize;
    for b in 0..batches {
        for j in 0..3 {
            let d = (b * 3 + j) * 7919 % depts;
            let _ = writeln!(
                s,
                "{{\"op\":\"insert\",\"fact\":\"Emp(dept{d},new{b}_{j})\"}}"
            );
            let _ = writeln!(
                s,
                "{{\"op\":\"retract\",\"fact\":\"{}\"}}",
                members[next % members.len()]
            );
            next += 13;
        }
        let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"chase\"}}");
        if core {
            let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"core\"}}");
        }
    }
    s
}

/// The untimed identity script: real growth, churn, a compact, and every
/// query kind.
fn verify_script() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"analysis\"}}");
    let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"chase\"}}");
    let _ = writeln!(s, "{{\"op\":\"insert\",\"fact\":\"S0(vx,vy)\"}}");
    let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"chase\"}}");
    let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"core\"}}");
    let _ = writeln!(s, "{{\"op\":\"retract\",\"fact\":\"S0(vx,vy)\"}}");
    let _ = writeln!(s, "{{\"op\":\"compact\"}}");
    let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"chase\"}}");
    let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"blocks\"}}");
    let _ = writeln!(
        s,
        "{{\"op\":\"query\",\"q\":\"implies\",\"premise\":0,\"conclusion\":0}}"
    );
    let _ = writeln!(
        s,
        "{{\"op\":\"query\",\"q\":\"equiv\",\"left\":0,\"right\":1}}"
    );
    s
}

/// The timed script: `batches` state-neutral churn batches, each
/// bumping the revision clock twice and querying `chase` and `core`.
fn timed_script(batches: usize) -> String {
    let mut s = String::new();
    for b in 0..batches {
        let _ = writeln!(s, "{{\"op\":\"insert\",\"fact\":\"S0(cx{b},cy{b})\"}}");
        let _ = writeln!(s, "{{\"op\":\"retract\",\"fact\":\"S0(cx{b},cy{b})\"}}");
        let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"chase\"}}");
        let _ = writeln!(s, "{{\"op\":\"query\",\"q\":\"core\"}}");
    }
    s
}

fn load(src: &str, scratch: bool) -> IncrDb {
    IncrDb::new(
        src,
        IncrOptions {
            path: "<bench>".to_string(),
            budget: None,
            scratch,
        },
    )
    .expect("workload loads")
}

fn replay(db: &mut IncrDb, script: &str) -> Vec<(QueryKey, QueryOutput)> {
    let ops = parse_edit_script(script).expect("script parses");
    db.apply_script(&ops).expect("script applies")
}

/// One `pipeline/*` no-op churn row.
struct Churn {
    name: String,
    depth: usize,
    seeds: usize,
    batches: usize,
    reps: u32,
    /// Is this row subject to the ≥ 5× incremental gate?
    gate_5x: bool,
}

/// One `clio/*` net-edit row.
struct NetEdit {
    name: String,
    depts: usize,
    batches: usize,
    reps: usize,
    core: bool,
}

/// Asserts the incremental and scratch replays of `script` on `src`
/// identical; returns the incremental outputs.
fn assert_identical(src: &str, script: &str, what: &str) -> Vec<(QueryKey, QueryOutput)> {
    let incr = replay(&mut load(src, false), script);
    assert_eq!(
        incr,
        replay(&mut load(src, true), script),
        "{what}: outputs diverged"
    );
    incr
}

/// Median seconds of replaying `script` on a freshly loaded session
/// whose memos `warm` filled (loading and warming untimed).
fn median_replay(src: &str, script: &str, scratch: bool, reps: usize, warm: &[QueryKey]) -> f64 {
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let mut db = load(src, scratch);
            for &key in warm {
                db.query(key);
            }
            let start = Instant::now();
            std::hint::black_box(replay(&mut db, script).len());
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Red-green counters of one incremental replay of `script` on `src`
/// after `warm`: `(green marks, recomputes)`.
fn replay_stats(src: &str, script: &str, warm: &[QueryKey]) -> (u64, u64) {
    let mut db = load(src, false);
    for &key in warm {
        db.query(key);
    }
    let before = db.stats().clone();
    replay(&mut db, script);
    let s = db.stats();
    (
        s.green_marks - before.green_marks,
        s.recomputes - before.recomputes,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let parent = args
        .iter()
        .position(|a| a == "--parent")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default());
    let out_dir = args
        .iter()
        .enumerate()
        .find(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1] != "--parent"))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| {
            if smoke {
                "target/experiments".into()
            } else {
                "experiments".into()
            }
        });
    let mut record = ExperimentRecord::new(
        "BENCH_incr",
        "red-green incremental query graph vs from-scratch recomputation: no-op churn \
         batches on a 10^5-fact live instance, and net edits that change the chased \
         instance of Clio tenants",
        "the incremental and --scratch replays of every script are asserted byte-identical \
         before any timing; the gate requires incremental >= 5x scratch on the no-op churn \
         rows; the churn script is state-neutral so repeated replays measure the same work, \
         and each net-edit rep replays on a freshly loaded session",
    );

    let (churn, net) = if smoke {
        (
            vec![Churn {
                name: "pipeline/4x500".into(),
                depth: 4,
                seeds: 500,
                batches: 2,
                reps: 1,
                gate_5x: false,
            }],
            vec![NetEdit {
                name: "clio/50".into(),
                depts: 50,
                batches: 2,
                reps: 1,
                core: true,
            }],
        )
    } else {
        (
            vec![
                Churn {
                    name: "pipeline/4x2500".into(),
                    depth: 4,
                    seeds: 2_500,
                    batches: 4,
                    reps: 2,
                    gate_5x: true,
                },
                Churn {
                    name: "pipeline/4x25000".into(),
                    depth: 4,
                    seeds: 25_000,
                    batches: 4,
                    reps: 1,
                    gate_5x: true,
                },
            ],
            vec![
                NetEdit {
                    name: "clio/500".into(),
                    depts: 500,
                    batches: 8,
                    reps: 15,
                    core: false,
                },
                NetEdit {
                    name: "clio/750+core".into(),
                    depts: 750,
                    batches: 8,
                    reps: 9,
                    core: true,
                },
            ],
        )
    };

    println!(
        "red-green incremental replay vs scratch recomputation{} (ms per timed script)\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!("  case          workload            facts  queries   scratch ms    incr ms  speedup");
    let mut all_pass = true;
    let verify = verify_script();
    for w in &churn {
        let src = pipeline_src(w.depth, w.seeds);
        let timed = timed_script(w.batches);

        // Identity first, on both scripts: the incremental replay must
        // render byte-for-byte what scratch recomputation renders, or
        // the workload is disqualified from timing at all.
        assert_identical(&src, &verify, &format!("{}: verify script", w.name));
        let queries = assert_identical(&src, &timed, &format!("{}: timed script", w.name)).len();
        // Seeds source facts + depth·seeds derived.
        let facts = w.seeds * (w.depth + 1);

        // The timed script is state-neutral: replaying it on a live
        // instance leaves the fact set (and every memo's inputs)
        // unchanged, so each rep does the same work.
        let mut db_incr = load(&src, false);
        let incr_secs = time(w.reps, || replay(&mut db_incr, &timed).len());
        let mut db_scratch = load(&src, true);
        let scratch_secs = time(w.reps, || replay(&mut db_scratch, &timed).len());
        let speedup = scratch_secs / incr_secs;
        let gate_ok = !w.gate_5x || speedup >= 5.0;
        all_pass &= gate_ok;

        // Red-green accounting for one fresh replay, for the record: the
        // churn batches must verify green without recomputing.
        let (greens, recomputes) = replay_stats(&src, &timed, &[]);

        println!(
            "  no-op churn   {:<18} {:>7}  {:>7}  {:>11.2}  {:>9.3}  {:>6.1}x{}",
            w.name,
            facts,
            queries,
            scratch_secs * 1e3,
            incr_secs * 1e3,
            speedup,
            if gate_ok { "" } else { "  << below 5x gate" }
        );
        record.row(&[
            ("build", "this".to_string()),
            ("case", "no-op churn".to_string()),
            ("workload", w.name.clone()),
            ("facts", facts.to_string()),
            ("batches", w.batches.to_string()),
            ("queries", queries.to_string()),
            ("identical", "true".to_string()),
            ("scratch_ms", format!("{:.3}", scratch_secs * 1e3)),
            ("incremental_ms", format!("{:.3}", incr_secs * 1e3)),
            ("speedup", format!("{speedup:.2}")),
            ("green_marks", greens.to_string()),
            ("recomputes", recomputes.to_string()),
            ("gate_5x", w.gate_5x.to_string()),
            ("gate_ok", gate_ok.to_string()),
            ("smoke", smoke.to_string()),
        ]);
    }
    for w in &net {
        let (src, members) = clio_src(w.depts, 11);
        let timed = net_script(w.depts, &members, w.batches, w.core);
        assert_identical(&src, &verify, &format!("{}: verify script", w.name));
        let queries = assert_identical(&src, &timed, &format!("{}: timed script", w.name)).len();
        let facts = src.lines().filter(|l| l.starts_with("fact: ")).count();
        let warm: &[QueryKey] = match w.core {
            true => &[QueryKey::Chase, QueryKey::Core],
            false => &[QueryKey::Chase],
        };
        let incr_secs = median_replay(&src, &timed, false, w.reps, warm);
        let scratch_secs = median_replay(&src, &timed, true, w.reps, warm);
        let speedup = scratch_secs / incr_secs;
        let (greens, recomputes) = replay_stats(&src, &timed, warm);
        println!(
            "  net edit      {:<18} {:>7}  {:>7}  {:>11.2}  {:>9.3}  {:>6.2}x",
            w.name,
            facts,
            queries,
            scratch_secs * 1e3,
            incr_secs * 1e3,
            speedup,
        );
        record.row(&[
            ("build", "this".to_string()),
            ("case", "net edit".to_string()),
            ("workload", w.name.clone()),
            ("facts", facts.to_string()),
            ("batches", w.batches.to_string()),
            ("queries", queries.to_string()),
            ("identical", "true".to_string()),
            ("scratch_ms", format!("{:.3}", scratch_secs * 1e3)),
            ("incremental_ms", format!("{:.3}", incr_secs * 1e3)),
            ("speedup", format!("{speedup:.2}")),
            ("green_marks", greens.to_string()),
            ("recomputes", recomputes.to_string()),
            ("gate_5x", "false".to_string()),
            ("gate_ok", "true".to_string()),
            ("smoke", smoke.to_string()),
        ]);
    }

    println!(
        "\n=> identity asserted on every script; 5x gate: {}",
        if all_pass { "pass" } else { "FAIL" }
    );
    record.passed = all_pass;
    if let Some(path) = parent {
        if let Err(e) = record.push_parent_rows(&path) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    let path = record
        .write_to(std::path::Path::new(&out_dir))
        .expect("record written");
    println!("record: {}", path.display());
    if !all_pass {
        std::process::exit(1);
    }
}
