//! `reason`: mapping-design decisions in a closed loop, one in flight,
//! through `eval::implies`, `eval::equiv` and `eval::classify` — what
//! `ndl implies|equiv|classify` runs.

use crate::inputs::{reason_pool, Decision};
use crate::pipeline::{self, Counters};
use crate::stats::{median, percentile, sliced_median, sorted, Summary, SLICES};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Config, Report};
use std::collections::BTreeMap;
use std::time::Instant;

/// Random depth-2 nested tgds in the pool, beside the paper's examples.
const RANDOM_TGDS: usize = 64;

fn setup(cfg: &Config) -> Result<Vec<Decision>, String> {
    let random = if cfg.tiny { 2 } else { RANDOM_TGDS };
    let pool = reason_pool(cfg.seed, random, cfg.spec.pattern_cap);
    // Warm-up: every decision once.
    for d in &pool {
        pipeline::decide_untraced(d.op, &d.args)?;
    }
    Ok(pool)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let t0 = Instant::now();
        pool = setup(cfg)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &pool {
        *kinds.entry(d.source).or_default() += 1;
    }
    r.detail(format!(
        "pool: {} decisions {kinds:?}; count_k_patterns cap {}; loop: closed, one decision in flight",
        pool.len(),
        cfg.spec.pattern_cap
    ));
    if cfg.trace {
        return traced(cfg, &pool, r);
    }

    // (decision, seconds into the loop, seconds taken)
    let mut times: Vec<(usize, f64, f64)> = Vec::new();
    let mut first: BTreeMap<usize, String> = BTreeMap::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < cfg.seconds || i < pool.len() {
        let idx = i % pool.len();
        let d = &pool[idx];
        let at = start.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let out = pipeline::decide_untraced(d.op, std::hint::black_box(&d.args));
        let secs = t0.elapsed().as_secs_f64();
        times.push((idx, at, secs));
        match out {
            Err(e) => r.fail(format!("{} ({}): {e}", d.op, d.source)),
            Ok(out) => match first.get(&idx) {
                Some(prev) if *prev != out => r.fail(format!(
                    "{} ({}): verdict changed between runs",
                    d.op, d.source
                )),
                Some(_) => {}
                None => {
                    if let Err(e) = d.verdict.check(&out) {
                        r.fail(format!("{} ({}): {e}", d.op, d.source));
                    }
                    first.insert(idx, out);
                }
            },
        }
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    r.attempted = times.len() as u64;
    let ms: Vec<f64> = times.iter().map(|&(_, _, s)| s * 1e3).collect();
    let holds: Vec<f64> = times
        .iter()
        .filter(|&&(i, _, _)| pool[i].verdict.holds())
        .map(|&(_, _, s)| s * 1e3)
        .collect();
    let fails: Vec<f64> = times
        .iter()
        .filter(|&&(i, _, _)| !pool[i].verdict.holds())
        .map(|&(_, _, s)| s * 1e3)
        .collect();
    let busy: f64 = times.iter().map(|&(_, _, s)| s).sum();
    r.detail(Summary::of(&ms).render("decision", "ms"));
    r.detail(Summary::of(&holds).render("decision[holds]", "ms"));
    r.detail(Summary::of(&fails).render("decision[fails]", "ms"));
    for op in ["implies", "equiv", "classify"] {
        let v: Vec<f64> = times
            .iter()
            .filter(|&&(i, _, _)| pool[i].op == op)
            .map(|&(_, _, s)| s * 1e3)
            .collect();
        r.detail(Summary::of(&v).render(&format!("decision[{op}]"), "ms"));
    }
    r.detail(Summary::of(&setups).render("setup", "s"));
    r.detail(format!(
        "decisions_per_s: {:.2} ({} decisions over {busy:.3} s)",
        times.len() as f64 / busy,
        times.len()
    ));
    r.detail(format!("fail_ratio: {}/{}", r.failed, r.attempted));
    // Each figure is the median over time slices of the run.
    type T = (usize, f64, f64);
    let sliced =
        |stat: &dyn Fn(&[&T]) -> f64| sliced_median(&times, |x| x.1, 0.0, wall, SLICES, stat);
    let pct = |q: f64| {
        move |s: &[&T]| percentile(&sorted(&s.iter().map(|x| x.2 * 1e3).collect::<Vec<_>>()), q)
    };
    r.metric("setup_s", median(&setups), "s");
    r.metric("peak_rss_mb", peak_rss_mb(None), "MB");
    r.metric("p50_ms", sliced(&pct(0.5)), "ms");
    r.metric("p90_ms", sliced(&pct(0.9)), "ms");
    // The heaviest class: equivalence, two full IMPLIES runs per decision.
    r.metric(
        "heavy.p50_ms",
        sliced(&|s| {
            median(
                &s.iter()
                    .filter(|x| pool[x.0].op == "equiv")
                    .map(|x| x.2 * 1e3)
                    .collect::<Vec<_>>(),
            )
        }),
        "ms",
    );
    r.metric(
        "work_per_s",
        sliced(&|s| s.len() as f64 / s.iter().map(|x| x.2).sum::<f64>()),
        "1/s",
    );
    Ok(r)
}

/// The traced run: each decision runs untraced and then through the
/// layer replica; outputs (verdicts, `patterns_checked`, counterexample)
/// must be byte-identical.
fn traced(cfg: &Config, pool: &[Decision], mut r: Report) -> Result<Report, String> {
    let mut t = Tracer::new();
    let mut c = Counters::default();
    let (mut plain, mut traced) = (0.0, 0.0);
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds || (ops as usize) < pool.len() {
        let d = &pool[ops as usize % pool.len()];
        let t0 = Instant::now();
        let want = pipeline::decide_untraced(d.op, &d.args);
        plain += t0.elapsed().as_secs_f64();
        t.set_request(ops);
        let t1 = Instant::now();
        t.begin("decision");
        let got = pipeline::decide(d.op, &d.args, &mut t, &mut c);
        t.end();
        traced += t1.elapsed().as_secs_f64();
        if want != got {
            r.fail(format!(
                "{} ({}): traced output differs from ndl {}",
                d.op, d.source, d.op
            ));
        }
        ops += 1;
    }
    r.attempted = ops;
    let _ = t.write_jsonl(&crate::out_dir().join(format!("spans-reason-{}.jsonl", cfg.seed)));
    let overhead = (traced - plain) * 1e3 / ops as f64;
    r.detail(format!(
        "tracing overhead: {overhead:.4} ms/decision (traced {traced:.3} s vs untraced {plain:.3} s over {ops} decisions)"
    ));
    crate::layers::report(&mut r, t.spans(), &c, ops, overhead, &["decision"]);
    Ok(r)
}
