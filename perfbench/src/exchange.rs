//! `exchange`: one-shot data exchange in a closed loop with one job in
//! flight. Each job is a generated program text run exactly as
//! `ndl chase <file>` runs it: `ProgramArtifacts::build`, then
//! `eval::chase_program` with the default configuration.

use crate::inputs::{exchange_pool, ExchangeSizes, Family, Job, Prediction};
use crate::pipeline::{self, fixpoint_header, Counters};
use crate::stats::{median, percentile, sliced_median, sorted, Summary, SLICES};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Config, Report};
use ndl_serve::cache::content_hash;
use std::collections::BTreeMap;
use std::time::Instant;

const PATH: &str = "job.ndl";

/// The pool: eight jobs per family, each family's sizes at the midpoints
/// of eight equal strata of its range, so that seeds change the content
/// of a pool (names, member counts, generated programs) and not its cost.
const SIZES: ExchangeSizes = ExchangeSizes {
    per_family: 8,
    depts: (1000, 2000),
    chain_len: (110, 150),
    chains: 2,
    depth: (4, 12),
    width: 400,
    dead: (300, 600),
};

/// The smoke-mode pool.
const TINY: ExchangeSizes = ExchangeSizes {
    per_family: 1,
    depts: (20, 40),
    chain_len: (10, 20),
    chains: 1,
    depth: (2, 4),
    width: 10,
    dead: (5, 10),
};

/// Generates the pool and runs one job per family once.
fn setup(cfg: &Config) -> Result<Vec<Job>, String> {
    let pool = exchange_pool(cfg.seed, if cfg.tiny { &TINY } else { &SIZES });
    let mut seen = Vec::new();
    for job in &pool {
        if !seen.contains(&job.family) {
            seen.push(job.family);
            pipeline::chase_untraced(&job.src, PATH, &[])?;
        }
    }
    Ok(pool)
}

/// One timed execution. It keeps a hash of its output, not the output,
/// so the harness holds no job output while the peak RSS is read.
struct Exec {
    job: usize,
    /// Start, seconds into the measured loop.
    at: f64,
    secs: f64,
    facts: usize,
    hash: u64,
}

fn hash_of(out: &Result<String, String>) -> u64 {
    match out {
        Ok(o) => content_hash(o),
        Err(e) => content_hash(e).wrapping_add(1),
    }
}

/// Runs each distinct job once more, untimed, after the peak RSS was
/// read: every timed execution must hash like this output, which must
/// match its family's prediction, and one job per family must match the
/// naive (`--no-delta`) engine byte for byte.
fn verify(pool: &[Job], execs: &[Exec], r: &mut Report) {
    let mut hashes: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for e in execs {
        hashes.entry(e.job).or_default().push(e.hash);
    }
    let mut naive_checked = Vec::new();
    for (&idx, timed) in &hashes {
        let job = &pool[idx];
        let again = pipeline::chase_untraced(&job.src, PATH, &[]);
        let want_hash = hash_of(&again);
        let changed = timed.iter().filter(|&&h| h != want_hash).count();
        for _ in 0..changed {
            r.fail(format!(
                "{} job {idx}: timed output differs from an untimed rerun",
                job.family.name()
            ));
        }
        // Each timed execution that hashed like the rerun shares its verdict.
        let same = timed.len() - changed;
        let out = match again {
            Ok(out) => out,
            Err(msg) => {
                for _ in 0..same {
                    r.fail(format!("{} job {idx}: {msg}", job.family.name()));
                }
                continue;
            }
        };
        let got = fixpoint_header(&out);
        let want = match &job.predicted {
            Prediction::Counts {
                facts,
                derived,
                nulls,
            } => Some((*facts, *derived, *nulls)),
            Prediction::SameAs(live) => pipeline::chase_untraced(live, PATH, &[])
                .ok()
                .and_then(|o| fixpoint_header(&o))
                .map(|(f, d, n, _)| (f, d, n)),
        };
        if got.map(|(f, d, n, _)| (f, d, n)) != want || want.is_none() {
            for _ in 0..same {
                r.fail(format!(
                    "{} job {idx}: counts {got:?}, predicted {want:?}",
                    job.family.name()
                ));
            }
            continue;
        }
        if !naive_checked.contains(&job.family) {
            naive_checked.push(job.family);
            let naive = pipeline::chase_untraced(&job.src, PATH, &["--no-delta".to_string()]);
            if naive.as_ref() != Ok(&out) {
                for _ in 0..same {
                    r.fail(format!(
                        "{} job {idx}: output differs from the naive engine",
                        job.family.name()
                    ));
                }
            }
        }
    }
    r.detail(format!(
        "verified: {} distinct jobs against family predictions, {} families against --no-delta",
        hashes.len(),
        naive_checked.len()
    ));
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
    let mut per_family: BTreeMap<Family, usize> = BTreeMap::new();
    for j in &pool {
        *per_family.entry(j.family).or_default() += 1;
    }
    r.detail(format!(
        "pool: {} jobs {:?}; loop: closed, one job in flight; engine: ndl chase <file> defaults",
        pool.len(),
        per_family
            .iter()
            .map(|(f, n)| format!("{}={n}", f.name()))
            .collect::<Vec<_>>()
    ));
    if cfg.trace {
        return traced(cfg, &pool, r);
    }

    let mut execs = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < cfg.seconds || execs.len() < pool.len().min(4) {
        let idx = i % pool.len();
        let at = start.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let out = pipeline::chase_untraced(std::hint::black_box(&pool[idx].src), PATH, &[]);
        let secs = t0.elapsed().as_secs_f64();
        let facts = out
            .as_ref()
            .ok()
            .and_then(|o| fixpoint_header(o))
            .map_or(0, |h| h.0);
        execs.push(Exec {
            job: idx,
            at,
            secs,
            facts,
            hash: hash_of(&out),
        });
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    // Before the untimed checks, so the figure covers the `ndl chase`
    // path and not the naive engine the checks run.
    let rss = peak_rss_mb(None);
    r.attempted = execs.len() as u64;
    verify(&pool, &execs, &mut r);

    let ms: Vec<f64> = execs.iter().map(|e| e.secs * 1e3).collect();
    let facts: usize = execs.iter().map(|e| e.facts).sum();
    let busy: f64 = execs.iter().map(|e| e.secs).sum();
    let all = Summary::of(&ms);
    r.detail(all.render("job", "ms"));
    for fam in per_family.keys() {
        let v: Vec<f64> = execs
            .iter()
            .filter(|e| pool[e.job].family == *fam)
            .map(|e| e.secs * 1e3)
            .collect();
        r.detail(Summary::of(&v).render(&format!("job[{}]", fam.name()), "ms"));
    }
    r.detail(Summary::of(&setups).render("setup", "s"));
    r.detail(format!(
        "facts_per_s: {:.1} ({facts} output facts over {busy:.3} s of job time, {wall:.3} s wall)",
        facts as f64 / busy
    ));
    r.detail(format!("fail_ratio: {}/{}", r.failed, r.attempted));
    // Each figure is the median over time slices of the run.
    let sliced =
        |stat: &dyn Fn(&[&Exec]) -> f64| sliced_median(&execs, |e| e.at, 0.0, wall, SLICES, stat);
    let pct = |q: f64| {
        move |s: &[&Exec]| {
            percentile(
                &sorted(&s.iter().map(|e| e.secs * 1e3).collect::<Vec<_>>()),
                q,
            )
        }
    };
    r.metric("setup_s", median(&setups), "s");
    r.metric("peak_rss_mb", rss, "MB");
    r.metric("p50_ms", sliced(&pct(0.5)), "ms");
    r.metric("p90_ms", sliced(&pct(0.9)), "ms");
    // The heaviest family: the flat Clio mapping, which re-invents a group
    // per member and so writes the most facts per source fact.
    r.metric(
        "heavy.p50_ms",
        sliced(&|s| {
            median(
                &s.iter()
                    .filter(|e| pool[e.job].family == Family::ClioFlat)
                    .map(|e| e.secs * 1e3)
                    .collect::<Vec<_>>(),
            )
        }),
        "ms",
    );
    r.metric(
        "work_per_s",
        sliced(&|s| {
            s.iter().map(|e| e.facts as f64).sum::<f64>() / s.iter().map(|e| e.secs).sum::<f64>()
        }),
        "1/s",
    );
    Ok(r)
}

/// The traced run: each job runs untraced and then through the layer
/// replica; the two outputs must be byte-identical.
fn traced(cfg: &Config, pool: &[Job], mut r: Report) -> Result<Report, String> {
    let mut t = Tracer::new();
    let mut c = Counters::default();
    let (mut plain, mut traced) = (0.0, 0.0);
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds || (ops as usize) < pool.len().min(4) {
        let job = &pool[ops as usize % pool.len()];
        let t0 = Instant::now();
        let want = pipeline::chase_untraced(&job.src, PATH, &[]);
        plain += t0.elapsed().as_secs_f64();
        t.set_request(ops);
        let t1 = Instant::now();
        t.begin("job");
        let got = pipeline::chase_file(&job.src, PATH, &mut t, &mut c);
        t.end();
        traced += t1.elapsed().as_secs_f64();
        if want != got {
            r.fail(format!(
                "{}: traced output differs from ndl chase",
                job.family.name()
            ));
        }
        ops += 1;
    }
    r.attempted = ops;
    let _ = t.write_jsonl(&crate::out_dir().join(format!("spans-exchange-{}.jsonl", cfg.seed)));
    let overhead = (traced - plain) * 1e3 / ops as f64;
    r.detail(format!(
        "tracing overhead: {overhead:.4} ms/job (traced {:.3} s vs untraced {:.3} s over {ops} jobs)",
        traced, plain
    ));
    crate::layers::report(&mut r, t.spans(), &c, ops, overhead, &["job"]);
    Ok(r)
}
