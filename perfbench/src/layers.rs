//! Per-layer metrics of a traced run. Every time and count is a mean per
//! traced operation (job, decision or daemon request); ratios are taken
//! over the whole run. A layer a workload never enters reads 0.

use crate::pipeline::Counters;
use crate::trace::{coverage, root_total, self_by_layer, Span};
use crate::Report;

/// Every per-layer metric with its unit, in print order. `BENCHMARK.json`
/// lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.parse.ms", "ms"),
    ("core.parse.mb_per_s", "MB/s"),
    ("analyze.ms", "ms"),
    ("analyze.statements", "count"),
    ("chase.plan.ms", "ms"),
    ("chase.plan.dead", "count"),
    ("chase.ms", "ms"),
    ("chase.rounds", "count"),
    ("chase.examined", "count"),
    ("chase.fired", "count"),
    ("chase.derived", "count"),
    ("chase.dedup_hits", "count"),
    ("chase.nulls", "count"),
    ("chase.touched", "count"),
    ("chase.fire_ratio", "ratio"),
    ("chase.new_ratio", "ratio"),
    ("render.ms", "ms"),
    ("render.bytes", "bytes"),
    ("render.bytes_per_fact", "bytes"),
    ("reasoning.enumerate.ms", "ms"),
    ("reasoning.patterns", "count"),
    ("reasoning.canonical.ms", "ms"),
    ("reasoning.canonical.facts", "count"),
    ("chase.nested.ms", "ms"),
    ("chase.nested.facts", "count"),
    ("core.index.ms", "ms"),
    ("core.index.builds", "count"),
    ("hom.search.ms", "ms"),
    ("hom.searches", "count"),
    ("hom.backtracks", "count"),
    ("hom.index_probes", "count"),
    ("hom.subinstance_ratio", "ratio"),
    ("reasoning.checked_ratio", "ratio"),
    ("reasoning.classify.ms", "ms"),
    ("hom.core.ms", "ms"),
    ("hom.retraction_probes", "count"),
    ("hom.retractions", "count"),
    ("incr.lookups", "count"),
    ("incr.hit_ratio", "ratio"),
    ("incr.recomputes", "count"),
    ("incr.green_marks", "count"),
    ("incr.cutoffs", "count"),
    ("incr.edit.ms", "ms"),
    ("incr.recompute.ms", "ms"),
    ("incr.verify.ms", "ms"),
    ("incr.rebuild.ms", "ms"),
    ("serve.wire.ms", "ms"),
    ("serve.daemon.ms", "ms"),
    ("serve.eval.ms", "ms"),
    ("serve.queue.ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.generation_bumps", "count"),
    ("serve.cache.repeat_misses", "count"),
    ("serve.lateness.ms", "ms"),
    ("serve.backlog", "count"),
    ("trace.ops", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Adds the span- and counter-derived layer metrics. `roots` names the
/// root spans that wrap the timed calls; their own self time is harness
/// glue, and `trace.coverage` is the share of their duration that layer
/// spans cover. `overhead_ms` is traced minus untraced time per operation.
pub fn report(
    r: &mut Report,
    spans: &[Span],
    c: &Counters,
    ops: u64,
    overhead_ms: f64,
    roots: &[&str],
) {
    let by = self_by_layer(spans);
    let n = ops.max(1) as f64;
    let ms = |name: &str| by.get(name).copied().unwrap_or(0) as f64 / 1e6 / n;
    let duration = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum::<u64>() as f64
            / 1e6
            / n
    };
    let per = |x: u64| x as f64 / n;
    let parse_s = by.get("core.parse").copied().unwrap_or(0) as f64 / 1e9;
    let hom = c.hom.snapshot();
    let core = c.core.snapshot();
    let rows: Vec<(&str, f64)> = vec![
        ("core.parse.ms", ms("core.parse")),
        (
            "core.parse.mb_per_s",
            if parse_s > 0.0 {
                c.parse_bytes as f64 / 1e6 / parse_s
            } else {
                0.0
            },
        ),
        ("analyze.ms", ms("analyze")),
        ("analyze.statements", per(c.statements)),
        ("chase.plan.ms", ms("chase.plan")),
        ("chase.plan.dead", per(c.dead)),
        ("chase.ms", ms("chase")),
        ("chase.rounds", per(c.rounds)),
        ("chase.examined", per(c.examined)),
        ("chase.fired", per(c.fired)),
        ("chase.derived", per(c.derived)),
        ("chase.dedup_hits", per(c.dedup_hits)),
        ("chase.nulls", per(c.nulls)),
        ("chase.touched", per(c.touched)),
        ("chase.fire_ratio", ratio(c.fired, c.examined)),
        (
            "chase.new_ratio",
            ratio(c.derived, c.derived + c.dedup_hits),
        ),
        ("render.ms", ms("render")),
        ("render.bytes", per(c.render_bytes)),
        (
            "render.bytes_per_fact",
            ratio(c.render_bytes, c.render_facts),
        ),
        ("reasoning.enumerate.ms", ms("reasoning.enumerate")),
        ("reasoning.patterns", per(c.patterns)),
        ("reasoning.canonical.ms", ms("reasoning.canonical")),
        ("reasoning.canonical.facts", per(c.canonical_facts)),
        ("chase.nested.ms", ms("chase.nested")),
        ("chase.nested.facts", per(c.nested_facts)),
        ("core.index.ms", ms("core.index")),
        ("core.index.builds", per(c.index_builds)),
        ("hom.search.ms", ms("hom.search")),
        ("hom.searches", per(c.hom_searches)),
        ("hom.backtracks", per(hom.backtracks)),
        ("hom.index_probes", per(hom.index_probes)),
        (
            "hom.subinstance_ratio",
            ratio(c.subinstance_hits, c.pattern_checks),
        ),
        ("reasoning.checked_ratio", ratio(c.checked, c.patterns)),
        ("reasoning.classify.ms", ms("reasoning.classify")),
        ("hom.core.ms", ms("hom.core")),
        ("hom.retraction_probes", per(core.retraction_probes)),
        ("hom.retractions", per(core.retractions)),
        ("incr.edit.ms", ms("incr.edit")),
        ("incr.recompute.ms", ms("incr.recompute")),
        ("incr.verify.ms", ms("incr.verify")),
        ("serve.wire.ms", ms("request")),
        ("serve.daemon.ms", duration("serve.daemon")),
        ("serve.lateness.ms", ms("serve.lateness")),
        ("trace.ops", ops as f64),
        ("trace.overhead_ms", overhead_ms),
    ];
    for (name, v) in rows {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("count", |(_, u)| *u);
        r.metric(name, v, unit);
    }
    let total = root_total(spans);
    let covered = coverage(spans, roots);
    r.metric("trace.coverage", covered, "ratio");
    r.detail(format!(
        "trace: {} spans over {ops} ops, {:.1} ms in root spans; layer self times cover {:.2}% of the {roots:?} spans",
        spans.len(),
        total as f64 / 1e6,
        covered * 100.0
    ));
    let mut shares: Vec<(&str, u64)> = by.into_iter().collect();
    shares.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
    for (name, t) in shares {
        r.detail(format!(
            "self time {name}: {:.3} ms/op ({:.1}%)",
            t as f64 / 1e6 / n,
            if total == 0 {
                0.0
            } else {
                t as f64 * 100.0 / total as f64
            }
        ));
    }
}

/// Fills in every per-layer metric not reported (layers the workload
/// does not enter read 0) and puts them in the listed order.
pub fn complete(r: &mut Report) {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let v = r
            .metrics
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v);
        out.push((name.to_string(), v, unit.to_string()));
    }
    r.metrics = out;
}
