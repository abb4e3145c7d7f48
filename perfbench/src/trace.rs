//! In-memory spans recorded from outside the program, around the calls
//! into each layer's public functions, and the self-time arithmetic.
//!
//! A span is `(name, start, end, parent, request id)`. Spans of one
//! request share its id. A span's self time is its duration minus the
//! part of its interval that its children cover, so the self times of a
//! request's spans sum to the duration of its root span.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `chase` or `hom.search`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (job, decision, daemon request) the span belongs to.
    pub req: u64,
}

/// Records spans. Untraced runs do not build one: they call the user
/// paths directly.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Sets the request id that new spans carry.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end = self.now_ns();
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end = end;
    }

    /// Adds a finished span with explicit times (ns since the epoch),
    /// for intervals measured elsewhere (the daemon's own clock).
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            req: self.req,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_jsonl(&self.spans, path)
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.name,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req
        )?;
    }
    w.flush()
}

/// Appends the spans of another tracer, keeping their parent links.
pub fn append(spans: &mut Vec<Span>, more: &[Span]) {
    let base = spans.len();
    spans.extend(more.iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..s.clone()
    }));
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time per layer name, in ns.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Total duration of the root spans, in ns.
pub fn root_total(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum()
}

/// The share of the named root spans' duration that their descendants'
/// self times cover; the rest is the roots' own self time (harness glue).
/// 1 when there are no such roots.
pub fn coverage(spans: &[Span], roots: &[&str]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut glue) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(own) {
        if s.parent.is_none() && roots.contains(&s.name) {
            total += s.end - s.start;
            glue += t;
        }
    }
    if total == 0 {
        1.0
    } else {
        1.0 - glue as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("chase", 30, 90, Some(0)),
            span("render", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let by = self_by_layer(&spans);
        assert_eq!(by["job"], 20);
        assert_eq!(by["chase"], 50);
        assert_eq!(by.values().sum::<u64>(), root_total(&spans));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("daemon", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered: [100,150) and [190,200) = 60 ns of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn coverage_counts_only_the_named_roots() {
        let mut spans = vec![
            span("job", 0, 100, None),
            span("chase", 10, 90, Some(0)),
            span("render", 80, 120, Some(1)),
        ];
        // Another tracer's tree, appended: its parents shift with it.
        append(
            &mut spans,
            &[span("request", 0, 50, None), span("wire", 0, 50, Some(0))],
        );
        assert_eq!(spans[4].parent, Some(3));
        // The job's own 20 ns of 100 are glue; the request tree is not counted.
        assert!((coverage(&spans, &["job"]) - 0.8).abs() < 1e-12);
        assert_eq!(coverage(&spans, &["replay"]), 1.0);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        t.set_request(7);
        t.begin("outer");
        t.begin("inner");
        t.end();
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|s| s.req == 7 && s.end >= s.start));
        assert_eq!(
            self_by_layer(s).values().sum::<u64>(),
            root_total(s),
            "self times partition the root"
        );
    }
}
