//! JSONL event tracing: one JSON object per observer event, appended to any
//! [`std::io::Write`] sink (`ndl chase --trace <out.jsonl>` writes a file).
//!
//! Events are coarse — chase rounds and per-statement aggregates — so a
//! trace stays proportional to `rounds × statements`, not to the number of
//! triggers examined. The schema is documented in `docs/observability.md`.

use crate::observer::{ChaseObserver, StmtRound};
use ndl_core::store::StoreCounters;
use std::io::Write;

/// A [`ChaseObserver`] appending one JSON line per event to `sink`.
///
/// I/O errors are counted, not propagated: observers must not change
/// engine behavior, so a full disk degrades the trace, never the chase.
#[derive(Debug)]
pub struct JsonlTracer<W: Write> {
    sink: W,
    events: u64,
    io_errors: u64,
}

impl<W: Write> JsonlTracer<W> {
    /// Wraps a sink.
    pub fn new(sink: W) -> JsonlTracer<W> {
        JsonlTracer {
            sink,
            events: 0,
            io_errors: 0,
        }
    }

    /// Events successfully written.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Write errors swallowed (0 on a healthy sink).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Flushes the sink, counting a failure into
    /// [`JsonlTracer::io_errors`] (flush errors must not pass silently —
    /// a daemon's only signal that telemetry was truncated).
    ///
    /// Called automatically from [`ChaseObserver::chase_end`], the
    /// terminal event of **every** outcome path — fixpoint, refusal,
    /// budget exhaustion, schedule/certificate rejection — so a buffered
    /// sink (a `BufWriter` over a file or socket) is durable the moment a
    /// run ends, even in a long-lived process that never drops the tracer.
    pub fn flush(&mut self) {
        if self.sink.flush().is_err() {
            self.io_errors += 1;
        }
    }

    /// Flushes and returns the sink. A flush failure is counted in
    /// [`JsonlTracer::io_errors`] — but the count is lost with `self`, so
    /// hosts that care should call [`JsonlTracer::flush`] and check first.
    pub fn into_inner(mut self) -> W {
        self.flush();
        self.sink
    }

    fn emit(&mut self, line: &str) {
        match writeln!(self.sink, "{line}") {
            Ok(()) => self.events += 1,
            Err(_) => self.io_errors += 1,
        }
    }
}

impl<W: Write> ChaseObserver for JsonlTracer<W> {
    fn chase_start(&mut self, statements: usize, source_facts: usize) {
        self.emit(&format!(
            "{{\"event\":\"chase_start\",\"statements\":{statements},\"source_facts\":{source_facts}}}"
        ));
    }

    fn dataflow_cert(&mut self, dead: usize, ground: usize) {
        self.emit(&format!(
            "{{\"event\":\"dataflow_cert\",\"dead\":{dead},\"ground\":{ground}}}"
        ));
    }

    fn statement_skipped(&mut self, round: usize, stmt: usize) {
        self.emit(&format!(
            "{{\"event\":\"statement_skipped\",\"round\":{round},\"stmt\":{stmt}}}"
        ));
    }

    fn round_start(&mut self, round: usize) {
        self.emit(&format!("{{\"event\":\"round_start\",\"round\":{round}}}"));
    }

    fn round_delta(&mut self, round: usize, frontier: u64) {
        self.emit(&format!(
            "{{\"event\":\"round_delta\",\"round\":{round},\"frontier\":{frontier}}}"
        ));
    }

    fn statement(&mut self, sr: &StmtRound) {
        self.emit(&format!(
            "{{\"event\":\"statement\",\"round\":{},\"stmt\":{},\"examined\":{},\"fired\":{},\"derived\":{},\"dedup_hits\":{},\"nulls_interned\":{},\"touched\":{},\"elapsed_ns\":{}}}",
            sr.round, sr.stmt, sr.examined, sr.fired, sr.derived, sr.dedup_hits, sr.nulls_interned, sr.touched, sr.elapsed_ns
        ));
    }

    fn round_end(&mut self, round: usize, fresh: u64, elapsed_ns: u64) {
        self.emit(&format!(
            "{{\"event\":\"round_end\",\"round\":{round},\"fresh\":{fresh},\"elapsed_ns\":{elapsed_ns}}}"
        ));
    }

    fn chase_end(&mut self, rounds: usize, derived: u64, outcome: &str) {
        // `outcome` is one of the engine's fixed labels — no escaping needed.
        self.emit(&format!(
            "{{\"event\":\"chase_end\",\"rounds\":{rounds},\"derived\":{derived},\"outcome\":\"{outcome}\"}}"
        ));
        // Every outcome path — fixpoint, refusal, budget exhaustion,
        // cert rejection — ends with this event, so flushing here
        // guarantees a buffered sink holds the complete trace even when
        // the engine returned early with an error and the host (a daemon
        // that keeps the sink open) never drops the tracer.
        self.flush();
    }

    fn store(&mut self, c: &StoreCounters) {
        self.emit(&format!(
            "{{\"event\":\"store\",\"inserts\":{},\"dedup_hits\":{},\"tombstones\":{},\"revivals\":{},\"compactions\":{},\"rehashes\":{},\"regrows\":{}}}",
            c.inserts, c.dedup_hits, c.tombstones, c.revivals, c.compactions, c.rehashes, c.regrows
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_one_json_object_per_event() {
        let mut t = JsonlTracer::new(Vec::new());
        t.chase_start(2, 3);
        t.dataflow_cert(1, 2);
        t.statement_skipped(1, 1);
        t.round_start(1);
        t.round_delta(1, 3);
        t.statement(&StmtRound {
            round: 1,
            stmt: 0,
            examined: 4,
            fired: 4,
            derived: 2,
            dedup_hits: 0,
            nulls_interned: 1,
            touched: 9,
            elapsed_ns: 0,
        });
        t.round_end(1, 2, 0);
        t.chase_end(2, 2, "fixpoint");
        assert_eq!(t.events(), 8);
        assert_eq!(t.io_errors(), 0);
        let text = String::from_utf8(t.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        // Every line parses as a JSON object with an "event" key.
        for line in &lines {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            let obj = v.as_object().expect("object");
            assert!(obj.iter().any(|(k, _)| k == "event"), "{line}");
        }
        assert!(lines[1].contains("\"dead\":1"));
        assert!(lines[2].contains("\"statement_skipped\""));
        assert!(lines[4].contains("\"frontier\":3"));
        assert!(lines[5].contains("\"examined\":4"));
        assert!(lines[5].contains("\"touched\":9"));
        assert!(lines[7].contains("\"outcome\":\"fixpoint\""));
    }

    #[test]
    fn io_errors_are_swallowed() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut t = JsonlTracer::new(Broken);
        t.round_start(1);
        assert_eq!(t.events(), 0);
        assert_eq!(t.io_errors(), 1);
    }

    /// A sink that buffers writes and only commits them on flush — the
    /// shape of a `BufWriter` over a file, scaled down so tests can see
    /// exactly what reached "disk".
    struct FlushGated {
        pending: Vec<u8>,
        committed: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
    }
    impl Write for FlushGated {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.pending.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.committed.borrow_mut().extend_from_slice(&self.pending);
            self.pending.clear();
            Ok(())
        }
    }

    #[test]
    fn chase_end_flushes_buffered_sinks_on_every_outcome() {
        // Regression for the daemon telemetry hazard: events written into
        // a buffered sink used to reach the underlying file only when the
        // tracer was consumed (`into_inner`) or dropped — a long-lived
        // host that keeps the sink open lost the entire trace of runs
        // that ended early (budget exhaustion, refusals). `chase_end` is
        // the terminal event of every outcome path and now flushes.
        for outcome in ["fixpoint", "budget-exhausted", "refused"] {
            let committed = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let mut t = JsonlTracer::new(FlushGated {
                pending: Vec::new(),
                committed: committed.clone(),
            });
            t.chase_start(1, 2);
            t.round_start(1);
            t.chase_end(1, 3, outcome);
            // Without consuming the tracer, the committed bytes already
            // hold the complete trace, ending in a well-formed final line.
            let text = String::from_utf8(committed.borrow().clone()).unwrap();
            assert!(text.ends_with('\n'), "{outcome}: trace not flushed");
            let last = text.lines().last().expect("flushed lines");
            let v: serde::Value = serde_json::from_str(last)
                .unwrap_or_else(|e| panic!("{outcome}: truncated final line {last:?}: {e}"));
            let obj = v.as_object().expect("object");
            assert!(obj
                .iter()
                .any(|(k, v)| k == "event" && v.as_str() == Some("chase_end")));
            assert!(obj
                .iter()
                .any(|(k, v)| k == "outcome" && v.as_str() == Some(outcome)));
            assert_eq!(t.io_errors(), 0);
        }
    }

    #[test]
    fn flush_failures_are_counted_not_silent() {
        struct FlushBroken;
        impl Write for FlushBroken {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let mut t = JsonlTracer::new(FlushBroken);
        t.chase_end(1, 0, "fixpoint");
        // The write succeeded but the flush did not: the failure must be
        // visible, or a daemon would report healthy telemetry while the
        // trace never reached the file.
        assert_eq!(t.events(), 1);
        assert_eq!(t.io_errors(), 1);
    }
}
