//! # ndl-obs
//!
//! Engine observability for the nested-dependency system: counters, timers
//! and event traces for the chase, homomorphism/core and reasoning engines,
//! surfaced through `ndl chase --stats|--trace`, `ndl lint --stats` and the
//! `bench_chase` experiment record (see `docs/observability.md`).
//!
//! The layer is **zero-cost when disabled**: engines are generic over an
//! observer type, every observer method has an empty default body, and the
//! [`NoopObserver`] sets [`ChaseObserver::ENABLED`] to `false` so
//! instrumented hot paths skip even their clock reads. Monomorphization
//! erases the no-op calls entirely — the uninstrumented entry points
//! compile to the same code they did before instrumentation.
//!
//! Three observer families:
//!
//! - [`ChaseObserver`] — sequential chase engines report per-round and
//!   per-statement aggregates (`&mut self`: the chase is single-threaded);
//! - [`HomObserver`] — the homomorphism/core engine reports fine-grained
//!   search events (`&self` + `Sync`: block searches and retraction probes
//!   run on scoped worker threads, so implementations count atomically);
//! - the [`warn`] registry — one-time configuration warnings (e.g. an
//!   ignored `NDL_HOM_THREADS` override) from code with no observer handle,
//!   plus per-request capture scopes ([`with_warning_scope`]) for the
//!   multi-tenant daemon; [`env`](mod@env) is the one parse-and-warn rule the
//!   configuration types read their environment overrides with;
//! - [`IncrObserver`] — red/green/recompute/cutoff events from the
//!   incremental query graph (`ndl-incr`), counted by [`IncrStats`].
//!
//! [`Stats`] bundles a [`ChaseStats`] and a [`HomStats`] into the one
//! aggregate most callers want; [`JsonlTracer`] appends one JSON object per
//! event to any [`std::io::Write`] sink.

#![warn(missing_docs)]

pub mod env;
pub mod incr;
pub mod observer;
pub mod stats;
pub mod trace;
pub mod warn;

pub use incr::{IncrObserver, IncrStats};
pub use observer::{ChaseObserver, HomObserver, NoopObserver, StmtRound};
pub use stats::{ChaseStats, HomStats, Stats, StmtStats};
pub use trace::JsonlTracer;
pub use warn::{take_warnings, warn_once, warnings, with_warning_scope, Warning};
