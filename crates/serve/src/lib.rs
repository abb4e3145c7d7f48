//! # ndl-serve — the long-running mapping daemon
//!
//! A persistent, multi-tenant server exposing the `ndl` toolchain — lint,
//! analyze (including `--dataflow` and `--schedule`), the naive and
//! delta fixpoint chase, core computation, IMPLIES and GLAV-equivalence — over a
//! framed-JSON protocol on a Unix or TCP socket. Std-only: no async
//! runtime, no new dependencies.
//!
//! The crate exists because a daemon magnifies process-lifetime hazards
//! that one-shot CLI runs never see (the bugs fixed alongside it in PR 9):
//! a `OnceLock`-cached [`ndl_chase::ChaseConfig`] would freeze the first
//! request's settings for every later tenant, a compacting
//! [`ndl_core::store::FactStore`] silently invalidates `FactId`s held
//! across requests, and an unflushed trace sink loses the telemetry of
//! every run that ends early. Config is therefore an explicit per-request
//! value, store compaction bumps an epoch the delta engine asserts, and
//! every outcome path flushes its sinks.
//!
//! ## Layout
//!
//! - [`eval`] — the single implementation of command evaluation, shared
//!   verbatim by the CLI subcommands and the daemon ops: a daemon response
//!   is **byte-identical** to the one-shot CLI run by construction.
//! - [`proto`] — the wire protocol: 4-byte big-endian length framing
//!   around UTF-8 JSON request/response objects.
//! - [`cache`] — the LRU-by-bytes cache of parsed programs (with their
//!   analyses, plans, certificates) and of reasoning-op responses, keyed
//!   by content hash.
//! - [`server`] — the daemon proper: bounded work queue, fixed worker
//!   pool, per-tenant step-budget ceilings, graceful shutdown, JSONL
//!   telemetry.
//! - [`client`] — a minimal blocking client (used by `ndl request`,
//!   `bench_serve` and the integration tests).
//!
//! See `docs/serve.md` for the protocol reference.

pub mod cache;
pub mod client;
pub mod eval;
pub mod proto;
pub mod server;

pub use cache::{content_hash, ServeCache};
pub use client::Client;
pub use eval::{EvalOutput, ProgramArtifacts};
pub use proto::{read_frame, write_frame, Request, RequestConfig, Response, MAX_FRAME};
pub use server::{serve, Endpoint, ServeOptions, ServerSummary, TenantStats};
