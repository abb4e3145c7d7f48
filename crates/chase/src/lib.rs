//! # ndl-chase
//!
//! Chase engines for the dependency classes of *Nested Dependencies:
//! Structure and Reasoning* (PODS 2014):
//!
//! - [`st`] — the oblivious chase for s-t tgds (GLAV mappings);
//! - [`nested`] — the recursive-triggering chase for nested tgds,
//!   producing the **chase forest** of Section 3 with full provenance;
//! - [`so`] — the chase for (plain and full) SO tgds over the Herbrand
//!   term interpretation;
//! - [`egd`] — the egd chase over source instances (Section 5), used both
//!   to validate sources and to *legalize* canonical instances
//!   (Definition 5.4);
//! - [`fixpoint`] — the oblivious **fixpoint** chase for recursive SO-tgd
//!   programs, driven by a [`plan::ChasePlan`] (firing order, termination
//!   verdict, step budget) from the static analyzer;
//! - [`delta`] — the **semi-naive** fixpoint chase: each round matches
//!   only triggers reaching the previous round's delta frontier
//!   (`TupleIndex::mark_frontier`), with an optional sharded-parallel
//!   match phase — both bit-identical to [`fixpoint`];
//! - [`parallel`] — the stage-parallel fixpoint chase: fires the
//!   conflict-free statements of a [`plan::ParallelSchedule`] stage across
//!   scoped worker threads ([`config::ChaseConfig`], `NDL_CHASE_THREADS`)
//!   while staying bit-identical to [`fixpoint`] — the schedule is a
//!   verified certificate, not a trusted input;
//! - [`cert`] — dataflow certificates ([`DataflowCert`]): dead statements
//!   and null-free relations claimed by the analyzer, re-verified by
//!   every fixpoint engine against its actual inputs before dead
//!   statements are skipped;
//! - [`trigger`] — the shared conjunctive-query matching primitive;
//! - [`null`] — labeled nulls in bijection with ground Skolem terms.
//!
//! All engines produce **canonical universal solutions**: `chase(I, Σ)` is
//! a solution for `I`, and maps homomorphically into every solution.

#![warn(missing_docs)]

pub mod cert;
pub mod config;
pub mod delta;
pub mod egd;
pub mod fixpoint;
pub mod nested;
pub mod null;
pub mod parallel;
pub mod plan;
pub mod so;
pub mod st;
pub mod trigger;

pub use cert::{dataflow_facts, verify_dataflow_cert, DataflowCert, DataflowFacts};
pub use config::ChaseConfig;
pub use delta::{
    chase_fixpoint_delta, chase_fixpoint_delta_parallel, chase_fixpoint_delta_parallel_with,
    chase_fixpoint_delta_with,
};
pub use egd::{chase_egds, satisfies_egds, EgdChase, EgdConflict, RigidPolicy};
pub use fixpoint::{
    chase_fixpoint, chase_fixpoint_with, FixpointChase, FixpointError, FixpointProgress,
};
pub use nested::{
    chase_mapping, chase_nested, chase_nested_planned, ChaseForest, ChaseResult, Prepared, TrigId,
    Triggering,
};
pub use null::{FactWriter, NullFactory};
pub use parallel::{
    chase_fixpoint_parallel, chase_fixpoint_parallel_with, derive_schedule, statement_footprints,
    verify_schedule, StmtFootprint,
};
pub use plan::{ChasePlan, ParallelSchedule};
pub use so::{chase_so, chase_so_set, ground_term};
pub use st::{chase_st, chase_st_with_forest};
pub use trigger::{all_matches, has_match, Binding, Matcher};
