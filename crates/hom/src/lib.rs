//! # ndl-hom
//!
//! Homomorphisms, cores and Gaifman-graph structure for target instances,
//! as used throughout *Nested Dependencies: Structure and Reasoning*
//! (PODS 2014):
//!
//! - [`hom`] — indexed backtracking homomorphism search (constants rigid)
//!   over [`TupleIndex`](ndl_core::prelude::TupleIndex) posting lists, with
//!   per-f-block decomposition, true minimum-remaining-candidates fact
//!   ordering, an undo-trail assignment map and constraint hooks;
//! - [`core`] — incremental core computation by iterated proper
//!   retractions over a dirty-null worklist, one sequential engine over
//!   the input's own fact store;
//! - [`config`] — the retired `NDL_HOM_THREADS` /
//!   `NDL_HOM_SEQUENTIAL_CUTOFF` settings, accepted and reported once;
//! - [`scan`] — the pre-index scan engine, kept as a reference
//!   implementation for property tests and benchmark baselines;
//! - [`graph`] — the Gaifman graph of facts and the Gaifman graph of nulls;
//! - [`blocks`] — f-blocks, f-block size and f-degree (Section 4);
//! - [`paths`] — longest simple paths in the null graph (path length,
//!   Theorem 4.16).

#![warn(missing_docs)]

pub mod blocks;
pub mod config;
pub mod core;
pub mod graph;
pub mod hom;
pub mod paths;
pub mod scan;

pub use blocks::{
    block_of_null, f_block_size, f_blocks, f_degree, null_blocks, null_blocks_with_ground,
};
pub use core::{
    core_and_blocks, core_and_blocks_observed, core_f_block_size, core_of, core_of_assuming_ground,
    core_of_assuming_ground_observed, core_of_observed, core_with_f_block_size,
    instance_value_fingerprint, is_core, is_core_observed, verify_core,
};
pub use graph::{FactGraph, IncidenceGraph, NullGraph};
pub use hom::{
    apply, apply_value, find_homomorphism, find_homomorphism_constrained, find_homomorphism_into,
    find_homomorphism_into_observed, hom_equivalent, homomorphic, is_homomorphism, Forbid, HomMap,
};
pub use paths::{
    longest_path_lower_bound, longest_simple_path, null_path_length, DEFAULT_NODE_LIMIT,
};
