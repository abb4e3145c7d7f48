//! # ndl-core
//!
//! Logical foundations for reasoning about schema mappings specified by
//! **nested tgds**, after Kolaitis, Pichler, Sallinger, Savenkov,
//! *Nested Dependencies: Structure and Reasoning*, PODS 2014.
//!
//! This crate provides:
//! - interned symbols, values (constants/labeled nulls), terms and ground
//!   terms ([`symbol`], [`value`], [`term`]);
//! - schemas, atoms, facts and instances ([`schema`], [`atom`], [`instance`])
//!   backed by an arena-backed columnar fact store with stable ids
//!   ([`store`]);
//! - a shared, updatable `(rel, pos, value) → facts` index keyed by stable
//!   ids ([`index`]), fast hash containers ([`hash`]) and the one
//!   open-addressed id table under symbols, fact dedup and null interning
//!   ([`idtable`]);
//! - the dependency classes of the paper: s-t tgds, nested tgds, (plain)
//!   SO tgds and source egds ([`dep`]);
//! - a text parser and pretty printers ([`parse`]);
//! - Skolemization of nested tgds into plain SO tgds ([`skolem`]);
//! - schema-mapping containers ([`mapping`]).
//!
//! The chase lives in `ndl-chase`, homomorphisms/cores in `ndl-hom`, and
//! the paper's decision procedures in `ndl-reasoning`.
//!
//! ## Quick example
//!
//! ```
//! use ndl_core::prelude::*;
//!
//! let mut syms = SymbolTable::new();
//! let tgd = parse_nested_tgd(
//!     &mut syms,
//!     "forall x1,x2 (S(x1,x2) -> exists y (R(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))",
//! )
//! .unwrap();
//! assert_eq!(tgd.num_parts(), 2);
//! let (so, _info) = skolemize(&tgd, &mut syms);
//! assert!(so.is_plain());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atom;
pub mod dep;
pub mod error;
pub mod hash;
pub mod idtable;
pub mod index;
pub mod instance;
pub mod mapping;
pub mod parse;
pub mod revision;
pub mod schema;
#[cfg(test)]
mod serde_tests;
pub mod skolem;
pub mod span;
pub mod store;
pub mod symbol;
pub mod term;
pub mod value;

/// Convenience re-exports of the most common types.
pub mod prelude {
    pub use crate::atom::{Atom, TermAtom};
    pub use crate::dep::{Egd, NestedTgd, Part, PartId, SoClause, SoTgd, StTgd};
    pub use crate::error::{CoreError, Result};
    pub use crate::hash::{FxBuildHasher, FxHashMap, FxHashSet};
    pub use crate::index::{ProbeSet, TupleId, TupleIndex};
    pub use crate::instance::{Fact, FactRef, Instance};
    pub use crate::mapping::{NestedMapping, SoMapping};
    pub use crate::parse::{parse_egd, parse_fact, parse_nested_tgd, parse_so_tgd, parse_st_tgd};
    pub use crate::revision::{
        fact_hash, fingerprint_str, Fingerprint, Revision, SetFingerprint, TrackedStore,
    };
    pub use crate::schema::{Schema, Side};
    pub use crate::skolem::{skolemize, skolemize_clauses, skolemize_with, SkolemInfo};
    pub use crate::span::Span;
    pub use crate::store::{FactId, FactStore, Inserted, StoreCounters};
    pub use crate::symbol::{ConstId, FuncId, RelId, SymbolTable, VarId};
    pub use crate::term::{GroundTerm, Term};
    pub use crate::value::{NullId, Value};
}
