//! # nested-deps
//!
//! A library for reasoning about schema mappings specified by **nested
//! tgds**, reproducing
//!
//! > Kolaitis, Pichler, Sallinger, Savenkov.
//! > *Nested Dependencies: Structure and Reasoning.* PODS 2014.
//!
//! It provides, from the ground up:
//!
//! - the dependency classes of the paper — s-t tgds (GLAV), nested tgds,
//!   (plain) SO tgds, source egds — with a text parser ([`core`]);
//! - chase engines with chase-forest provenance ([`chase`]);
//! - homomorphisms, cores, Gaifman graphs, f-blocks ([`hom`]);
//! - the paper's decision procedures: the **IMPLIES** implication test for
//!   nested tgds (Thm. 3.1), logical equivalence (Cor. 3.11), deciding
//!   **GLAV-equivalence** with verified witnesses (Thm. 4.2), the f-degree
//!   and path-length separation tools (Thms. 4.12/4.16), all also in the
//!   presence of source egds (Thms. 5.5–5.7) ([`reasoning`]);
//! - workload generators ([`gen`]) and the Theorem 5.1 Turing-machine
//!   reduction ([`turing`]);
//! - a static analyzer for dependency programs with spanned diagnostics
//!   and stable `NDL0xx` lint codes ([`analyze`]);
//! - a long-running multi-tenant daemon serving lint/analyze/chase and
//!   the decision procedures over a framed-JSON socket protocol, with
//!   byte-identical output to the one-shot CLI ([`serve`]).
//!
//! ## Quickstart
//!
//! ```
//! use nested_deps::prelude::*;
//!
//! let mut syms = SymbolTable::new();
//! // The nested tgd from the paper's introduction.
//! let m = NestedMapping::parse(
//!     &mut syms,
//!     &["forall x1,x2 (S(x1,x2) -> exists y (R(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))"],
//!     &[],
//! )
//! .unwrap();
//!
//! // Chase a source instance and take the core of the universal solution.
//! let s = syms.rel("S");
//! let a = Value::Const(syms.constant("a"));
//! let b = Value::Const(syms.constant("b"));
//! let source = Instance::from_facts([Fact::new(s, vec![a, b]), Fact::new(s, vec![a, a])]);
//! let (result, _nulls) = chase_mapping(&source, &m, &mut syms);
//! let core = core_of(&result.target);
//! assert!(satisfies_mapping(&source, &core, &m));
//!
//! // The paper's headline: this mapping is NOT equivalent to any GLAV
//! // mapping — decided, not just asserted.
//! let decision = glav_equivalent(&m, &mut syms, &FblockOptions::default()).unwrap();
//! assert!(!decision.analysis.bounded);
//! ```

pub use ndl_analyze as analyze;
pub use ndl_chase as chase;
pub use ndl_core as core;
pub use ndl_gen as gen;
pub use ndl_hom as hom;
pub use ndl_obs as obs;
pub use ndl_reasoning as reasoning;
pub use ndl_serve as serve;
pub use ndl_turing as turing;

/// One-stop re-exports for applications.
pub mod prelude {
    pub use ndl_analyze::{
        lint_source, AnalysisReport, ChaseAnalysis, DataflowAnalysis, DataflowSummary, Diagnostic,
        LintOptions, Severity, Termination, TerminationClass,
    };
    pub use ndl_chase::{
        all_matches, chase_egds, chase_fixpoint, chase_fixpoint_delta, chase_fixpoint_delta_with,
        chase_fixpoint_with, chase_mapping, chase_nested, chase_nested_planned, chase_so, chase_st,
        dataflow_facts, satisfies_egds, verify_dataflow_cert, Binding, ChaseConfig, ChaseForest,
        ChasePlan, ChaseResult, DataflowCert, EgdChase, EgdConflict, FixpointChase, FixpointError,
        FixpointProgress, NullFactory, Prepared, RigidPolicy, Triggering,
    };
    pub use ndl_core::prelude::*;
    pub use ndl_gen::{
        clio_scenario, cycle, grid, random_instance, random_nested_tgd, random_program,
        random_program_with_dead_code, successor, successor_with_zero, ClioScenario,
        InstanceGenOptions, ProgramGenOptions, TgdGenOptions,
    };
    pub use ndl_hom::{
        core_of, core_of_assuming_ground, f_block_size, f_blocks, f_degree, find_homomorphism,
        hom_equivalent, homomorphic, is_core, null_blocks, null_blocks_with_ground,
        null_path_length, verify_core, FactGraph, HomMap, NullGraph,
    };
    pub use ndl_obs::{ChaseObserver, ChaseStats, HomObserver, HomStats, JsonlTracer, Stats};
    pub use ndl_reasoning::{
        canonical_instances, clone_bound, equivalent, glav_equivalent, has_bounded_fblock_size,
        implies_mapping, implies_tgd, k_patterns, legalize, redundant_tgds, satisfies_mapping,
        satisfies_nested, satisfies_plain_so, satisfies_so, sweep_nested, sweep_so, CanonicalPair,
        FblockAnalysis, FblockOptions, GlavDecision, ImpliesOptions, ImpliesReport,
        NotNestedReason, Pattern, ReasoningError, SeparationReport,
    };
    pub use ndl_turing::{
        build_reduction, busy_halter, forever_bounce, forever_right, Machine, Reduction,
        ReductionOutcome,
    };
}
