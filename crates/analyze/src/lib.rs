//! # ndl-analyze
//!
//! Static analysis and linting for nested-dependency programs, built on the
//! dependency classes of *Nested Dependencies: Structure and Reasoning*
//! (PODS 2014):
//!
//! - [`diagnostic`] — spanned diagnostics with stable `NDL0xx` codes,
//!   severities, byte-span → line/column resolution and a rustc-like
//!   human renderer;
//! - [`program`] — line-oriented dependency programs: statement splitting,
//!   kind prefixes (`tgd:`, `so:`, `egd:`, `fact:`) and auto-detection;
//! - [`rules`] — the lint rules: every `ndl-core` validation error lifted
//!   to a spanned diagnostic, plus analyzer-only rules for unused
//!   existentials, non-normalized statements (Section 3 of the paper),
//!   nesting/Skolem-arity explosion and cyclic null structure of the
//!   critical-instance chase (Section 4);
//! - [`graph`] — the semantic layer's data structures: the position graph
//!   (regular and special edges under both the weak- and rich-acyclicity
//!   rules) and the Skolem dependency graph, with Graphviz DOT output;
//! - [`termination`] — the three-way chase-termination classification
//!   (richly acyclic / weakly acyclic / cyclic) with witness cycles,
//!   position ranks and per-relation null-generation depths;
//! - [`cost`] — polynomial chase-size bounds from a value-degree fixpoint,
//!   and [`ChaseAnalysis`]: the bundle of graphs, termination verdict,
//!   cost model and firing order consumed by the NDL020–NDL025 lints, the
//!   `ndl analyze` subcommand and the chase engines in `ndl-chase`;
//! - [`footprint`] — per-statement read/write/Skolem footprints, the
//!   shared vocabulary of the interference and dataflow passes;
//! - [`interference`] — the statement conflict graph over footprints
//!   (W–W, R–W and shared-null-factory edges), behind the NDL031–NDL033
//!   lints and `--dot=conflicts`;
//! - [`dataflow`] — whole-mapping dataflow: relation reachability from
//!   populated sources, statement liveness, relation groundness and
//!   position-level provenance, behind the NDL040–NDL045 lints,
//!   `ndl analyze --dataflow` / `--dot=dataflow` and the
//!   [`ndl_chase::DataflowCert`] the chase engines verify and exploit;
//! - [`schedule`] — contiguous conflict-free stratification of the firing
//!   order into a [`ParallelSchedule`] (how much of a round could match
//!   concurrently, behind the NDL034 lint) and the JSON
//!   [`ScheduleReport`] of `ndl analyze --schedule`.
//!
//! ## Quick example
//!
//! ```
//! use ndl_analyze::{lint_source, LintOptions, Severity};
//! use ndl_core::prelude::SymbolTable;
//!
//! let mut syms = SymbolTable::new();
//! let diags = lint_source(
//!     &mut syms,
//!     "forall x,z (S(x) -> R(x))\n",
//!     &LintOptions::default(),
//! );
//! assert_eq!(diags[0].code, "NDL002"); // unsafe variable z
//! assert_eq!(diags[0].severity, Severity::Error);
//! assert_eq!((diags[0].line, diags[0].col), (Some(1), Some(10)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifacts;
pub mod cost;
pub mod dataflow;
pub mod diagnostic;
pub mod footprint;
pub mod graph;
pub mod interference;
pub mod program;
pub mod rules;
pub mod schedule;
pub mod termination;

pub use artifacts::ProgramArtifacts;
pub use cost::{AnalysisReport, ChaseAnalysis, CostModel, PassTimings};
pub use dataflow::{DataflowAnalysis, DataflowSummary};
pub use diagnostic::{render, summary, Diagnostic, LineIndex, Note, Severity};
pub use footprint::ProgramFootprints;
pub use graph::{ArityClash, ClashKind, PositionGraph, ProgramGraphs, SkolemGraph};
pub use interference::{ConflictEdge, ConflictKind, Footprint, InterferenceAnalysis};
pub use program::{parse_program, Statement, StmtAst};
pub use rules::{lint_source, lint_source_timed, LintOptions};
pub use schedule::{build_schedule, ConflictReport, ParallelSchedule, ScheduleReport};
pub use termination::{Termination, TerminationClass};

/// Serializes diagnostics to pretty-printed JSON (an array of objects).
pub fn to_json(diags: &[Diagnostic]) -> String {
    serde_json::to_string_pretty(&diags.to_vec()).expect("diagnostics serialize infallibly")
}

/// Parses diagnostics back from [`to_json`] output.
pub fn from_json(text: &str) -> Result<Vec<Diagnostic>, serde::Error> {
    serde_json::from_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndl_core::prelude::SymbolTable;

    #[test]
    fn json_round_trips() {
        let mut syms = SymbolTable::new();
        let diags = lint_source(
            &mut syms,
            "forall x,z (S(x) -> R(x))\nS(x) -> exists y R(x)\n",
            &LintOptions::default(),
        );
        assert!(!diags.is_empty());
        let json = to_json(&diags);
        assert!(json.contains("\"NDL002\""));
        assert!(json.contains("\"error\""));
        let back = from_json(&json).unwrap();
        assert_eq!(back, diags);
    }
}
