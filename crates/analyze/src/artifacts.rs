//! Everything derivable from a program's source text alone, bundled.
//!
//! [`ProgramArtifacts`] began life in `ndl-serve` as the daemon's
//! program-cache entry; it moved here so that every front end that needs
//! "the parse plus the analysis plus the extracted source instance" — the
//! one-shot CLI, the daemon's content-hash cache, and the incremental
//! query graph (`ndl-incr`), which rebuilds artifacts from a canonical
//! source text on every red recompute — shares literally one builder.
//! Symbol numbering (and therefore every rendered output) then matches a
//! one-shot CLI run by construction.

use crate::program::{parse_program, Statement, StmtAst};
use crate::{ChaseAnalysis, ClashKind};
use ndl_core::prelude::*;

/// The parse, the full [`ChaseAnalysis`] (position/Skolem graphs,
/// termination, parallel schedule, dataflow certificate), the Skolemized
/// tgd list, the source instance and egds of one program text.
///
/// Immutable once built: the daemon shares one `Arc<ProgramArtifacts>`
/// across concurrent requests for the same text. Per-request state — the
/// `NullFactory`, the `ChasePlan` (its step budget varies per request) —
/// is derived fresh each evaluation, which is cheap next to the analysis.
#[derive(Debug)]
pub struct ProgramArtifacts {
    /// Symbols interned by parsing and Skolemization.
    pub syms: SymbolTable,
    /// The parsed statements, in source order.
    pub stmts: Vec<Statement>,
    /// `(statement index, rendered error)` for statements that failed to
    /// parse (pre-rendered: the formatting is part of the contract).
    pub parse_errors: Vec<(usize, String)>,
    /// The full semantic analysis.
    pub analysis: ChaseAnalysis,
    /// The source instance from the program's `fact:` statements.
    pub source: Instance,
    /// The program's egd statements.
    pub egds: Vec<Egd>,
    /// The analyzer's Skolemized tgds, in statement order.
    pub tgds: Vec<SoTgd>,
    /// Length of the source text (lint/analyze `--stats` report it).
    pub src_len: usize,
}

impl ProgramArtifacts {
    /// Parses and analyzes `src`. The daemon's cache-miss path, the CLI's
    /// every-run path and the incremental runtime's `--scratch` oracle are
    /// this same function, always from a fresh [`SymbolTable`].
    pub fn build(src: &str) -> ProgramArtifacts {
        ProgramArtifacts::build_with_facts(src, &[])
    }

    /// [`ProgramArtifacts::build`] of `src` followed by fact statements
    /// over the named `(relation, arity)` pairs, without their constants:
    /// the relations are interned after the parse, in the order given,
    /// and analyzed by [`ChaseAnalysis::analyze_with_facts`]. The source
    /// instance holds `src`'s own facts only.
    ///
    /// `ndl-incr` builds a program's statements this way once, with its
    /// fact relations in the order their first `fact:` line has in the
    /// canonical text, and adds the facts themselves per recompute: the
    /// symbols, tgds and chase plan are then those of building the whole
    /// canonical text.
    pub fn build_with_facts(src: &str, facts: &[(&str, usize)]) -> ProgramArtifacts {
        let mut syms = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut syms, src);
        let parse_errors = errs.iter().map(|(i, e)| (*i, e.to_string())).collect();
        let facts: Vec<(RelId, usize)> = (facts.iter())
            .map(|&(name, arity)| (syms.rel(name), arity))
            .collect();
        let analysis = ChaseAnalysis::analyze_with_facts(&mut syms, &stmts, &facts);
        let facts = (stmts.iter())
            .filter(|s| matches!(s.ast, Some(StmtAst::Fact(_))))
            .count();
        let mut source = Instance::from_store(FactStore::with_capacity(facts));
        let mut egds = Vec::new();
        // A fact refused for its arity stays out of the source: the store
        // holds one arity per relation (the chase front ends report the
        // refusal instead of chasing).
        let mut refused = (analysis.graphs.arity_clashes.iter())
            .filter(|c| c.kind == ClashKind::Fact)
            .map(|c| c.stmt)
            .peekable();
        for s in &stmts {
            match &s.ast {
                Some(StmtAst::Fact(_)) if refused.next_if_eq(&s.index).is_some() => {}
                Some(StmtAst::Fact(f)) => {
                    source.insert_tuple(f.rel, &f.args);
                }
                Some(StmtAst::Egd(e)) => egds.push(e.clone()),
                _ => {}
            }
        }
        let tgds = analysis.so_tgds().into_iter().map(|(_, t)| t).collect();
        ProgramArtifacts {
            syms,
            stmts,
            parse_errors,
            analysis,
            source,
            egds,
            tgds,
            src_len: src.len(),
        }
    }

    /// Why this program cannot be chased, if it cannot: its first
    /// statement that does not parse, else its first fact or tgd refused
    /// for its arities. `path` labels the program in the message.
    pub fn chase_refusal(&self, path: &str) -> Option<String> {
        if let Some((stmt, e)) = self.parse_errors.first() {
            return Some(format!("{path} statement {} does not parse: {e}", stmt + 1));
        }
        let clash = self.analysis.graphs.arity_clashes.first()?;
        Some(clash.message(&self.syms, path))
    }
}
