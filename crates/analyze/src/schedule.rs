//! Parallel schedule construction: stratifies the statement conflict
//! graph of [`crate::interference`] into a [`ParallelSchedule`] of
//! conflict-free stages, and renders the serializable [`ScheduleReport`]
//! behind `ndl analyze --schedule [--json]` and the NDL034 lint.
//!
//! The schedule is a report of how much of a round could match
//! concurrently, not an input to the chase: the chase runs sequentially.
//! The stratification is **contiguous**: stages partition the firing
//! order into runs of consecutive statements, never reordering across a
//! stage boundary, so flattening the stages reproduces the firing order
//! exactly. A non-contiguous packing could build wider stages, but
//! resolving a stage's matches in any other order would change
//! null-interning order.
//!
//! The greedy rule: walk the firing order, extend the current stage while
//! the next statement is conflict-free against *every* statement already
//! in it, otherwise start a new stage. Self-interfering statements
//! (NDL033) always form singleton stages. `tests/analysis_parity.rs`
//! checks the stages against a pairwise reference construction.

use crate::graph::Csr;
use crate::interference::{ConflictKind, InterferenceAnalysis};
use ndl_core::prelude::*;
use serde::Serialize;

/// A stratification of a firing order into conflict-free stages: each
/// stage is a run of statement indices whose read/write relation sets and
/// Skolem-function footprints are pairwise disjoint, so its statements
/// could match concurrently. The concatenation of the stages is the
/// firing order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelSchedule {
    /// Stages in execution order; each stage lists statement indices in
    /// firing order. Every stage is non-empty.
    pub stages: Vec<Vec<usize>>,
}

impl ParallelSchedule {
    /// Widest stage (maximum statements matchable concurrently); 0 for an
    /// empty schedule.
    pub fn width(&self) -> usize {
        self.stages.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total statements across all stages.
    pub fn len(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// True when the schedule has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// Builds the contiguous greedy schedule over the scheduled statements of
/// `inter`, taken in `firing_order` (statement indices; non-scheduled
/// entries — facts, egds, unparsed statements — are skipped).
///
/// Linear in statements plus conflict edges: adding a statement to the
/// open stage stamps its conflict neighbours with the stage's epoch, so
/// "independent of every member" is one look at the candidate's stamp.
pub fn build_schedule(inter: &InterferenceAnalysis, firing_order: &[usize]) -> ParallelSchedule {
    // Scheduled statements are numbered by their rank in `scheduled`, so
    // the conflict adjacency and the stamps cost the scheduled
    // statements only, however many facts the program has.
    let rank = |s: usize| inter.scheduled.binary_search(&s).ok();
    let mut pairs = Vec::with_capacity(2 * inter.edges.len());
    for e in &inter.edges {
        let (a, b) = (rank(e.a), rank(e.b));
        let (a, b) = (a.expect("scheduled") as u32, b.expect("scheduled") as u32);
        pairs.extend([(a, b), (b, a)]);
    }
    let conflicts = Csr::new(inter.scheduled.len(), &pairs);
    drop(pairs);
    let mut stamp = vec![0u32; inter.scheduled.len()];
    let mut epoch = 0u32;
    // Does the open stage hold a self-interfering statement? (Then it is
    // that statement alone.)
    let mut open_solo = false;
    let mut stages: Vec<Vec<usize>> = Vec::new();
    for &s in firing_order {
        let Some(k) = rank(s) else { continue };
        let solo = inter
            .footprints
            .get(s)
            .is_some_and(|f| f.self_interfering());
        if stages.is_empty() || solo || open_solo || stamp[k] == epoch {
            stages.push(Vec::new());
            epoch += 1;
            open_solo = solo;
        }
        stages.last_mut().expect("nonempty").push(s);
        for &t in conflicts.row(k) {
            stamp[t as usize] = epoch;
        }
    }
    ParallelSchedule { stages }
}

/// One conflict edge of the report, with symbolic reasons.
#[derive(Clone, Debug, Serialize, PartialEq, Eq)]
pub struct ConflictReport {
    /// Smaller statement index.
    pub a: usize,
    /// Larger statement index.
    pub b: usize,
    /// Conflict kinds as stable labels (`write-write`, `read-write`,
    /// `shared-null-factory`).
    pub kinds: Vec<String>,
}

/// The JSON-facing schedule report of `ndl analyze --schedule --json`.
#[derive(Clone, Debug, Serialize, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Total statements in the program.
    pub statements: usize,
    /// Statements that entered the schedule (analyzable tgd statements).
    pub scheduled: usize,
    /// The stages, each a list of statement indices in firing order.
    pub stages: Vec<Vec<usize>>,
    /// Size of the widest stage (1 = fully sequential).
    pub width: usize,
    /// Conflict edges among scheduled statements.
    pub conflicts: Vec<ConflictReport>,
    /// Self-interfering statements (read a relation they write).
    pub self_interfering: Vec<usize>,
    /// Relation names written by some statement but read by none.
    pub write_only_relations: Vec<String>,
    /// Relation names read by some statement but written by none.
    pub read_only_relations: Vec<String>,
}

impl ScheduleReport {
    /// Assembles the report from an interference analysis and its
    /// schedule.
    pub fn of(
        syms: &SymbolTable,
        statements: usize,
        inter: &InterferenceAnalysis,
        schedule: &ParallelSchedule,
    ) -> ScheduleReport {
        ScheduleReport {
            statements,
            scheduled: inter.scheduled.len(),
            stages: schedule.stages.clone(),
            width: schedule.width(),
            conflicts: inter
                .edges
                .iter()
                .map(|e| ConflictReport {
                    a: e.a,
                    b: e.b,
                    kinds: e
                        .kinds
                        .iter()
                        .map(|k| ConflictKind::label(k).to_string())
                        .collect(),
                })
                .collect(),
            self_interfering: inter.self_interfering.clone(),
            write_only_relations: inter
                .write_only
                .iter()
                .map(|&r| syms.rel_name(r).to_string())
                .collect(),
            read_only_relations: inter
                .read_only
                .iter()
                .map(|&r| syms.rel_name(r).to_string())
                .collect(),
        }
    }

    /// Serializes to pretty JSON (golden-file friendly: trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Renders the human-readable summary of `ndl analyze --schedule`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "schedule: {} statement(s), {} scheduled, {} stage(s), width {}\n",
            self.statements,
            self.scheduled,
            self.stages.len(),
            self.width
        ));
        for (i, stage) in self.stages.iter().enumerate() {
            let members: Vec<String> = stage.iter().map(|s| format!("s{s}")).collect();
            let tag = if stage.len() > 1 { " [parallel]" } else { "" };
            out.push_str(&format!("  stage {}: {}{}\n", i, members.join(" "), tag));
        }
        for c in &self.conflicts {
            out.push_str(&format!(
                "  conflict s{} -- s{}: {}\n",
                c.a,
                c.b,
                c.kinds.join(", ")
            ));
        }
        if !self.self_interfering.is_empty() {
            let v: Vec<String> = self
                .self_interfering
                .iter()
                .map(|s| format!("s{s}"))
                .collect();
            out.push_str(&format!("  self-interfering: {}\n", v.join(" ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProgramGraphs;
    use crate::program::parse_program;

    fn analyze(src: &str) -> (SymbolTable, InterferenceAnalysis, Vec<usize>) {
        let mut syms = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut syms, src);
        assert!(errs.is_empty(), "{errs:?}");
        let graphs = ProgramGraphs::build(&mut syms, &stmts);
        let inter = InterferenceAnalysis::of(crate::ProgramFootprints::of(&graphs, &stmts));
        let order: Vec<usize> = (0..stmts.len()).collect();
        (syms, inter, order)
    }

    #[test]
    fn independent_statements_share_a_stage() {
        let (_, inter, order) = analyze("S(x) -> R(x)\nT(x) -> U(x)\n");
        let sched = build_schedule(&inter, &order);
        assert_eq!(sched.stages, vec![vec![0, 1]]);
        assert_eq!(sched.width(), 2);
    }

    #[test]
    fn conflicting_statements_split_stages() {
        let (_, inter, order) = analyze("S(x) -> R(x)\nT(x) -> R(x)\n");
        let sched = build_schedule(&inter, &order);
        assert_eq!(sched.stages, vec![vec![0], vec![1]]);
        assert_eq!(sched.width(), 1);
    }

    #[test]
    fn self_interfering_statement_is_a_singleton_stage() {
        // Statements 0 and 2 are mutually independent, but 1 is
        // self-interfering (transitive closure) and must stand alone —
        // contiguity then forces 2 into its own stage too.
        let (_, inter, order) = analyze("S(x) -> R(x)\nV(x,y) & V(y,z) -> V(x,z)\nT(x) -> U(x)\n");
        let sched = build_schedule(&inter, &order);
        assert_eq!(sched.stages, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn facts_and_egds_are_skipped() {
        let (_, inter, order) = analyze("fact: S(a)\nS(x) -> R(x)\nT(x) -> U(x)\n");
        let sched = build_schedule(&inter, &order);
        assert_eq!(sched.stages, vec![vec![1, 2]]);
    }

    #[test]
    fn schedule_flattens_to_firing_order() {
        let (_, inter, order) = analyze("S(x) -> R(x)\nR(x) -> T(x)\nT(x) -> U(x)\nS(x) -> W(x)\n");
        let sched = build_schedule(&inter, &order);
        let flat = sched.stages.concat();
        let expect: Vec<usize> = order
            .iter()
            .copied()
            .filter(|s| inter.scheduled.contains(s))
            .collect();
        assert_eq!(flat, expect);
    }

    #[test]
    fn wide_independent_program_schedules_in_one_stage() {
        // Eight pairwise-independent statements among their facts: the
        // analyzer's schedule is one stage of width 8.
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("S{i}(x) -> exists y T{i}(x,y)\n"));
            src.push_str(&format!("fact: S{i}(a{i})\n"));
            src.push_str(&format!("fact: S{i}(b{i})\n"));
        }
        let mut syms = SymbolTable::new();
        let (analysis, _) = crate::ChaseAnalysis::analyze_source(&mut syms, &src);
        assert_eq!(analysis.schedule.width(), 8, "{:?}", analysis.schedule);
        assert_eq!(analysis.schedule.stages.len(), 1);
        assert_eq!(analysis.schedule.len(), 8);
    }

    #[test]
    fn report_round_trips_names_and_width() {
        let (syms, inter, order) = analyze("S(x) -> R(x)\nT(x) -> U(x)\n");
        let sched = build_schedule(&inter, &order);
        let rep = ScheduleReport::of(&syms, 2, &inter, &sched);
        assert_eq!(rep.width, 2);
        assert_eq!(rep.scheduled, 2);
        assert_eq!(rep.read_only_relations, vec!["S", "T"]);
        assert_eq!(rep.write_only_relations, vec!["R", "U"]);
        let json = rep.to_json();
        assert!(json.contains("\"width\": 2"));
        let text = rep.render();
        assert!(text.contains("stage 0: s0 s1 [parallel]"));
    }
}
