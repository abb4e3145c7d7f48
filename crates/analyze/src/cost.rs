//! Chase cost bounds and the [`ChaseAnalysis`] handed to `ndl-chase`.
//!
//! The cost model assigns every position a **value degree** `vdeg(p)`:
//! the chase can place at most `O(n^vdeg(p))` distinct values at position
//! `p` when the source has `n` facts. Source positions start at degree 1;
//! a head position copying variable `x` inherits the smallest degree among
//! `x`'s body positions; a Skolem-term position sums the degrees of the
//! variables inside the term (distinct argument tuples multiply, so
//! degrees add). The **trigger degree** of a clause sums the value degrees
//! of its distinct body variables, bounding its firings; the maximum over
//! all clauses bounds the chase size (and work) polynomial. The fixpoint
//! converges for richly acyclic programs; when it does not (degrees keep
//! growing through a special cycle), the bound is reported as `None`.

use crate::dataflow::{DataflowAnalysis, DataflowSummary};
use crate::footprint::{collect_funcs, collect_vars, ProgramFootprints};
use crate::graph::{clause_body_positions, Csr, ProgramGraphs, NONE};
use crate::interference::InterferenceAnalysis;
use crate::program::Statement;
use crate::schedule::ScheduleReport;
use crate::termination::{Termination, TerminationClass};
use ndl_chase::{ChasePlan, DataflowCert, ParallelSchedule};
use ndl_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Degrees never exceed this cap; hitting it means divergence.
const DEGREE_CAP: usize = 64;

/// Polynomial degree bounds for the chase of a program.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// `vdeg` per position of the position graph (meaningful only when
    /// `size_degree` is `Some`).
    pub position_degrees: Vec<usize>,
    /// Degree of the chase-size/work polynomial: `O(n^d)` for a source of
    /// `n` facts. `None` when the fixpoint diverged (the oblivious chase
    /// is not polynomially bounded).
    pub size_degree: Option<usize>,
    /// Widest clause body (number of atoms) — join width.
    pub max_body_atoms: usize,
}

impl CostModel {
    /// Computes the degree fixpoint over the program's clauses.
    ///
    /// What a round reads is round-invariant, so it is laid out once in
    /// flat vectors: per clause its distinct body variables (each a run
    /// of body positions), and per head argument its position and the
    /// distinct variables of its term.
    pub fn of(graphs: &ProgramGraphs) -> CostModel {
        let pg = &graphs.positions;
        let n = pg.positions.len();
        let mut vdeg = vec![1usize; n];
        let max_body_atoms = graphs
            .clauses
            .iter()
            .map(|c| c.clause.body.len())
            .max()
            .unwrap_or(0);
        let rounds_cap = n + graphs.skolem.funcs.len() + 8;
        let mut converged = graphs.clauses.is_empty();
        // `var_pos[var_end[v - 1]..var_end[v]]`: the body positions of
        // distinct body variable `v` (numbered across all clauses);
        // `clause_vars[c]` ends clause `c`'s variables.
        let mut var_pos: Vec<usize> = Vec::new();
        let mut var_end: Vec<usize> = Vec::new();
        let mut clause_vars: Vec<usize> = Vec::with_capacity(graphs.clauses.len());
        // Per head argument, in firing order: its position and the end of
        // its term's distinct variables in `arg_vars` (variable numbers,
        // [`NONE`] for one no body atom binds: its degree is 1).
        let mut args: Vec<(usize, usize)> = Vec::new();
        let mut arg_vars: Vec<usize> = Vec::new();
        let (mut body, mut runs, mut term_vars) = (Vec::new(), Vec::new(), Vec::new());
        for cv in &graphs.clauses {
            clause_body_positions(pg, &cv.clause, &mut body);
            runs.clear();
            for run in body.chunk_by(|a, b| a.0 == b.0) {
                runs.push((run[0].0, var_end.len()));
                var_pos.extend(run.iter().map(|&(_, p)| p));
                var_end.push(var_pos.len());
            }
            clause_vars.push(var_end.len());
            for ta in &cv.clause.head {
                for (i, t) in ta.args.iter().enumerate() {
                    let Some(q) = pg.pos(ta.rel, i) else { continue };
                    term_vars.clear();
                    collect_vars(t, &mut term_vars);
                    term_vars.sort_unstable();
                    term_vars.dedup();
                    arg_vars.extend(term_vars.iter().map(|x| {
                        runs.binary_search_by_key(x, |&(v, _)| v)
                            .map_or(NONE, |i| runs[i].1)
                    }));
                    args.push((q, arg_vars.len()));
                }
            }
        }
        let minv = |v: usize, vdeg: &[usize]| match v {
            NONE => 1,
            v => {
                let start = v.checked_sub(1).map_or(0, |u| var_end[u]);
                var_pos[start..var_end[v]]
                    .iter()
                    .map(|&p| vdeg[p])
                    .min()
                    .unwrap_or(1)
            }
        };
        for _ in 0..rounds_cap {
            let mut changed = false;
            let mut vars_start = 0;
            for &(q, vars_end) in &args {
                let cand: usize = arg_vars[vars_start..vars_end]
                    .iter()
                    .map(|&v| minv(v, &vdeg))
                    .sum();
                vars_start = vars_end;
                let cand = cand.min(DEGREE_CAP);
                if cand > vdeg[q] {
                    vdeg[q] = cand;
                    changed = true;
                }
            }
            if !changed {
                converged = true;
                break;
            }
        }
        let size_degree = if converged && vdeg.iter().all(|&d| d < DEGREE_CAP) {
            let mut vars_start = 0;
            let max_tdeg = clause_vars
                .iter()
                .map(|&vars_end| {
                    let tdeg = (vars_start..vars_end)
                        .map(|v| minv(v, &vdeg))
                        .sum::<usize>();
                    vars_start = vars_end;
                    tdeg
                })
                .max()
                .unwrap_or(0);
            Some(max_tdeg.max(1))
        } else {
            None
        };
        CostModel {
            position_degrees: vdeg,
            size_degree,
            max_body_atoms,
        }
    }
}

/// The complete semantic analysis of a program: graphs, termination class,
/// cost bounds and a statement firing order — everything the lint rules
/// and the chase engines consume.
#[derive(Debug)]
pub struct ChaseAnalysis {
    /// The dependency graphs and flattened clauses.
    pub graphs: ProgramGraphs,
    /// The termination verdict.
    pub termination: Termination,
    /// The cost bounds.
    pub cost: CostModel,
    /// Producer-before-consumer statement order (cycles broken by source
    /// order) — the chase plan's firing order.
    pub firing_order: Vec<usize>,
    /// Per-statement read/write/Skolem footprints and the statement
    /// conflict graph.
    pub interference: InterferenceAnalysis,
    /// Whole-mapping dataflow: reachability, liveness, groundness and
    /// position provenance — the source of the NDL040–NDL045 lints and
    /// the [`DataflowCert`] of [`Self::tgd_plan`].
    pub dataflow: DataflowAnalysis,
    /// The contiguous conflict-free stratification of the firing order,
    /// in **statement-index** space ([`Self::tgd_plan`] remaps it to tgd
    /// positions for the fixpoint engine).
    pub schedule: ParallelSchedule,
    /// Wall time of each pass of [`Self::analyze`].
    pub passes_ns: PassTimings,
}

/// Wall time of each analysis pass in nanoseconds — the `passes_ns`
/// object of the `ndl analyze --stats` / `ndl lint --stats` line.
/// `graphs` covers Skolemization, the position and Skolem graphs and the
/// shared statement footprints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct PassTimings {
    /// Position graph, Skolem graph and footprints.
    pub graphs: u64,
    /// Termination classification.
    pub termination: u64,
    /// Value-degree cost model.
    pub cost: u64,
    /// Producer-before-consumer firing order.
    pub firing_order: u64,
    /// Statement conflict graph.
    pub interference: u64,
    /// Conflict-free stage schedule.
    pub schedule: u64,
    /// Reachability, liveness, groundness and provenance.
    pub dataflow: u64,
}

impl PassTimings {
    /// Compact one-line JSON object, fields in pass order.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("timings serialize infallibly")
    }
}

impl ChaseAnalysis {
    /// Analyzes parsed statements. Skolemization interns fresh function
    /// symbols into `syms`.
    pub fn analyze(syms: &mut SymbolTable, stmts: &[Statement]) -> ChaseAnalysis {
        ChaseAnalysis::analyze_with_facts(syms, stmts, &[])
    }

    /// Analyzes `stmts` followed by fact statements over the
    /// `(relation, arity)` pairs of `facts`, each pair standing for every
    /// fact of its relation. Facts reach the analysis only
    /// through their relation: arity admission, and the populated sources
    /// of the dataflow pass. So the chase inputs — [`Self::so_tgds`] and
    /// [`Self::tgd_plan`] with its certificate — equal those of the full
    /// program whose fact statements follow `stmts`, whatever the facts'
    /// constants. The incremental runtime (`ndl-incr`) analyzes a
    /// program's statements once this way and reuses the analysis while
    /// fact edits leave the set of fact relations alone.
    pub fn analyze_with_facts(
        syms: &mut SymbolTable,
        stmts: &[Statement],
        facts: &[(RelId, usize)],
    ) -> ChaseAnalysis {
        let mut passes_ns = PassTimings::default();
        let mut clock = Instant::now();
        let mut lap = |slot: &mut u64| {
            let now = Instant::now();
            *slot = (now - clock).as_nanos() as u64;
            clock = now;
        };
        let graphs = ProgramGraphs::build_with_facts(syms, stmts, facts);
        let mut footprints = ProgramFootprints::of(&graphs, stmts);
        let fact_rels = facts.iter().map(|&(rel, _)| rel);
        footprints.fact_relations.extend(fact_rels);
        lap(&mut passes_ns.graphs);
        let termination = Termination::of(&graphs, syms);
        lap(&mut passes_ns.termination);
        let cost = CostModel::of(&graphs);
        lap(&mut passes_ns.cost);
        let firing_order = firing_order(graphs.statements, &footprints);
        lap(&mut passes_ns.firing_order);
        let dataflow = DataflowAnalysis::of(&graphs, stmts, &footprints);
        lap(&mut passes_ns.dataflow);
        let interference = InterferenceAnalysis::of(footprints);
        lap(&mut passes_ns.interference);
        let schedule = crate::schedule::build_schedule(&interference, &firing_order);
        lap(&mut passes_ns.schedule);
        ChaseAnalysis {
            graphs,
            termination,
            cost,
            firing_order,
            interference,
            dataflow,
            schedule,
            passes_ns,
        }
    }

    /// Convenience: parses and analyzes a program source. Parse errors are
    /// returned alongside (malformed statements are skipped, as in
    /// [`crate::lint_source`]).
    pub fn analyze_source(syms: &mut SymbolTable, src: &str) -> (ChaseAnalysis, usize) {
        let (stmts, errs) = crate::program::parse_program(syms, src);
        (ChaseAnalysis::analyze(syms, &stmts), errs.len())
    }

    /// Derives the [`ChasePlan`] for the chase engines: firing order from
    /// the analysis, termination guarantee iff the program is richly
    /// acyclic (the engines' fixpoint semantics is oblivious), and
    /// `budget` as the step budget for programs without a guarantee.
    pub fn plan(&self, budget: Option<usize>) -> ChasePlan {
        self.plan_with_order(self.firing_order.clone(), budget)
    }

    fn plan_with_order(&self, order: Vec<usize>, budget: Option<usize>) -> ChasePlan {
        let guaranteed = self.termination.class == TerminationClass::RichlyAcyclic;
        ChasePlan {
            order,
            guaranteed_terminating: guaranteed,
            step_budget: if guaranteed { None } else { budget },
            diagnosis: self.termination.diagnosis(),
            schedule: None,
            cert: None,
        }
    }

    /// The program's tgd statements as SO tgds for the fixpoint chase,
    /// each paired with the index of the statement it came from. Reuses
    /// the analyzer's Skolemized clauses — re-Skolemizing the source would
    /// intern *fresh* function symbols, so the chase's nulls would no
    /// longer line up with the analyzer's Skolem graph. Non-tgd statements
    /// (facts, egds, parse failures) contribute nothing.
    ///
    /// The clauses are in statement order, so each statement's clauses
    /// are one run of them.
    pub fn so_tgds(&self) -> Vec<(usize, SoTgd)> {
        let mut funcs = Vec::new();
        let runs = self.graphs.clauses.chunk_by(|a, b| a.stmt == b.stmt);
        let mut out = Vec::with_capacity(self.interference.scheduled.len());
        for run in runs {
            funcs.clear();
            for cv in run {
                let c = &cv.clause;
                for (l, r) in &c.equalities {
                    collect_funcs(l, &mut funcs);
                    collect_funcs(r, &mut funcs);
                }
                for ta in &c.head {
                    for t in &ta.args {
                        collect_funcs(t, &mut funcs);
                    }
                }
            }
            funcs.sort_unstable();
            funcs.dedup();
            let clauses: Vec<SoClause> = run.iter().map(|cv| cv.clause.clone()).collect();
            out.push((run[0].stmt, SoTgd::new(funcs.to_vec(), clauses)));
        }
        out
    }

    /// The [`ChasePlan`] for the tgd list of [`Self::so_tgds`]: like
    /// [`Self::plan`], but with the firing order remapped from statement
    /// indices to positions in that list (the fixpoint engine indexes its
    /// tgd slice, not the program's statements).
    pub fn tgd_plan(&self, budget: Option<usize>) -> ChasePlan {
        // Statement → position in the `so_tgds` list: the scheduled
        // statements are exactly the ones with clauses, in order.
        let mut pos = vec![NONE; self.graphs.statements];
        for (i, &s) in self.interference.scheduled.iter().enumerate() {
            pos[s] = i;
        }
        let at = |&s: &usize| Some(pos[s]).filter(|&i| i != NONE);
        let order = self.firing_order.iter().filter_map(at).collect();
        let mut plan = self.plan_with_order(order, budget);
        plan.schedule = Some(ParallelSchedule {
            stages: self
                .schedule
                .stages
                .iter()
                .map(|stage| stage.iter().filter_map(at).collect())
                .collect(),
        });
        plan.cert = Some(DataflowCert {
            dead: self.dataflow.dead.iter().filter_map(at).collect(),
            ground: self.dataflow.ground.clone(),
        });
        plan
    }

    /// The schedule report of `ndl analyze --schedule`.
    pub fn schedule_report(&self, syms: &SymbolTable) -> ScheduleReport {
        ScheduleReport::of(
            syms,
            self.graphs.statements,
            &self.interference,
            &self.schedule,
        )
    }

    /// Graphviz DOT rendering of the statement conflict graph
    /// (`ndl analyze --dot=conflicts`).
    pub fn conflict_dot(&self, syms: &SymbolTable) -> String {
        self.interference.to_dot(syms)
    }

    /// The dataflow report of `ndl analyze --dataflow`.
    pub fn dataflow_summary(&self, syms: &SymbolTable) -> DataflowSummary {
        self.dataflow.summary(syms, &self.graphs)
    }

    /// Graphviz DOT rendering of the relation-level dataflow graph
    /// (`ndl analyze --dot=dataflow`).
    pub fn dataflow_dot(&self, syms: &SymbolTable) -> String {
        self.dataflow.to_dot(syms, &self.graphs)
    }

    /// The machine-readable report (`ndl analyze --json`), with all
    /// symbols resolved to names.
    pub fn report(&self, syms: &SymbolTable) -> AnalysisReport {
        let pg = &self.graphs.positions;
        AnalysisReport {
            statements: self.graphs.statements,
            analyzed_statements: self.graphs.analyzed.len(),
            clauses: self.graphs.clauses.len(),
            positions: pg.positions.len(),
            regular_edges: pg.edges.iter().filter(|e| !e.special).count(),
            special_edges_wa: pg.edges.iter().filter(|e| e.special && e.in_wa).count(),
            special_edges_ra: pg.edges.iter().filter(|e| e.special).count(),
            class: self.termination.class.as_str().to_string(),
            witness: self.termination.witness_rendered.clone(),
            max_rank: self.termination.max_rank,
            size_degree: self.cost.size_degree,
            max_body_atoms: self.cost.max_body_atoms,
            relation_depths: self
                .termination
                .relation_depths
                .iter()
                .map(|&(rel, depth)| RelationDepth {
                    relation: syms.rel_name(rel).to_string(),
                    depth,
                })
                .collect(),
            skolem_functions: self
                .graphs
                .skolem
                .funcs
                .iter()
                .map(|f| SkolemFunctionReport {
                    function: syms.func_name(f.func).to_string(),
                    statement: f.stmt,
                    fan_in: f.fan_in,
                    fan_out: f.fan_out,
                })
                .collect(),
            skolem_edges: self.graphs.skolem.edges.len(),
            firing_order: self.firing_order.clone(),
        }
    }

    /// Graphviz DOT rendering of both dependency graphs.
    pub fn to_dot(&self, syms: &SymbolTable) -> String {
        self.graphs.to_dot(syms)
    }
}

/// Producer-before-consumer order over all statements: statement `s`
/// precedes `t` when a head relation of `s` is read by `t`'s body. Kahn's
/// algorithm with smallest-index tie-breaking; cycles (recursive programs)
/// are broken at the smallest remaining index, so the order is total,
/// deterministic and stable for acyclic programs.
///
/// Successors come from a relation → readers index over the shared
/// footprints of the scheduled statements, and the in-degree-0 statements
/// wait in an ordered ready set, so the pass costs the number of
/// producer/consumer pairs rather than the square of the statement count.
fn firing_order(statements: usize, fps: &ProgramFootprints) -> Vec<usize> {
    // Only scheduled statements have producers or consumers; they are
    // numbered by their rank in `scheduled`, so the graph costs them
    // alone, however many facts the program has.
    let sched = &fps.scheduled;
    let mut rank = vec![NONE; statements];
    for (k, &s) in sched.iter().enumerate() {
        rank[s] = k;
    }
    // The footprints of the scheduled statements, by rank.
    let scheduled_fps = || {
        let fps = fps.footprints.iter().filter(|&(s, _)| rank[s] != NONE);
        fps.map(|(_, f)| f).enumerate()
    };
    let nrel = fps.footprints.relation_bound();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (k, f) in scheduled_fps() {
        pairs.extend(f.reads.iter().map(|r| (r.0, k as u32)));
    }
    let readers = Csr::new(nrel, &pairs);
    // Successor lists, by rank.
    pairs.clear();
    let mut out: Vec<u32> = Vec::new();
    let mut indeg = vec![0usize; sched.len()];
    for (k, f) in scheduled_fps() {
        out.clear();
        for r in f.writes {
            out.extend(readers.row(r.index()).iter().filter(|&&t| t as usize != k));
        }
        out.sort_unstable();
        out.dedup();
        for &t in &out {
            indeg[t as usize] += 1;
            pairs.push((k as u32, t));
        }
    }
    let succs = Csr::new(sched.len(), &pairs);
    drop(pairs);
    // The ready set, smallest first: the statements ready from the start
    // (facts, egds and tgds reading only sources: most of a fact-heavy
    // program) in ascending order, then those freed along the way in a
    // min-heap. A statement ready from the start has no predecessor, so
    // it is never freed again: the two never hold the same statement.
    let mut initial = (0..statements)
        .filter(|&s| rank[s] == NONE || indeg[rank[s]] == 0)
        .collect::<Vec<_>>()
        .into_iter()
        .peekable();
    let mut freed: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut placed = vec![false; statements];
    // Smallest unplaced index: the cycle breaker. Placed statements never
    // return, so it only moves forward.
    let mut first_unplaced = 0;
    let mut order = Vec::with_capacity(statements);
    while order.len() < statements {
        let next = match (initial.peek(), freed.peek()) {
            (Some(&s), Some(&Reverse(t))) if t < s => freed.pop().map(|Reverse(t)| t),
            (Some(_), _) => initial.next(),
            (None, _) => freed.pop().map(|Reverse(t)| t),
        };
        let next = next.unwrap_or_else(|| {
            while placed[first_unplaced] {
                first_unplaced += 1;
            }
            first_unplaced
        });
        placed[next] = true;
        order.push(next);
        let succs = match rank[next] {
            NONE => &[][..],
            k => succs.row(k),
        };
        for &t in succs {
            let t = t as usize;
            if !placed[sched[t]] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    freed.push(Reverse(sched[t]));
                }
            }
        }
    }
    order
}

/// Null-generation depth of one relation (see [`AnalysisReport`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationDepth {
    /// Relation name.
    pub relation: String,
    /// Maximum rank over the relation's positions.
    pub depth: usize,
}

/// Metrics of one Skolem function (see [`AnalysisReport`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkolemFunctionReport {
    /// Function name (as interned during Skolemization).
    pub function: String,
    /// Statement introducing the function (0-based).
    pub statement: usize,
    /// Distinct body positions feeding the function's arguments.
    pub fan_in: usize,
    /// Distinct positions its terms can reach.
    pub fan_out: usize,
}

impl AnalysisReport {
    /// Pretty-printed JSON (the `ndl analyze --json` output).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports serialize infallibly")
    }

    /// Parses a report back from [`AnalysisReport::to_json`] output.
    pub fn from_json(text: &str) -> std::result::Result<AnalysisReport, serde::Error> {
        serde_json::from_str(text)
    }
}

/// The serializable analysis report emitted by `ndl analyze --json`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Statements in the program.
    pub statements: usize,
    /// Statements that entered the analysis.
    pub analyzed_statements: usize,
    /// Skolemized clauses.
    pub clauses: usize,
    /// Position-graph nodes.
    pub positions: usize,
    /// Regular (value-copying) edges.
    pub regular_edges: usize,
    /// Special edges under the weak-acyclicity rule.
    pub special_edges_wa: usize,
    /// Special edges under the rich-acyclicity rule (a superset).
    pub special_edges_ra: usize,
    /// Termination class: `richly-acyclic`, `weakly-acyclic` or `cyclic`.
    pub class: String,
    /// Rendered special-edge cycle witnessing a negative verdict.
    pub witness: Vec<String>,
    /// Maximum position rank (`None` when cyclic).
    pub max_rank: Option<usize>,
    /// Chase-size polynomial degree (`None` when unbounded).
    pub size_degree: Option<usize>,
    /// Widest clause body.
    pub max_body_atoms: usize,
    /// Per-relation null-generation depths (positive only).
    pub relation_depths: Vec<RelationDepth>,
    /// Skolem functions with fan-in/fan-out.
    pub skolem_functions: Vec<SkolemFunctionReport>,
    /// Edges of the Skolem dependency graph.
    pub skolem_edges: usize,
    /// Producer-before-consumer statement order.
    pub firing_order: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn analyze(src: &str) -> (SymbolTable, ChaseAnalysis) {
        let mut syms = SymbolTable::new();
        let (a, _) = ChaseAnalysis::analyze_source(&mut syms, src);
        (syms, a)
    }

    #[test]
    fn copy_program_has_degree_one() {
        let (_syms, a) = analyze("S(x,y) -> R(x,y)\n");
        // One clause, two distinct body variables at degree 1 each: the
        // trigger polynomial is O(n^2), values stay degree 1.
        assert_eq!(a.cost.size_degree, Some(2));
        assert!(a.cost.position_degrees.iter().all(|&d| d == 1));
    }

    #[test]
    fn transitive_closure_degree() {
        let (_syms, a) = analyze("E(x,y) & E(y,z) -> E(x,z)\n");
        // Three body variables, each degree 1: O(n^3) triggers.
        assert_eq!(a.cost.size_degree, Some(3));
        assert_eq!(a.cost.max_body_atoms, 2);
    }

    #[test]
    fn skolem_degrees_add() {
        let (_syms, a) = analyze("S(x,y) -> exists z T(z)\nT(x) -> U(x)\n");
        // z Skolemizes to f(x,y): degree 1 + 1 = 2 distinct nulls at T.1,
        // copied to U.1.
        assert_eq!(a.cost.size_degree, Some(2));
        assert!(a.cost.position_degrees.contains(&2));
    }

    #[test]
    fn oblivious_divergence_has_no_degree() {
        let (_syms, a) = analyze("R(x,y) -> exists z R(x,z)\n");
        // Weakly acyclic, not richly: vdeg(R.2) grows through the Skolem
        // sum — no polynomial bound for the oblivious chase.
        assert_eq!(a.termination.class, TerminationClass::WeaklyAcyclic);
        assert_eq!(a.cost.size_degree, None);
    }

    #[test]
    fn firing_order_is_topological() {
        let (_syms, a) = analyze("T(x) -> U(x)\nS(x) -> T(x)\nP(x) -> S(x)\n");
        assert_eq!(a.firing_order, vec![2, 1, 0]);
    }

    #[test]
    fn firing_order_breaks_cycles_deterministically() {
        // Statements 0 and 1 feed each other; 2 is independent with no
        // incoming edges, so it goes first, then the cycle breaks at 0.
        let (_syms, a) = analyze("A(x) -> B(x)\nB(x) -> A(x)\nC(x) -> D(x)\n");
        assert_eq!(a.firing_order, vec![2, 0, 1]);
    }

    #[test]
    fn plan_reflects_class() {
        let (_syms, ra) = analyze("S(x) -> exists y T(x,y)\n");
        let p = ra.plan(Some(100));
        assert!(p.guaranteed_terminating);
        assert_eq!(p.step_budget, None);
        assert!(p.diagnosis.is_none());

        let (_syms, cyc) = analyze("E(x,y) -> exists z E(y,z)\n");
        let p = cyc.plan(Some(100));
        assert!(!p.guaranteed_terminating);
        assert_eq!(p.step_budget, Some(100));
        assert!(p.diagnosis.unwrap().contains("not weakly acyclic"));
    }

    #[test]
    fn so_tgds_and_tgd_plan_line_up() {
        let (_syms, a) = analyze("fact: S(a)\nT(x) -> exists z U(x,z)\nS(x) -> T(x)\n");
        let tgds = a.so_tgds();
        // Statements 1 and 2 are tgds; the fact contributes nothing.
        assert_eq!(tgds.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![1, 2]);
        // The Skolemized clause reuses the analyzer's function symbol.
        assert_eq!(tgds[0].1.funcs.len(), 1);
        assert_eq!(
            tgds[0].1.funcs[0], a.graphs.skolem.funcs[0].func,
            "so_tgds must not re-Skolemize"
        );
        // Statement firing order is producer-first (2 before 1); the tgd
        // plan remaps it to positions in the tgd list: [1, 0].
        assert_eq!(a.firing_order, vec![0, 2, 1]);
        let plan = a.tgd_plan(None);
        assert_eq!(plan.order, vec![1, 0]);
        assert!(plan.guaranteed_terminating);
    }

    #[test]
    fn tgd_plan_attaches_a_remapped_dataflow_cert() {
        let (_syms, a) = analyze("fact: S(a)\nZ(x) -> W(x)\nS(x) -> T(x)\n");
        assert_eq!(a.dataflow.dead, BTreeSet::from([1]));
        // Statement 1 is the first tgd in the so_tgds list: index 0.
        let plan = a.tgd_plan(None);
        let cert = plan.cert.expect("tgd_plan attaches the cert");
        assert_eq!(cert.dead, BTreeSet::from([0]));
        assert!(!cert.ground.is_empty(), "no nulls anywhere: all ground");
        // The statement-space plan stays cert-free (indices would not
        // line up with an engine's tgd slice).
        assert_eq!(a.plan(None).cert, None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let (syms, a) = analyze("S(x) -> exists y (R(x,y) & T(y,x))\nfact: S(a)\n");
        let report = a.report(&syms);
        assert_eq!(report.class, "richly-acyclic");
        assert_eq!(report.statements, 2);
        assert_eq!(report.skolem_functions.len(), 1);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: AnalysisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
