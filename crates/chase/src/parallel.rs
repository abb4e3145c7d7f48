//! Stage-parallel oblivious fixpoint chase, certified to be bit-identical
//! to the sequential engine in [`crate::fixpoint`].
//!
//! The engine executes a [`ParallelSchedule`]: the plan's firing order cut
//! into contiguous, conflict-free *stages*. Each round runs the stages in
//! order; within a stage, the statements' trigger enumeration — the hot
//! loop of the chase — runs concurrently on scoped worker threads
//! (`NDL_CHASE_THREADS`, the [`crate::config::ChaseConfig`] counterpart of
//! the hom engine's `NDL_HOM_THREADS`). Bit-identity with the sequential
//! engine (same NullIds, same rounds, same derived counts) falls out of
//! three invariants:
//!
//! 1. **The match phase is read-only.** Workers enumerate body matches
//!    against the round-start [`TupleIndex`] and evaluate equality gates
//!    through the non-interning `probe_term` — probe *equality* is
//!    independent of the null-factory state, so a stale snapshot decides
//!    every gate exactly as the sequential engine would.
//! 2. **Resolution replays sequentially.** Fired bindings are resolved —
//!    Skolem nulls interned, heads deduplicated, the budget enforced — on
//!    the calling thread, statement by statement in the exact firing
//!    order. Null interning order is therefore identical to the
//!    sequential engine's.
//! 3. **Stages are contiguous.** The concatenation of the stages *is* the
//!    firing order, so the replay in (2) visits fired triggers in the
//!    sequential order even across stage boundaries.
//!
//! The schedule is treated as an untrusted **certificate**: whether it
//! came from the static analyzer ([`ChasePlan::schedule`]) or from
//! [`derive_schedule`], the engine re-derives every statement's
//! read/write/Skolem footprint from the program itself and rejects
//! schedules whose stages are not conflict-free
//! ([`FixpointError::InvalidSchedule`]). In debug builds a runtime checker
//! additionally asserts that the statements of a stage derived into
//! pairwise-disjoint relations — i.e. that no concurrent posting-list
//! writes *would* have collided had the commit itself been sharded.
//!
//! Observable divergence from the sequential engine is confined to
//! statistics on a budget-cutoff round: the match phase enumerates every
//! trigger before resolution replays them, so `triggers_examined` /
//! `triggers_fired` on the cut-off round can exceed the sequential
//! engine's (which stops enumerating mid-statement). Progress, derived
//! counts, rounds and interned nulls are identical even on cutoff.

use crate::config::ChaseConfig;
use crate::fixpoint::{probe_term, resolve_value, FixpointChase, FixpointError, FixpointProgress};
use crate::null::NullFactory;
use crate::plan::{ChasePlan, ParallelSchedule};
use crate::trigger::{Binding, Matcher};
use ndl_core::prelude::*;
use ndl_obs::{ChaseObserver, NoopObserver, StmtRound};
use std::collections::BTreeSet;
use std::time::Instant;

/// The interference footprint of one statement (one [`SoTgd`]): which
/// relations its clause bodies read, which its heads write, and which
/// Skolem functions its terms intern nulls through.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StmtFootprint {
    /// Relations read by clause bodies.
    pub reads: BTreeSet<RelId>,
    /// Relations written by clause heads.
    pub writes: BTreeSet<RelId>,
    /// Skolem functions occurring in head or equality terms — shared
    /// functions mean shared null-factory interning entries.
    pub funcs: BTreeSet<FuncId>,
}

impl StmtFootprint {
    /// The footprint of one SO tgd. Functions are collected from the
    /// terms that actually occur (head and equality positions), not from
    /// the declared `funcs` list, so an unused declaration does not
    /// manufacture conflicts.
    pub fn of(tgd: &SoTgd) -> StmtFootprint {
        let mut fp = StmtFootprint::default();
        for clause in &tgd.clauses {
            for a in &clause.body {
                fp.reads.insert(a.rel);
            }
            for ta in &clause.head {
                fp.writes.insert(ta.rel);
                for t in &ta.args {
                    collect_funcs(t, &mut fp.funcs);
                }
            }
            for (l, r) in &clause.equalities {
                collect_funcs(l, &mut fp.funcs);
                collect_funcs(r, &mut fp.funcs);
            }
        }
        fp
    }

    /// Do two *distinct* statements interfere: write–write, read–write
    /// (either direction) or shared-Skolem-function (shared null-factory
    /// interning) overlap?
    pub fn conflicts_with(&self, other: &StmtFootprint) -> bool {
        !self.writes.is_disjoint(&other.writes)
            || !self.reads.is_disjoint(&other.writes)
            || !self.writes.is_disjoint(&other.reads)
            || !self.funcs.is_disjoint(&other.funcs)
    }

    /// Does the statement read a relation it also writes? Such a
    /// statement re-triggers on its own output and must run in a
    /// sequential (singleton) stage.
    pub fn self_interfering(&self) -> bool {
        !self.reads.is_disjoint(&self.writes)
    }
}

fn collect_funcs(t: &Term, out: &mut BTreeSet<FuncId>) {
    if let Term::App(f, args) = t {
        out.insert(*f);
        for a in args {
            collect_funcs(a, out);
        }
    }
}

/// The footprint of every statement of `tgds`, by statement index.
pub fn statement_footprints(tgds: &[SoTgd]) -> Vec<StmtFootprint> {
    tgds.iter().map(StmtFootprint::of).collect()
}

/// Cuts `order` (a firing order over `tgds`, e.g.
/// [`ChasePlan::firing_order`]) into contiguous conflict-free stages:
/// greedily extend the current stage while the next statement conflicts
/// with no stage member; a self-interfering statement always gets a
/// singleton stage. The result always passes [`verify_schedule`] for the
/// same `tgds` and `order`.
pub fn derive_schedule(tgds: &[SoTgd], order: &[usize]) -> ParallelSchedule {
    let fps = statement_footprints(tgds);
    let mut stages: Vec<Vec<usize>> = Vec::new();
    for &si in order {
        let fp = &fps[si];
        let fits = !fp.self_interfering()
            && stages.last().is_some_and(|stage| {
                stage
                    .iter()
                    .all(|&sj| !fps[sj].self_interfering() && !fp.conflicts_with(&fps[sj]))
            });
        match stages.last_mut() {
            Some(stage) if fits => stage.push(si),
            _ => stages.push(vec![si]),
        }
    }
    ParallelSchedule { stages }
}

/// Checks `schedule` as a certificate against footprints recomputed from
/// `tgds` itself: the stage concatenation must equal `order` exactly
/// (contiguity — this is what makes the sequential resolution replay
/// order-identical), every stage must be non-empty, and within a
/// multi-statement stage no pair may conflict (write–write, read–write,
/// shared Skolem function) nor any member be self-interfering.
pub fn verify_schedule(
    tgds: &[SoTgd],
    order: &[usize],
    schedule: &ParallelSchedule,
) -> std::result::Result<(), FixpointError> {
    let invalid = |reason: String| Err(FixpointError::InvalidSchedule { reason });
    let flat = schedule.flattened();
    if flat != order {
        return invalid(format!(
            "stage concatenation {flat:?} does not equal the firing order {order:?}"
        ));
    }
    let fps = statement_footprints(tgds);
    for (k, stage) in schedule.stages.iter().enumerate() {
        if stage.is_empty() {
            return invalid(format!("stage {k} is empty"));
        }
        if stage.len() < 2 {
            continue;
        }
        for &si in stage {
            if fps[si].self_interfering() {
                return invalid(format!(
                    "statement {si} reads a relation it writes but shares \
                     stage {k} with {} other statement(s)",
                    stage.len() - 1
                ));
            }
        }
        for i in 0..stage.len() {
            for j in i + 1..stage.len() {
                let (a, b) = (stage[i], stage[j]);
                if let Some(reason) = conflict_reason(&fps[a], &fps[b]) {
                    return invalid(format!(
                        "statements {a} and {b} in stage {k} conflict: {reason}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Why two footprints conflict (for the certificate error message), or
/// `None` when they are independent.
fn conflict_reason(a: &StmtFootprint, b: &StmtFootprint) -> Option<String> {
    if let Some(r) = a.writes.intersection(&b.writes).next() {
        return Some(format!("both write relation {r:?}"));
    }
    if let Some(r) = a.reads.intersection(&b.writes).next() {
        return Some(format!("one reads relation {r:?} the other writes"));
    }
    if let Some(r) = a.writes.intersection(&b.reads).next() {
        return Some(format!("one reads relation {r:?} the other writes"));
    }
    if let Some(f) = a.funcs.intersection(&b.funcs).next() {
        return Some(format!("both intern nulls through Skolem function {f:?}"));
    }
    None
}

/// Everything the match phase learned about one statement in one round:
/// enumeration counters and, per clause, the fired bindings as flat value
/// rows in sorted-variable order ([`Binding::values`] yields exactly that
/// order).
struct StmtMatched {
    examined: u64,
    fired: u64,
    elapsed_ns: u64,
    /// Per clause: the values of each fired binding, sorted by variable.
    clauses: Vec<Vec<Vec<Value>>>,
}

/// Read-only trigger enumeration for one statement: every body match is
/// counted, equality gates are decided through non-interning probes, and
/// fired bindings are captured for the sequential resolution replay.
fn match_statement(
    matcher: &Matcher<'_>,
    tgd: &SoTgd,
    nulls: &NullFactory,
    timed: bool,
) -> StmtMatched {
    let t = timed.then(Instant::now);
    let mut out = StmtMatched {
        examined: 0,
        fired: 0,
        elapsed_ns: 0,
        clauses: Vec::with_capacity(tgd.clauses.len()),
    };
    for clause in &tgd.clauses {
        let mut fired: Vec<Vec<Value>> = Vec::new();
        matcher.for_each_match(&clause.body, &Binding::new(), |binding| {
            out.examined += 1;
            let eq_ok = clause
                .equalities
                .iter()
                .all(|(l, r)| probe_term(l, binding, nulls) == probe_term(r, binding, nulls));
            if eq_ok {
                out.fired += 1;
                fired.push(binding.values().copied().collect());
            }
        });
        out.clauses.push(fired);
    }
    if let Some(t) = t {
        out.elapsed_ns = t.elapsed().as_nanos() as u64;
    }
    out
}

/// Matches every statement of `stage` against `index`, striping the
/// statements across `workers` scoped threads (inline when `workers <= 1`).
/// Results come back in stage order regardless of which worker produced
/// them.
fn match_stage(
    index: &TupleIndex,
    tgds: &[SoTgd],
    stage: &[usize],
    nulls: &NullFactory,
    workers: usize,
    timed: bool,
) -> Vec<StmtMatched> {
    if workers <= 1 || stage.len() <= 1 {
        let matcher = Matcher::over(index);
        return stage
            .iter()
            .map(|&si| match_statement(&matcher, &tgds[si], nulls, timed))
            .collect();
    }
    let mut out: Vec<Option<StmtMatched>> = (0..stage.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let matcher = Matcher::over(index);
                    let mut mine = Vec::new();
                    let mut pos = w;
                    while pos < stage.len() {
                        mine.push((
                            pos,
                            match_statement(&matcher, &tgds[stage[pos]], nulls, timed),
                        ));
                        pos += workers;
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (pos, m) in h.join().expect("match worker panicked") {
                out[pos] = Some(m);
            }
        }
    });
    out.into_iter()
        .map(|m| m.expect("every stage statement is matched by exactly one worker"))
        .collect()
}

/// [`chase_fixpoint_parallel_with`] under [`ChaseConfig::default`] and the
/// no-op observer. Library convenience: never consults the environment —
/// front ends that want `NDL_CHASE_*` overrides resolve
/// [`ChaseConfig::from_env`] at their own boundary and call the `_with`
/// entry point.
///
/// # Panics
/// Panics if `source` is not ground (nulls created *during* the chase are
/// fine — they are resolved through `nulls`).
pub fn chase_fixpoint_parallel(
    source: &Instance,
    tgds: &[SoTgd],
    plan: &ChasePlan,
    nulls: &mut NullFactory,
) -> std::result::Result<FixpointChase, FixpointError> {
    chase_fixpoint_parallel_with(
        source,
        tgds,
        plan,
        nulls,
        &ChaseConfig::default(),
        &mut NoopObserver,
    )
}

/// The stage-parallel counterpart of
/// [`crate::fixpoint::chase_fixpoint_with`]: same refusal and budget
/// semantics, same observer events plus one
/// [`ChaseObserver::stage_end`] per stage per round, and an output pinned
/// bit-identical to the sequential engine (see the module docs for why).
///
/// Uses [`ChasePlan::schedule`] when present, else derives one with
/// [`derive_schedule`]; either way the schedule is verified against the
/// program first and an invalid one is rejected with
/// [`FixpointError::InvalidSchedule`] before any fact is derived.
///
/// `cfg` is the explicit per-call tuning configuration (thread cap,
/// sequential cutoff) — engines never read a process-wide global, so two
/// calls in the same process with different configurations both take
/// effect (required by long-lived hosts like `ndl-serve`).
pub fn chase_fixpoint_parallel_with<O: ChaseObserver>(
    source: &Instance,
    tgds: &[SoTgd],
    plan: &ChasePlan,
    nulls: &mut NullFactory,
    cfg: &ChaseConfig,
    obs: &mut O,
) -> std::result::Result<FixpointChase, FixpointError> {
    assert!(source.is_ground(), "source instance must be ground");
    obs.chase_start(tgds.len(), source.len());
    if !plan.guaranteed_terminating && plan.step_budget.is_none() {
        obs.chase_end(0, 0, "refused");
        return Err(FixpointError::NonTerminating {
            diagnosis: plan.diagnosis.clone(),
        });
    }
    let order = plan.firing_order(tgds.len());
    let schedule = match &plan.schedule {
        Some(s) => s.clone(),
        None => derive_schedule(tgds, &order),
    };
    if let Err(e) = verify_schedule(tgds, &order, &schedule) {
        obs.chase_end(0, 0, "refused");
        return Err(e);
    }
    // The dataflow certificate is checked after the schedule and against
    // the *original* stages; only then are verified-dead statements
    // filtered out. A stage emptied by the filter is skipped outright (no
    // `stage_end`), but surviving stages keep their original indices.
    let mut dead = BTreeSet::new();
    if let Some(cert) = &plan.cert {
        if let Err(e) = crate::cert::verify_dataflow_cert(source, tgds, cert) {
            obs.chase_end(0, 0, "refused");
            return Err(e);
        }
        obs.dataflow_cert(cert.dead.len(), cert.ground.len());
        dead = cert.dead.clone();
    }
    let live_stages: Vec<Vec<usize>> = schedule
        .stages
        .iter()
        .map(|stage| {
            stage
                .iter()
                .copied()
                .filter(|si| !dead.contains(si))
                .collect()
        })
        .collect();

    let mut index = TupleIndex::from_instance(source);
    let mut committed = source.len();

    let mut rounds = 0usize;
    let mut derived = 0usize;
    loop {
        rounds += 1;
        obs.round_start(rounds);
        let round_t = O::ENABLED.then(Instant::now);
        // Same dedup discipline as the sequential engine: fresh facts of
        // the round, ordered, committed only at round end.
        let mut fresh: BTreeSet<Fact> = BTreeSet::new();
        let mut head_buf: Vec<Value> = Vec::new();
        for (stage_idx, stage) in live_stages.iter().enumerate() {
            if !dead.is_empty() {
                for &si in &schedule.stages[stage_idx] {
                    if dead.contains(&si) {
                        obs.statement_skipped(rounds, si);
                    }
                }
            }
            if stage.is_empty() {
                continue;
            }
            let stage_t = O::ENABLED.then(Instant::now);
            let workers = cfg.effective_threads(stage.len(), committed);
            // Phase 1 — concurrent, read-only: enumerate and gate every
            // trigger of the stage against the round-start index.
            let matched = match_stage(&index, tgds, stage, nulls, workers, O::ENABLED);
            // Phase 2 — sequential resolution replay, in firing order:
            // intern nulls, deduplicate heads, enforce the budget. Track
            // which relations each statement actually derived into so the
            // debug checker can assert the certificate's no-collision
            // claim against reality.
            let mut stage_writes: Vec<BTreeSet<RelId>> = Vec::new();
            for (pos, &si) in stage.iter().enumerate() {
                let m = &matched[pos];
                let mut sr = StmtRound {
                    round: rounds,
                    stmt: si,
                    examined: m.examined,
                    fired: m.fired,
                    ..StmtRound::default()
                };
                let stmt_t = O::ENABLED.then(Instant::now);
                let nulls_before = nulls.len();
                let mut written: BTreeSet<RelId> = BTreeSet::new();
                let mut budget_hit = false;
                'stmt: for (ci, clause) in tgds[si].clauses.iter().enumerate() {
                    // A binding's values come back in sorted-variable
                    // order (`Binding::values`); zipping the sorted
                    // distinct body variables back over them rebuilds the
                    // exact binding the worker saw.
                    let mut vars: Vec<VarId> = clause
                        .body
                        .iter()
                        .flat_map(|a| a.args.iter().copied())
                        .collect();
                    vars.sort_unstable();
                    vars.dedup();
                    for vals in &m.clauses[ci] {
                        let binding: Binding =
                            vars.iter().copied().zip(vals.iter().copied()).collect();
                        for ta in &clause.head {
                            head_buf.clear();
                            for t in &ta.args {
                                head_buf.push(resolve_value(t, &binding, nulls));
                            }
                            if index.contains(ta.rel, &head_buf) {
                                sr.dedup_hits += 1;
                            } else if fresh.insert(Fact::new(ta.rel, head_buf.clone())) {
                                sr.derived += 1;
                                if cfg!(debug_assertions) {
                                    written.insert(ta.rel);
                                }
                                if let Some(budget) = plan.step_budget {
                                    if derived + fresh.len() > budget {
                                        budget_hit = true;
                                        break 'stmt;
                                    }
                                }
                            } else {
                                sr.dedup_hits += 1;
                            }
                        }
                    }
                }
                sr.nulls_interned = (nulls.len() - nulls_before) as u64;
                if let Some(t) = stmt_t {
                    sr.elapsed_ns = m.elapsed_ns + t.elapsed().as_nanos() as u64;
                }
                obs.statement(&sr);
                if budget_hit {
                    let cut = derived + fresh.len();
                    obs.round_end(
                        rounds,
                        fresh.len() as u64,
                        round_t.map_or(0, |t| t.elapsed().as_nanos() as u64),
                    );
                    obs.store(&index.store().counters());
                    obs.chase_end(rounds, cut as u64, "budget-exhausted");
                    let budget = plan.step_budget.expect("budget hit implies a budget");
                    return Err(FixpointError::BudgetExhausted {
                        budget,
                        diagnosis: plan.diagnosis.clone(),
                        progress: FixpointProgress {
                            rounds,
                            derived: cut,
                        },
                    });
                }
                stage_writes.push(written);
            }
            if cfg!(debug_assertions) && stage.len() > 1 {
                for i in 0..stage_writes.len() {
                    for j in i + 1..stage_writes.len() {
                        debug_assert!(
                            stage_writes[i].is_disjoint(&stage_writes[j]),
                            "schedule certificate violated at runtime: statements {} and {} \
                             of stage {stage_idx} both derived into relation(s) {:?}",
                            stage[i],
                            stage[j],
                            stage_writes[i]
                                .intersection(&stage_writes[j])
                                .collect::<Vec<_>>(),
                        );
                    }
                }
            }
            obs.stage_end(
                rounds,
                stage_idx,
                stage.len(),
                workers,
                stage_t.map_or(0, |t| t.elapsed().as_nanos() as u64),
            );
        }

        let mut added = 0u64;
        for f in fresh {
            if index.insert(f.rel, &f.args) {
                added += 1;
                derived += 1;
                committed += 1;
            }
        }
        obs.round_end(
            rounds,
            added,
            round_t.map_or(0, |t| t.elapsed().as_nanos() as u64),
        );
        if added == 0 {
            break;
        }
    }
    obs.store(&index.store().counters());
    obs.chase_end(rounds, derived as u64, "fixpoint");
    Ok(FixpointChase {
        instance: index.into_instance(),
        rounds,
        derived,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::chase_fixpoint;

    fn consts(syms: &mut SymbolTable, names: &[&str]) -> Vec<Value> {
        names
            .iter()
            .map(|n| Value::Const(syms.constant(n)))
            .collect()
    }

    fn pipeline_program(syms: &mut SymbolTable) -> Vec<SoTgd> {
        vec![
            parse_so_tgd(syms, "exists f . S(x) -> T(f(x))").unwrap(),
            parse_so_tgd(syms, "exists g . U(x) -> V(g(x))").unwrap(),
            parse_so_tgd(syms, "T(x) -> W(x)").unwrap(),
        ]
    }

    #[test]
    fn footprints_capture_reads_writes_funcs() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "exists f . S(x) & T(x,y) -> U(f(x),y)").unwrap();
        let fp = StmtFootprint::of(&tgd);
        assert_eq!(fp.reads.len(), 2);
        assert_eq!(fp.writes.len(), 1);
        assert_eq!(fp.funcs.len(), 1);
        assert!(!fp.self_interfering());

        let tc = parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap();
        let fp = StmtFootprint::of(&tc);
        assert!(fp.self_interfering());
        assert!(fp.funcs.is_empty());
    }

    #[test]
    fn derive_schedule_groups_independent_statements() {
        let mut syms = SymbolTable::new();
        let tgds = pipeline_program(&mut syms);
        // S->T(f) and U->V(g) are independent; T->W reads what 0 writes,
        // so it opens a new stage.
        let sched = derive_schedule(&tgds, &[0, 1, 2]);
        assert_eq!(sched.stages, vec![vec![0, 1], vec![2]]);
        assert_eq!(sched.flattened(), vec![0, 1, 2]);
        verify_schedule(&tgds, &[0, 1, 2], &sched).unwrap();
    }

    #[test]
    fn self_interfering_statement_gets_singleton_stage() {
        let mut syms = SymbolTable::new();
        let tgds = vec![
            parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap(),
            parse_so_tgd(&mut syms, "S(x) -> T(x)").unwrap(),
        ];
        let sched = derive_schedule(&tgds, &[0, 1]);
        assert_eq!(sched.stages, vec![vec![0], vec![1]]);
        // And the certificate rejects grouping them.
        let bad = ParallelSchedule {
            stages: vec![vec![0, 1]],
        };
        let err = verify_schedule(&tgds, &[0, 1], &bad).unwrap_err();
        assert!(
            err.to_string().contains("reads a relation it writes"),
            "{err}"
        );
    }

    #[test]
    fn verify_rejects_reordering_and_conflicts() {
        let mut syms = SymbolTable::new();
        let tgds = pipeline_program(&mut syms);
        // Reordering the firing order is rejected even if conflict-free.
        let reordered = ParallelSchedule {
            stages: vec![vec![1], vec![0], vec![2]],
        };
        let err = verify_schedule(&tgds, &[0, 1, 2], &reordered).unwrap_err();
        assert!(err.to_string().contains("firing order"), "{err}");
        // Grouping a read-write dependent pair is rejected with the
        // offending relation named.
        let conflicting = ParallelSchedule {
            stages: vec![vec![0], vec![1, 2]],
        };
        let ok = verify_schedule(&tgds, &[0, 1, 2], &conflicting);
        assert!(ok.is_ok(), "1 and 2 touch disjoint relations");
        let ww = ParallelSchedule {
            stages: vec![vec![0, 2], vec![1]],
        };
        let err = verify_schedule(&tgds, &[0, 2, 1], &ww).unwrap_err();
        assert!(err.to_string().contains("conflict"), "{err}");
    }

    #[test]
    fn shared_skolem_functions_conflict() {
        let mut syms = SymbolTable::new();
        let a = parse_so_tgd(&mut syms, "exists f . S(x) -> T(f(x))").unwrap();
        let mut b = parse_so_tgd(&mut syms, "exists g . U(x) -> V(g(x))").unwrap();
        // Make b intern through a's function.
        let f = a.funcs[0];
        b.funcs = vec![f];
        for c in &mut b.clauses {
            for ta in &mut c.head {
                for t in &mut ta.args {
                    if let Term::App(g, _) = t {
                        *g = f;
                    }
                }
            }
        }
        let tgds = vec![a, b];
        let fps = statement_footprints(&tgds);
        assert!(fps[0].conflicts_with(&fps[1]));
        assert_eq!(derive_schedule(&tgds, &[0, 1]).stages.len(), 2);
        let bad = ParallelSchedule {
            stages: vec![vec![0, 1]],
        };
        let err = verify_schedule(&tgds, &[0, 1], &bad).unwrap_err();
        assert!(err.to_string().contains("Skolem"), "{err}");
    }

    #[test]
    fn parallel_output_is_bit_identical_to_sequential() {
        let mut syms = SymbolTable::new();
        let tgds = pipeline_program(&mut syms);
        let s = syms.rel("S");
        let u = syms.rel("U");
        let v = consts(&mut syms, &["a", "b", "c"]);
        let source = Instance::from_facts([
            Fact::new(s, vec![v[0]]),
            Fact::new(s, vec![v[1]]),
            Fact::new(u, vec![v[2]]),
        ]);
        let plan = ChasePlan::trusting(3);
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let seq = chase_fixpoint(&source, &tgds, &plan, &mut n1).unwrap();
        let par = chase_fixpoint_parallel(&source, &tgds, &plan, &mut n2).unwrap();
        assert_eq!(seq.instance, par.instance);
        assert_eq!(seq.rounds, par.rounds);
        assert_eq!(seq.derived, par.derived);
        assert_eq!(n1.len(), n2.len());
    }

    #[test]
    fn parallel_respects_refusal_and_budget() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "exists f . T(x) -> T(f(x))").unwrap();
        let t = syms.rel("T");
        let v = consts(&mut syms, &["a"]);
        let source = Instance::from_facts([Fact::new(t, vec![v[0]])]);
        let plan = ChasePlan {
            guaranteed_terminating: false,
            ..ChasePlan::trusting(1)
        };
        let mut nulls = NullFactory::new();
        let err = chase_fixpoint_parallel(&source, std::slice::from_ref(&tgd), &plan, &mut nulls)
            .unwrap_err();
        assert!(matches!(err, FixpointError::NonTerminating { .. }));

        // Budget cutoff: progress identical to the sequential engine.
        let budgeted = ChasePlan {
            step_budget: Some(5),
            ..plan
        };
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let seq =
            chase_fixpoint(&source, std::slice::from_ref(&tgd), &budgeted, &mut n1).unwrap_err();
        let par = chase_fixpoint_parallel(&source, std::slice::from_ref(&tgd), &budgeted, &mut n2)
            .unwrap_err();
        let (
            FixpointError::BudgetExhausted { progress: ps, .. },
            FixpointError::BudgetExhausted { progress: pp, .. },
        ) = (&seq, &par)
        else {
            panic!("expected budget exhaustion from both engines");
        };
        assert_eq!(ps, pp);
        assert_eq!(n1.len(), n2.len());
    }

    #[test]
    fn invalid_plan_schedule_is_rejected() {
        let mut syms = SymbolTable::new();
        let tgds = pipeline_program(&mut syms);
        let s = syms.rel("S");
        let v = consts(&mut syms, &["a"]);
        let source = Instance::from_facts([Fact::new(s, vec![v[0]])]);
        let plan = ChasePlan {
            schedule: Some(ParallelSchedule {
                stages: vec![vec![0, 2], vec![1]],
            }),
            ..ChasePlan::trusting(3)
        };
        let mut nulls = NullFactory::new();
        let err = chase_fixpoint_parallel(&source, &tgds, &plan, &mut nulls).unwrap_err();
        assert!(matches!(err, FixpointError::InvalidSchedule { .. }));
    }
}
