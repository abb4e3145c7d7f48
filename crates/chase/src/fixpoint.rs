//! Oblivious fixpoint chase for (recursive) SO-tgd programs.
//!
//! Unlike the single-pass engines in [`crate::so`] and [`crate::nested`] —
//! which fire every dependency once against a *fixed* source and are
//! therefore trivially terminating — this engine chases a **combined**
//! instance to a fixpoint: derived facts are added back to the instance and
//! may re-trigger any clause. That is the semantics under which the
//! termination classes of the static analyzer are meaningful: the chase of
//! a *richly acyclic* program always reaches a fixpoint, a weakly-acyclic
//! but not richly acyclic program may diverge obliviously, and a cyclic
//! program can diverge outright.
//!
//! The engine therefore takes a [`ChasePlan`]: it refuses programs the plan
//! marks non-terminating (unless a step budget is supplied) and fires
//! clauses in the planned statement order.
//!
//! The engine is instrumented through [`ChaseObserver`]
//! ([`chase_fixpoint_with`]): triggers examined vs. fired per statement,
//! facts derived, dedup hits, nulls interned, and per-round /
//! per-statement wall time. [`chase_fixpoint`] runs with the no-op sink,
//! which monomorphizes the instrumentation away.

use crate::null::NullFactory;
use crate::plan::ChasePlan;
use crate::trigger::{Binding, Matcher};
use ndl_core::prelude::*;
use ndl_obs::{ChaseObserver, NoopObserver, StmtRound};
use std::fmt;
use std::time::Instant;

/// How far a cut-off chase got before the budget ran out — carried inside
/// [`FixpointError::BudgetExhausted`] so callers (and `ndl chase --stats`)
/// can report partial progress instead of losing it on the error path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixpointProgress {
    /// Rounds started (the cut-off round included).
    pub rounds: usize,
    /// Facts derived beyond the source, the uncommitted fresh facts of the
    /// cut-off round included — this is exactly the count the budget
    /// bounds, so `derived > budget` by exactly one on cutoff.
    pub derived: usize,
}

/// Why a fixpoint chase did not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FixpointError {
    /// The plan says the chase is not guaranteed to terminate and no step
    /// budget was provided, so the engine refused to start. Carries the
    /// analyzer's diagnosis (the NDL020/NDL021 finding) when available.
    NonTerminating {
        /// The analyzer's explanation, e.g. the special-edge cycle.
        diagnosis: Option<String>,
    },
    /// The chase derived more than `budget` new facts without reaching a
    /// fixpoint and was cut off.
    BudgetExhausted {
        /// The step budget that was exhausted.
        budget: usize,
        /// The analyzer's explanation, when available.
        diagnosis: Option<String>,
        /// How far the chase got before the cutoff.
        progress: FixpointProgress,
    },
    /// The engine rejected the plan's dataflow certificate: a statement
    /// claimed dead can fire from the populated relations, or a relation
    /// claimed ground can receive a null (both recomputed from the actual
    /// source instance and tgd list — see [`crate::cert`]).
    InvalidCert {
        /// Which claim failed verification.
        reason: String,
    },
}

impl fmt::Display for FixpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixpointError::NonTerminating { diagnosis } => {
                write!(f, "chase is not guaranteed to terminate")?;
                if let Some(d) = diagnosis {
                    write!(f, ": {d}")?;
                }
                Ok(())
            }
            FixpointError::BudgetExhausted {
                budget,
                diagnosis,
                progress,
            } => {
                write!(
                    f,
                    "chase exhausted its step budget of {budget} facts \
                     after deriving {} facts in {} rounds",
                    progress.derived, progress.rounds
                )?;
                if let Some(d) = diagnosis {
                    write!(f, " ({d})")?;
                }
                Ok(())
            }
            FixpointError::InvalidCert { reason } => {
                write!(f, "invalid dataflow certificate: {reason}")
            }
        }
    }
}

impl std::error::Error for FixpointError {}

/// The result of a completed fixpoint chase.
#[derive(Clone, Debug)]
pub struct FixpointChase {
    /// The combined instance at fixpoint (source facts included).
    pub instance: Instance,
    /// Number of rounds until the fixpoint (the final, empty round
    /// included).
    pub rounds: usize,
    /// Number of facts derived beyond the source.
    pub derived: usize,
}

/// Chases `source` with the program `tgds` (one SO tgd per statement) to a
/// fixpoint, firing statements in the order given by `plan` and allocating
/// nulls in `nulls`. Equivalent to [`chase_fixpoint_with`] under the no-op
/// observer.
///
/// Returns an error without chasing if `plan` marks the program
/// non-terminating and provides no step budget; returns
/// [`FixpointError::BudgetExhausted`] if a budget is set and more than that
/// many facts are derived.
///
/// # Panics
/// Panics if `source` is not ground (nulls created *during* the chase are
/// fine — they are resolved through `nulls`).
pub fn chase_fixpoint(
    source: &Instance,
    tgds: &[SoTgd],
    plan: &ChasePlan,
    nulls: &mut NullFactory,
) -> std::result::Result<FixpointChase, FixpointError> {
    chase_fixpoint_with(source, tgds, plan, nulls, &mut NoopObserver)
}

/// [`chase_fixpoint`] reporting its work to a [`ChaseObserver`]: one
/// [`StmtRound`] aggregate per statement per round, round boundaries with
/// commit counts, and a final outcome event (also emitted on refusal and
/// budget exhaustion, so stats survive the error paths).
pub fn chase_fixpoint_with<O: ChaseObserver>(
    source: &Instance,
    tgds: &[SoTgd],
    plan: &ChasePlan,
    nulls: &mut NullFactory,
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
    // Dataflow certificate: re-verified against the actual source and tgd
    // list before it is believed (see `crate::cert`). A verified dead
    // statement can never match, so skipping it each round is exact.
    let mut dead = std::collections::BTreeSet::new();
    if let Some(cert) = &plan.cert {
        if let Err(e) = crate::cert::verify_dataflow_cert(source, tgds, cert) {
            obs.chase_end(0, 0, "refused");
            return Err(e);
        }
        obs.dataflow_cert(cert.dead.len(), cert.ground.len());
        dead = cert.dead.clone();
    }
    // Dense skip mask: the round loop probes it once per statement, so
    // the probe must be O(1) — a dead-heavy program would otherwise spend
    // its savings on `BTreeSet` lookups.
    let dead_mask: Vec<bool> = (0..tgds.len()).map(|i| dead.contains(&i)).collect();

    // The single growing state of the chase: one tuple index whose store
    // holds every committed fact. Dedup, the budget check and the final
    // instance all come from it — no shadow `Instance` is maintained.
    // It starts at the source's size and grows by amortized doubling,
    // never rebuilt per round.
    let mut index = TupleIndex::from_instance(source);

    let order = plan.firing_order(tgds.len());
    let mut rounds = 0usize;
    let mut derived = 0usize;
    loop {
        rounds += 1;
        obs.round_start(rounds);
        let round_t = O::ENABLED.then(Instant::now);
        // Fresh facts of this round, deduplicated against the committed
        // facts (O(1) store probe) and each other as they are produced, so
        // the budget bounds the *work* of a round — one wide join must not
        // materialize millions of facts before an after-the-fact check
        // sees them. The `BTreeSet` keeps the commit order (and hence
        // `FactId` assignment) deterministic and sorted.
        let mut fresh: std::collections::BTreeSet<Fact> = std::collections::BTreeSet::new();
        let mut head_buf: Vec<Value> = Vec::new();
        let matcher = Matcher::over(&index);
        for &si in &order {
            if dead_mask[si] {
                obs.statement_skipped(rounds, si);
                continue;
            }
            let mut sr = StmtRound {
                round: rounds,
                stmt: si,
                ..StmtRound::default()
            };
            let stmt_t = O::ENABLED.then(Instant::now);
            let nulls_before = nulls.len();
            let mut budget_hit = false;
            for clause in &tgds[si].clauses {
                // Matches are streamed, not collected: nothing is cloned
                // per match, and head tuples are resolved into a reused
                // buffer — a `Fact` is only allocated for candidates that
                // are not already committed (the store probe is O(1) on
                // the borrowed buffer).
                let flow = matcher.try_for_each_match(&clause.body, &Binding::new(), |binding| {
                    sr.examined += 1;
                    // Equalities gate the clause and must be side-effect
                    // free: they are evaluated through non-interning probes
                    // so a failing equality never allocates Skolem nulls
                    // for a clause that does not fire.
                    let eq_ok = clause.equalities.iter().all(|(l, r)| {
                        probe_term(l, binding, nulls) == probe_term(r, binding, nulls)
                    });
                    if !eq_ok {
                        return std::ops::ControlFlow::Continue(());
                    }
                    sr.fired += 1;
                    for ta in &clause.head {
                        head_buf.clear();
                        for t in &ta.args {
                            head_buf.push(resolve_value(t, binding, nulls));
                        }
                        if index.contains(ta.rel, &head_buf) {
                            sr.dedup_hits += 1;
                        } else if fresh.insert(Fact::new(ta.rel, head_buf.clone())) {
                            sr.derived += 1;
                            if let Some(budget) = plan.step_budget {
                                if derived + fresh.len() > budget {
                                    budget_hit = true;
                                    return std::ops::ControlFlow::Break(());
                                }
                            }
                        } else {
                            sr.dedup_hits += 1;
                        }
                    }
                    std::ops::ControlFlow::Continue(())
                });
                debug_assert_eq!(flow.is_break(), budget_hit);
                if budget_hit {
                    // Keep the partial aggregates: flush the cut-off
                    // statement's counters and close the run before
                    // erroring out.
                    sr.nulls_interned = (nulls.len() - nulls_before) as u64;
                    if let Some(t) = stmt_t {
                        sr.elapsed_ns = t.elapsed().as_nanos() as u64;
                    }
                    obs.statement(&sr);
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
            }
            sr.nulls_interned = (nulls.len() - nulls_before) as u64;
            if let Some(t) = stmt_t {
                sr.elapsed_ns = t.elapsed().as_nanos() as u64;
            }
            obs.statement(&sr);
        }
        drop(matcher);

        let mut added = 0u64;
        for f in fresh {
            if index.insert(f.rel, &f.args) {
                added += 1;
                derived += 1;
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
    // The chase never retracts, so the store has no tombstones: hand it to
    // the instance wholesale instead of re-inserting every fact.
    Ok(FixpointChase {
        instance: index.into_instance(),
        rounds,
        derived,
    })
}

/// Grounds a term under a binding directly to a value: variables take
/// their bound value, function applications intern a null for the
/// application over their argument *values* ([`NullFactory::null_for_app`]).
/// The Herbrand interpretation stays consistent across rounds (re-deriving
/// the same term yields the same null) without ever expanding a null into
/// its structural Skolem term — nested terms grow exponentially in rank,
/// the hash-consed values do not.
pub(crate) fn resolve_value(t: &Term, binding: &Binding, nulls: &mut NullFactory) -> Value {
    match t {
        Term::Var(v) => *binding
            .get(v)
            .expect("unbound variable while grounding term"),
        Term::App(f, args) => {
            // Argument values land in a stack buffer for the usual small
            // arities; the interning probe borrows it, so re-deriving a
            // known application allocates nothing.
            let mut stack = [Value::Null(NullId(0)); 8];
            if args.len() <= stack.len() {
                for (slot, a) in stack.iter_mut().zip(args) {
                    *slot = resolve_value(a, binding, nulls);
                }
                Value::Null(nulls.null_for_app_slice(*f, &stack[..args.len()]))
            } else {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| resolve_value(a, binding, nulls))
                    .collect();
                Value::Null(nulls.null_for_app_slice(*f, &vals))
            }
        }
    }
}

/// The canonical, non-interning form of a ground term under a binding:
/// subterms already interned by `nulls` collapse (bottom-up) to their null
/// values, un-interned applications stay structural. Within one factory
/// state, two ground terms are equal in the Herbrand interpretation iff
/// their probes are equal — interned subtrees meet as identical `Value`s,
/// un-interned ones as identical structure, and the two kinds never
/// coincide (an interned null's defining application is interned, so a
/// structurally equal term would have collapsed too).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ProbeTerm {
    /// A constant, or an application already interned as a null.
    Value(Value),
    /// An application not (yet) interned.
    App(FuncId, Vec<ProbeTerm>),
}

pub(crate) fn probe_term(t: &Term, binding: &Binding, nulls: &NullFactory) -> ProbeTerm {
    match t {
        Term::Var(v) => {
            ProbeTerm::Value(*binding.get(v).expect("unbound variable while probing term"))
        }
        Term::App(f, args) => {
            let probes: Vec<ProbeTerm> =
                args.iter().map(|a| probe_term(a, binding, nulls)).collect();
            let vals: Option<Vec<Value>> = probes
                .iter()
                .map(|p| match p {
                    ProbeTerm::Value(v) => Some(*v),
                    ProbeTerm::App(..) => None,
                })
                .collect();
            if let Some(vals) = vals {
                if let Some(id) = nulls.lookup_app(*f, &vals) {
                    return ProbeTerm::Value(Value::Null(id));
                }
            }
            ProbeTerm::App(*f, probes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndl_obs::ChaseStats;

    fn consts(syms: &mut SymbolTable, names: &[&str]) -> Vec<Value> {
        names
            .iter()
            .map(|n| Value::Const(syms.constant(n)))
            .collect()
    }

    #[test]
    fn transitive_closure_reaches_fixpoint() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap();
        let e = syms.rel("E");
        let v = consts(&mut syms, &["a", "b", "c", "d"]);
        let source = Instance::from_facts([
            Fact::new(e, vec![v[0], v[1]]),
            Fact::new(e, vec![v[1], v[2]]),
            Fact::new(e, vec![v[2], v[3]]),
        ]);
        let mut nulls = NullFactory::new();
        let out = chase_fixpoint(&source, &[tgd], &ChasePlan::trusting(1), &mut nulls).unwrap();
        // TC of a 4-path has 3+2+1 = 6 edges.
        assert_eq!(out.instance.rel_len(e), 6);
        assert_eq!(out.derived, 3);
        assert!(out.rounds >= 2);
        assert!(nulls.is_empty());
    }

    #[test]
    fn richly_acyclic_program_with_nulls_terminates() {
        let mut syms = SymbolTable::new();
        let program = vec![
            parse_so_tgd(&mut syms, "exists f . S(x) -> T(f(x))").unwrap(),
            parse_so_tgd(&mut syms, "T(x) -> U(x)").unwrap(),
        ];
        let s = syms.rel("S");
        let t = syms.rel("T");
        let u = syms.rel("U");
        let v = consts(&mut syms, &["a", "b"]);
        let source = Instance::from_facts([Fact::new(s, vec![v[0]]), Fact::new(s, vec![v[1]])]);
        let mut nulls = NullFactory::new();
        let out = chase_fixpoint(&source, &program, &ChasePlan::trusting(2), &mut nulls).unwrap();
        assert_eq!(out.instance.rel_len(t), 2);
        assert_eq!(out.instance.rel_len(u), 2);
        assert_eq!(nulls.len(), 2);
        // Idempotent: re-firing T(f(a)) -> U(f(a)) reuses the same null, so
        // the fixpoint is reached without budget pressure.
        assert_eq!(out.derived, 4);
    }

    #[test]
    fn refuses_unplanned_divergence() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "exists f . T(x) -> T(f(x))").unwrap();
        let t = syms.rel("T");
        let v = consts(&mut syms, &["a"]);
        let source = Instance::from_facts([Fact::new(t, vec![v[0]])]);
        let plan = ChasePlan {
            guaranteed_terminating: false,
            diagnosis: Some("special-edge cycle T.1 -> T.1".into()),
            ..ChasePlan::trusting(1)
        };
        let mut nulls = NullFactory::new();
        let err =
            chase_fixpoint(&source, std::slice::from_ref(&tgd), &plan, &mut nulls).unwrap_err();
        assert!(matches!(err, FixpointError::NonTerminating { .. }));
        assert!(err.to_string().contains("special-edge cycle"));

        // With a budget the chase runs but is cut off.
        let budgeted = ChasePlan {
            step_budget: Some(10),
            ..plan
        };
        let err = chase_fixpoint(&source, &[tgd], &budgeted, &mut nulls).unwrap_err();
        let FixpointError::BudgetExhausted {
            budget,
            diagnosis,
            progress,
        } = &err
        else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(*budget, 10);
        assert_eq!(diagnosis.as_deref(), Some("special-edge cycle T.1 -> T.1"));
        // Partial progress survives the error path: the cutoff happens on
        // the first fact past the budget.
        assert_eq!(progress.derived, 11);
        assert!(progress.rounds >= 1);
        // The budget bounded the work: at most budget + 1 facts derived.
        assert!(nulls.len() <= 11);
    }

    #[test]
    fn plan_order_is_respected_but_result_is_confluent() {
        let mut syms = SymbolTable::new();
        let program = vec![
            parse_so_tgd(&mut syms, "P(x) -> Q(x)").unwrap(),
            parse_so_tgd(&mut syms, "Q(x) -> R(x)").unwrap(),
        ];
        let p = syms.rel("P");
        let r = syms.rel("R");
        let v = consts(&mut syms, &["a"]);
        let source = Instance::from_facts([Fact::new(p, vec![v[0]])]);
        let forward = ChasePlan::trusting(2);
        let backward = ChasePlan {
            order: vec![1, 0],
            ..ChasePlan::trusting(2)
        };
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let a = chase_fixpoint(&source, &program, &forward, &mut n1).unwrap();
        let b = chase_fixpoint(&source, &program, &backward, &mut n2).unwrap();
        assert_eq!(a.instance.rel_len(r), 1);
        // Firing order changes the round count, not the fixpoint.
        assert!(a.rounds <= b.rounds);
        assert!(a.instance.is_subinstance_of(&b.instance));
        assert!(b.instance.is_subinstance_of(&a.instance));
    }

    #[test]
    fn equalities_gate_recursive_clauses() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "S(x,y) & x = y -> D(x)").unwrap();
        let s = syms.rel("S");
        let d = syms.rel("D");
        let v = consts(&mut syms, &["a", "b"]);
        let source = Instance::from_facts([
            Fact::new(s, vec![v[0], v[0]]),
            Fact::new(s, vec![v[0], v[1]]),
        ]);
        let mut nulls = NullFactory::new();
        let out = chase_fixpoint(&source, &[tgd], &ChasePlan::trusting(1), &mut nulls).unwrap();
        assert_eq!(out.instance.rel_len(d), 1);
    }

    #[test]
    fn failing_equalities_do_not_intern_nulls() {
        // Regression test for the equality-gate null leak: evaluating
        // `f(x) = f(y)` used to intern f(a) and f(b) even though the
        // equality fails and the clause never fires. The factory must stay
        // empty.
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "exists f . S(x,y) & f(x) = f(y) -> D(x)").unwrap();
        let s = syms.rel("S");
        let d = syms.rel("D");
        let v = consts(&mut syms, &["a", "b"]);
        let source = Instance::from_facts([Fact::new(s, vec![v[0], v[1]])]);
        let mut nulls = NullFactory::new();
        let out = chase_fixpoint(&source, &[tgd], &ChasePlan::trusting(1), &mut nulls).unwrap();
        assert_eq!(out.instance.rel_len(d), 0);
        assert_eq!(out.derived, 0);
        assert_eq!(
            nulls.len(),
            0,
            "failing equality gates must not intern Skolem nulls"
        );
    }

    #[test]
    fn passing_function_equalities_still_fire() {
        // The probe path must agree with the interning path on success:
        // S(a,a) satisfies f(x) = f(y), and repeated-variable bodies
        // satisfy it trivially across rounds.
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "exists f . S(x,y) & f(x) = f(y) -> D(x,f(x))").unwrap();
        let s = syms.rel("S");
        let d = syms.rel("D");
        let v = consts(&mut syms, &["a", "b"]);
        let source = Instance::from_facts([
            Fact::new(s, vec![v[0], v[0]]),
            Fact::new(s, vec![v[0], v[1]]),
        ]);
        let mut nulls = NullFactory::new();
        let out = chase_fixpoint(&source, &[tgd], &ChasePlan::trusting(1), &mut nulls).unwrap();
        // Only S(a,a) passes the gate; its head interns exactly f(a).
        assert_eq!(out.instance.rel_len(d), 1);
        assert_eq!(nulls.len(), 1);
    }

    #[test]
    fn probe_matches_interned_subterms_across_rounds() {
        // Once a null is interned by a fired head, a later equality over
        // the same term must see it through the probe: T(f(x)) facts from
        // round one satisfy `z = f(x)` when z is bound to the interned
        // null in round two.
        let mut syms = SymbolTable::new();
        let program = [
            parse_so_tgd(&mut syms, "exists f . S(x) -> T(x,f(x))").unwrap(),
            parse_so_tgd(&mut syms, "exists f . S(x) & T(x,z) & z = f(x) -> U(x)").unwrap(),
        ];
        // The two statements must share the Skolem function symbol for the
        // equality to refer to statement one's nulls.
        let f1 = program[0].funcs[0];
        let mut second = program[1].clone();
        rename_funcs(&mut second, f1);
        let program = vec![program[0].clone(), second];
        let s = syms.rel("S");
        let u = syms.rel("U");
        let v = consts(&mut syms, &["a"]);
        let source = Instance::from_facts([Fact::new(s, vec![v[0]])]);
        let mut nulls = NullFactory::new();
        let out = chase_fixpoint(&source, &program, &ChasePlan::trusting(2), &mut nulls).unwrap();
        assert_eq!(out.instance.rel_len(u), 1);
        assert_eq!(nulls.len(), 1);
    }

    /// Rewrites every function symbol of `tgd` to `f` (test helper for
    /// sharing Skolem functions across independently parsed statements).
    fn rename_funcs(tgd: &mut SoTgd, f: FuncId) {
        fn rec(t: &mut Term, f: FuncId) {
            if let Term::App(g, args) = t {
                *g = f;
                for a in args {
                    rec(a, f);
                }
            }
        }
        tgd.funcs = vec![f];
        for c in &mut tgd.clauses {
            for (l, r) in &mut c.equalities {
                rec(l, f);
                rec(r, f);
            }
            for ta in &mut c.head {
                for a in &mut ta.args {
                    rec(a, f);
                }
            }
        }
    }

    #[test]
    fn observer_sees_the_whole_run() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap();
        let e = syms.rel("E");
        let v = consts(&mut syms, &["a", "b", "c", "d"]);
        let source = Instance::from_facts([
            Fact::new(e, vec![v[0], v[1]]),
            Fact::new(e, vec![v[1], v[2]]),
            Fact::new(e, vec![v[2], v[3]]),
        ]);
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let plain = chase_fixpoint(
            &source,
            std::slice::from_ref(&tgd),
            &ChasePlan::trusting(1),
            &mut n1,
        )
        .unwrap();
        let mut stats = ChaseStats::new();
        let observed = chase_fixpoint_with(
            &source,
            std::slice::from_ref(&tgd),
            &ChasePlan::trusting(1),
            &mut n2,
            &mut stats,
        )
        .unwrap();
        // Instrumentation is observation only: results are identical.
        assert_eq!(plain.instance, observed.instance);
        assert_eq!(plain.rounds, observed.rounds);
        assert_eq!(plain.derived, observed.derived);
        // And the aggregates are consistent.
        assert_eq!(stats.outcome, "fixpoint");
        assert_eq!(stats.rounds, observed.rounds);
        assert_eq!(stats.derived as usize, observed.derived);
        assert_eq!(stats.source_facts as usize, source.len());
        assert!(stats.triggers_fired <= stats.triggers_examined);
        assert_eq!(
            stats.statements.iter().map(|s| s.derived).sum::<u64>(),
            stats.derived
        );
        assert_eq!(stats.round_fresh.len(), stats.rounds);
        assert_eq!(stats.round_fresh.iter().sum::<u64>(), stats.derived);
        assert!(stats.elapsed_ns > 0, "enabled observers are timed");
        assert_eq!(stats.nulls_interned, 0);
        // Store counters cover source inserts plus every committed
        // derivation; the fixpoint chase never tombstones or compacts.
        assert_eq!(
            stats.store.inserts,
            stats.source_facts + stats.derived,
            "every committed fact is one store insert"
        );
        assert_eq!(stats.store.tombstones, 0);
        assert_eq!(stats.store.compactions, 0);
    }

    #[test]
    fn budget_exhaustion_reports_partial_stats() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "exists f . T(x) -> T(f(x))").unwrap();
        let t = syms.rel("T");
        let v = consts(&mut syms, &["a"]);
        let source = Instance::from_facts([Fact::new(t, vec![v[0]])]);
        let plan = ChasePlan {
            guaranteed_terminating: false,
            step_budget: Some(5),
            ..ChasePlan::trusting(1)
        };
        let mut nulls = NullFactory::new();
        let mut stats = ChaseStats::new();
        let err = chase_fixpoint_with(&source, &[tgd], &plan, &mut nulls, &mut stats).unwrap_err();
        let FixpointError::BudgetExhausted { progress, .. } = err else {
            panic!("expected budget exhaustion");
        };
        assert_eq!(stats.outcome, "budget-exhausted");
        assert_eq!(stats.derived as usize, progress.derived);
        assert_eq!(stats.rounds, progress.rounds);
        assert_eq!(progress.derived, 6);
        // The cut-off statement's partial counters were flushed.
        assert_eq!(
            stats.statements.iter().map(|s| s.derived).sum::<u64>(),
            stats.derived
        );
        assert!(stats.nulls_interned >= 1);
    }
}
