//! Oblivious fixpoint chase for (recursive) SO-tgd programs.
//!
//! Unlike the single-pass engines in `ndl_chase`'s `so` and `nested` —
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

use super::index::TupleIndex;
use super::trigger::{Binding, Matcher};
use ndl_chase::{ChasePlan, NullFactory};
use ndl_core::btree::BTreeInstance as Instance;
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

    let mut instance = source.clone();
    // The trigger index starts at the source's size and grows by amortized
    // doubling instead of being rebuilt per round.
    let mut index = TupleIndex::with_capacity(source.len(), source.len() * 2);
    for f in instance.facts() {
        index.insert(f.rel, f.args);
    }

    let order = plan.firing_order(tgds.len());
    let mut rounds = 0usize;
    let mut derived = 0usize;
    loop {
        rounds += 1;
        obs.round_start(rounds);
        let round_t = O::ENABLED.then(Instant::now);
        // Fresh facts of this round, deduplicated against the instance and
        // each other as they are produced, so the budget bounds the *work*
        // of a round — one wide join must not materialize millions of
        // facts before an after-the-fact check sees them.
        let mut fresh: std::collections::BTreeSet<Fact> = std::collections::BTreeSet::new();
        let matcher = Matcher::from_index(&instance, index);
        for &si in &order {
            let mut sr = StmtRound {
                round: rounds,
                stmt: si,
                ..StmtRound::default()
            };
            let stmt_t = O::ENABLED.then(Instant::now);
            let nulls_before = nulls.len();
            for clause in &tgds[si].clauses {
                for binding in matcher.all_matches(&clause.body, &Binding::new()) {
                    sr.examined += 1;
                    // Equalities gate the clause and must be side-effect
                    // free: they are evaluated through non-interning probes
                    // so a failing equality never allocates Skolem nulls
                    // for a clause that does not fire.
                    let eq_ok = clause.equalities.iter().all(|(l, r)| {
                        probe_term(l, &binding, nulls) == probe_term(r, &binding, nulls)
                    });
                    if !eq_ok {
                        continue;
                    }
                    sr.fired += 1;
                    for ta in &clause.head {
                        let args: Vec<Value> = ta
                            .args
                            .iter()
                            .map(|t| resolve_value(t, &binding, nulls))
                            .collect();
                        let fact = Fact::new(ta.rel, args);
                        if !instance.contains(&fact) && fresh.insert(fact) {
                            sr.derived += 1;
                            if let Some(budget) = plan.step_budget {
                                if derived + fresh.len() > budget {
                                    // Keep the partial aggregates: flush the
                                    // cut-off statement's counters and close
                                    // the run before erroring out.
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
                                    obs.chase_end(rounds, cut as u64, "budget-exhausted");
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
                        } else {
                            sr.dedup_hits += 1;
                        }
                    }
                }
            }
            sr.nulls_interned = (nulls.len() - nulls_before) as u64;
            if let Some(t) = stmt_t {
                sr.elapsed_ns = t.elapsed().as_nanos() as u64;
            }
            obs.statement(&sr);
        }
        index = matcher.into_index();

        let mut added = 0u64;
        for f in fresh {
            if index.insert(f.rel, f.args.clone()) {
                instance.insert(f);
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
    obs.chase_end(rounds, derived as u64, "fixpoint");
    Ok(FixpointChase {
        instance,
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
fn resolve_value(t: &Term, binding: &Binding, nulls: &mut NullFactory) -> Value {
    match t {
        Term::Var(v) => *binding
            .get(v)
            .expect("unbound variable while grounding term"),
        Term::App(f, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| resolve_value(a, binding, nulls))
                .collect();
            Value::Null(nulls.null_for_app(*f, vals))
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
enum ProbeTerm {
    /// A constant, or an application already interned as a null.
    Value(Value),
    /// An application not (yet) interned.
    App(FuncId, Vec<ProbeTerm>),
}

fn probe_term(t: &Term, binding: &Binding, nulls: &NullFactory) -> ProbeTerm {
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
