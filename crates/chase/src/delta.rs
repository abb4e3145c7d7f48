//! Semi-naive (delta) fixpoint chase: each round matches only triggers
//! that bind at least one tuple committed by the *previous* round, instead
//! of rescanning the whole instance — while staying **bit-identical** to
//! the naive engine in [`crate::fixpoint`] (same `NullId`s, same rounds,
//! same derived counts, same budget-cutoff point).
//!
//! Classic semi-naive evaluation rewrites each rule into per-atom delta
//! rules, which permutes the match order — and with Skolem functions in
//! heads, match order *is* null-interning order, so the rewrite would
//! break bit-identity. This engine instead keeps the naive engine's exact
//! recursive join and prunes inside it
//! ([`Matcher::try_for_each_delta_match`]): the enumeration it produces is
//! precisely the delta-touching *subsequence* of the naive enumeration, in
//! naive order. Identity then follows from two facts:
//!
//! 1. **Skipped matches derive nothing.** A match whose atoms all bind
//!    below the frontier watermark was enumerated (with the same binding)
//!    in an earlier round: equality gates are decided by non-interning
//!    probes whose *equality* is independent of factory state, so it fired
//!    then iff it would fire now, and firing it again only re-resolves
//!    heads to already-interned nulls and already-committed facts.
//! 2. **The frontier is a `FactId` suffix.** The chase never retracts, so
//!    the store's watermark ([`TupleIndex::mark_frontier`], taken just
//!    before each round's commit) splits every posting list into an
//!    old prefix and a delta suffix — frontier membership is one integer
//!    compare, and frontier suffixes are found by binary search, never by
//!    rescanning.
//!
//! Consequently each round's fresh-fact stream — and hence null interning,
//! budget cutoffs, round counts and the final instance — is identical to
//! the naive engine's; only the *statistics* differ (`triggers_examined`
//! drops to the delta matches, and [`StmtRound::touched`] counts the
//! candidate tuples the pruned join actually iterated).

use crate::fixpoint::{probe_term, resolve_value, FixpointChase, FixpointError, FixpointProgress};
use crate::null::NullFactory;
use crate::plan::ChasePlan;
use crate::trigger::{probe_set, Binding, Matcher};
use ndl_core::prelude::*;
use ndl_obs::{ChaseObserver, NoopObserver, StmtRound};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::time::Instant;

/// [`chase_fixpoint_delta_with`] under the no-op observer.
///
/// Produces output bit-identical to [`crate::fixpoint::chase_fixpoint`]:
/// same instance (same `NullId`s), same rounds, same derived count, same
/// refusal and budget behavior.
///
/// # Panics
/// Panics if `source` is not ground (nulls created *during* the chase are
/// fine — they are resolved through `nulls`).
pub fn chase_fixpoint_delta(
    source: &Instance,
    tgds: &[SoTgd],
    plan: &ChasePlan,
    nulls: &mut NullFactory,
) -> std::result::Result<FixpointChase, FixpointError> {
    chase_fixpoint_delta_with(source, tgds, plan, nulls, &mut NoopObserver)
}

/// The semi-naive counterpart of
/// [`crate::fixpoint::chase_fixpoint_with`]: same refusal and budget
/// semantics and the same observer events, plus one
/// [`ChaseObserver::round_delta`] per round reporting the frontier size.
/// [`StmtRound::examined`] counts only the delta matches enumerated and
/// [`StmtRound::touched`] the candidate tuples the pruned join iterated —
/// an empty frontier costs a few binary searches per statement, not a
/// rescan.
pub fn chase_fixpoint_delta_with<O: ChaseObserver>(
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
    // Dataflow certificate: re-verified before it is believed (see
    // `crate::cert`); verified-dead statements are skipped each round.
    let mut dead = BTreeSet::new();
    if let Some(cert) = &plan.cert {
        if let Err(e) = crate::cert::verify_dataflow_cert(source, tgds, cert) {
            obs.chase_end(0, 0, "refused");
            return Err(e);
        }
        obs.dataflow_cert(cert.dead.len(), cert.ground.len());
        dead = cert.dead.clone();
    }
    // Dense skip mask: probed once per statement per round, so it must be
    // O(1) — a dead-heavy program would otherwise spend its savings on
    // `BTreeSet` lookups.
    let dead_mask: Vec<bool> = (0..tgds.len()).map(|i| dead.contains(&i)).collect();

    // Same growing state as the naive engine, started at the source's
    // size, with posting lists only where a live body can probe. The
    // watermark starts at 0, so round one is the full enumeration —
    // exactly the naive engine's round one.
    let live = (0..tgds.len()).filter(|&si| !dead_mask[si]);
    let mut index = TupleIndex::from_instance_probing(source, live_probes(tgds, live));

    let order = plan.firing_order(tgds.len());
    // The frontier watermark is only meaningful while ids stay stable:
    // snapshot the compaction epoch and re-check it every round (see
    // `FactStore::compact`'s contract — nothing may compact this index
    // while the delta chase is in flight).
    let epoch = index.epoch();
    let mut rounds = 0usize;
    let mut derived = 0usize;
    let mut fresh = Staging::with_capacity(source.len());
    let mut head_buf: Vec<Value> = Vec::new();
    loop {
        rounds += 1;
        index.store().assert_epoch(epoch);
        obs.round_start(rounds);
        obs.round_delta(
            rounds,
            (index.store().rows() - index.frontier_start() as usize) as u64,
        );
        let round_t = O::ENABLED.then(Instant::now);
        fresh.clear();
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
                // The stream below is the delta-touching subsequence of
                // the naive engine's stream for this clause, in the same
                // order — so the fresh-fact insertions (and the budget
                // check they drive) happen in the naive order too.
                let flow = matcher.try_for_each_delta_match(
                    &clause.body,
                    &Binding::new(),
                    &mut sr.touched,
                    |binding| {
                        sr.examined += 1;
                        let eq_ok = clause.equalities.iter().all(|(l, r)| {
                            probe_term(l, binding, nulls) == probe_term(r, binding, nulls)
                        });
                        if !eq_ok {
                            return ControlFlow::Continue(());
                        }
                        sr.fired += 1;
                        for ta in &clause.head {
                            head_buf.clear();
                            for t in &ta.args {
                                head_buf.push(resolve_value(t, binding, nulls));
                            }
                            if fresh.stage(&index, ta.rel, &head_buf) {
                                sr.derived += 1;
                                if let Some(budget) = plan.step_budget {
                                    if derived + fresh.len() > budget {
                                        budget_hit = true;
                                        return ControlFlow::Break(());
                                    }
                                }
                            } else {
                                sr.dedup_hits += 1;
                            }
                        }
                        ControlFlow::Continue(())
                    },
                );
                debug_assert_eq!(flow.is_break(), budget_hit);
                if budget_hit {
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

        // Advance the watermark *before* committing: everything this
        // round derived becomes the next round's frontier, everything
        // older falls below it.
        index.mark_frontier();
        let added = fresh.commit(&mut index);
        derived += added as usize;
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

/// The probe set of the clause bodies of statements `live`: the only
/// `(rel, pos)` pairs the delta join probes (see [`probe_set`]).
fn live_probes(tgds: &[SoTgd], live: impl Iterator<Item = usize>) -> ProbeSet {
    probe_set(live.flat_map(|si| tgds[si].clauses.iter().map(|c| c.body.as_slice())))
}

/// One round's fresh facts, staged apart from the index until the round
/// commits, each with the [`FactStore::tuple_hash`] it was derived under:
/// a derived fact is hashed once, and that hash serves the index probe,
/// the staging insert and the commit.
struct Staging {
    facts: FactStore,
    /// `FactId` of `facts` → the fact's tuple hash.
    hashes: Vec<u32>,
}

impl Staging {
    /// A staging area sized for `facts` fresh facts a round; it keeps its
    /// allocations from round to round.
    fn with_capacity(facts: usize) -> Self {
        Staging {
            facts: FactStore::with_capacity(facts),
            hashes: Vec::with_capacity(facts),
        }
    }

    fn clear(&mut self) {
        self.facts.clear();
        self.hashes.clear();
    }

    fn len(&self) -> usize {
        self.facts.len()
    }

    /// Stages `rel(args)` unless the index or this round already holds
    /// it; returns whether it was staged.
    #[inline]
    fn stage(&mut self, index: &TupleIndex, rel: RelId, args: &[Value]) -> bool {
        let hash = FactStore::tuple_hash(rel, args);
        if index.contains_hashed(rel, args, hash) {
            return false;
        }
        let fresh = matches!(
            self.facts.insert_hashed(rel, args, hash),
            Inserted::Fresh(_)
        );
        if fresh {
            self.hashes.push(hash);
        }
        fresh
    }

    /// Commits the staged facts to the index in sorted `(rel, tuple)`
    /// order — the order the naive engine commits its `BTreeSet<Fact>` in,
    /// so `FactId`s are assigned identically — after reserving room for
    /// all of them. Returns the number of facts added.
    fn commit(&self, index: &mut TupleIndex) -> u64 {
        index.reserve(self.len());
        let mut added = 0u64;
        for id in self.facts.sorted_ids() {
            let (rel, args) = (self.facts.rel_of(id), self.facts.tuple(id));
            if index.insert_hashed(rel, args, self.hashes[id.index()]) {
                added += 1;
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::chase_fixpoint;
    use ndl_obs::ChaseStats;

    fn consts(syms: &mut SymbolTable, names: &[&str]) -> Vec<Value> {
        names
            .iter()
            .map(|n| Value::Const(syms.constant(n)))
            .collect()
    }

    /// Chain of `n` edges for transitive closure.
    fn tc_source(syms: &mut SymbolTable, n: usize) -> (RelId, Instance) {
        let e = syms.rel("E");
        let vals: Vec<Value> = (0..=n)
            .map(|i| Value::Const(syms.constant(&format!("v{i}"))))
            .collect();
        let source = Instance::from_facts((0..n).map(|i| Fact::new(e, vec![vals[i], vals[i + 1]])));
        (e, source)
    }

    fn assert_same(
        a: &std::result::Result<FixpointChase, FixpointError>,
        b: &std::result::Result<FixpointChase, FixpointError>,
    ) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.instance, y.instance);
                assert_eq!(x.rounds, y.rounds);
                assert_eq!(x.derived, y.derived);
            }
            (
                Err(FixpointError::BudgetExhausted { progress: p, .. }),
                Err(FixpointError::BudgetExhausted { progress: q, .. }),
            ) => assert_eq!(p, q),
            (x, y) => panic!("engines disagree: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn delta_tc_is_bit_identical_to_naive() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap();
        let (_, source) = tc_source(&mut syms, 8);
        let plan = ChasePlan::trusting(1);
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let naive = chase_fixpoint(&source, std::slice::from_ref(&tgd), &plan, &mut n1);
        let delta = chase_fixpoint_delta(&source, std::slice::from_ref(&tgd), &plan, &mut n2);
        assert_same(&naive, &delta);
        assert_eq!(n1.len(), n2.len());
    }

    #[test]
    fn delta_skolem_program_interns_identical_nulls() {
        let mut syms = SymbolTable::new();
        let tgds = vec![
            parse_so_tgd(&mut syms, "exists f . S(x) -> T(x,f(x))").unwrap(),
            parse_so_tgd(&mut syms, "T(x,y) -> U(y)").unwrap(),
        ];
        let s = syms.rel("S");
        let v = consts(&mut syms, &["a", "b", "c"]);
        let source = Instance::from_facts(v.iter().map(|&c| Fact::new(s, vec![c])));
        let plan = ChasePlan::trusting(2);
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let naive = chase_fixpoint(&source, &tgds, &plan, &mut n1).unwrap();
        let delta = chase_fixpoint_delta(&source, &tgds, &plan, &mut n2).unwrap();
        // Instance equality compares NullIds directly — interning order
        // must match, not just structure.
        assert_eq!(naive.instance, delta.instance);
        assert_eq!(n1.len(), n2.len());
        assert_eq!(n1.len(), 3);
    }

    #[test]
    fn delta_budget_cutoff_matches_naive_progress() {
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "exists f . T(x) -> T(f(x))").unwrap();
        let t = syms.rel("T");
        let v = consts(&mut syms, &["a"]);
        let source = Instance::from_facts([Fact::new(t, vec![v[0]])]);
        let plan = ChasePlan {
            guaranteed_terminating: false,
            step_budget: Some(7),
            ..ChasePlan::trusting(1)
        };
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let naive = chase_fixpoint(&source, std::slice::from_ref(&tgd), &plan, &mut n1);
        let delta = chase_fixpoint_delta(&source, std::slice::from_ref(&tgd), &plan, &mut n2);
        assert_same(&naive, &delta);
        assert_eq!(n1.len(), n2.len());
    }

    #[test]
    fn delta_refuses_like_naive() {
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
        let err = chase_fixpoint_delta(&source, &[tgd], &plan, &mut nulls).unwrap_err();
        assert!(matches!(err, FixpointError::NonTerminating { .. }));
    }

    #[test]
    fn later_rounds_examine_only_delta_matches() {
        // TC of an 8-chain: the naive engine re-examines every E×E pair
        // each round; the delta engine's examined counts must be strictly
        // smaller in total, and its final (empty) round must touch only
        // frontier-reachable candidates — not rescan the instance.
        let mut syms = SymbolTable::new();
        let tgd = parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap();
        let (_, source) = tc_source(&mut syms, 8);
        let plan = ChasePlan::trusting(1);

        let mut n1 = NullFactory::new();
        let mut naive_stats = ChaseStats::new();
        let naive = crate::fixpoint::chase_fixpoint_with(
            &source,
            std::slice::from_ref(&tgd),
            &plan,
            &mut n1,
            &mut naive_stats,
        )
        .unwrap();
        let mut n2 = NullFactory::new();
        let mut delta_stats = ChaseStats::new();
        let delta = chase_fixpoint_delta_with(
            &source,
            std::slice::from_ref(&tgd),
            &plan,
            &mut n2,
            &mut delta_stats,
        )
        .unwrap();
        assert_eq!(naive.instance, delta.instance);
        assert_eq!(naive.rounds, delta.rounds);
        assert!(
            delta_stats.triggers_examined < naive_stats.triggers_examined,
            "delta {} !< naive {}",
            delta_stats.triggers_examined,
            naive_stats.triggers_examined
        );
        // Every round's frontier was reported; round one is the source.
        assert_eq!(delta_stats.round_delta.len(), delta.rounds);
        assert_eq!(delta_stats.round_delta[0] as usize, source.len());
        // The final round's frontier is the previous round's commit.
        assert_eq!(
            delta_stats.round_delta[delta.rounds - 1],
            delta_stats.round_fresh[delta.rounds - 2]
        );
    }

    #[test]
    fn certified_dead_skipping_is_bit_identical_across_engines() {
        // S is populated; Z is not and nothing writes it, so Z->W is
        // provably dead. The certified plan must produce exactly the
        // uncertified output on both engines — and the stats must show the
        // skips.
        let mut syms = SymbolTable::new();
        let tgds = vec![
            parse_so_tgd(&mut syms, "exists f . S(x) -> T(x,f(x))").unwrap(),
            parse_so_tgd(&mut syms, "Z(x) -> W(x)").unwrap(),
            parse_so_tgd(&mut syms, "T(x,y) -> U(y)").unwrap(),
        ];
        let s = syms.rel("S");
        let z = syms.rel("Z");
        let v = consts(&mut syms, &["a", "b"]);
        let source = Instance::from_facts(v.iter().map(|&c| Fact::new(s, vec![c])));
        let plain = ChasePlan::trusting(3);
        let certified = ChasePlan {
            cert: Some(crate::cert::DataflowCert {
                dead: BTreeSet::from([1]),
                ground: BTreeSet::from([s, z]),
            }),
            ..ChasePlan::trusting(3)
        };
        let mut n0 = NullFactory::new();
        let baseline = chase_fixpoint(&source, &tgds, &plain, &mut n0);
        type Engine = fn(
            &Instance,
            &[SoTgd],
            &ChasePlan,
            &mut NullFactory,
        ) -> std::result::Result<FixpointChase, FixpointError>;
        let engines: [Engine; 2] = [chase_fixpoint, chase_fixpoint_delta];
        for run in engines {
            let mut n = NullFactory::new();
            let out = run(&source, &tgds, &certified, &mut n);
            assert_same(&baseline, &out);
            assert_eq!(n.len(), n0.len());
        }
        // The stats observer sees the certificate and one skip per round.
        let mut stats = ChaseStats::new();
        let mut n = NullFactory::new();
        let out =
            chase_fixpoint_delta_with(&source, &tgds, &certified, &mut n, &mut stats).unwrap();
        assert_eq!(stats.dead_statements, 1);
        assert_eq!(stats.ground_relations, 2);
        assert_eq!(stats.skipped_firings as usize, out.rounds);
    }

    #[test]
    fn invalid_cert_is_rejected_by_both_engines() {
        let mut syms = SymbolTable::new();
        let tgds = vec![parse_so_tgd(&mut syms, "exists f . S(x) -> T(x,f(x))").unwrap()];
        let s = syms.rel("S");
        let t = syms.rel("T");
        let v = consts(&mut syms, &["a"]);
        let source = Instance::from_facts([Fact::new(s, vec![v[0]])]);
        // The lone statement fires, and T holds nulls: both claims lie.
        for cert in [
            crate::cert::DataflowCert {
                dead: BTreeSet::from([0]),
                ground: BTreeSet::new(),
            },
            crate::cert::DataflowCert {
                dead: BTreeSet::new(),
                ground: BTreeSet::from([t]),
            },
        ] {
            let plan = ChasePlan {
                cert: Some(cert),
                ..ChasePlan::trusting(1)
            };
            let mut n = NullFactory::new();
            for err in [
                chase_fixpoint(&source, &tgds, &plan, &mut n).unwrap_err(),
                chase_fixpoint_delta(&source, &tgds, &plan, &mut n).unwrap_err(),
            ] {
                assert!(matches!(err, FixpointError::InvalidCert { .. }), "{err}");
            }
            assert_eq!(n.len(), 0, "no null may be interned before rejection");
        }
    }

    #[test]
    fn empty_body_statement_fires_once_under_delta() {
        // A bodiless clause (a fact-producing statement) matches exactly
        // once, in round one — the delta engine must not re-fire or drop
        // it.
        let mut syms = SymbolTable::new();
        // The parser requires a body, so the bodiless statement
        // `exists c . -> P(c())` is built directly.
        let p = syms.rel("P");
        let c = syms.func("c");
        let bodiless = SoTgd::new(
            vec![c],
            vec![SoClause::new(
                Vec::new(),
                Vec::new(),
                vec![TermAtom::new(p, vec![Term::App(c, Vec::new())])],
            )],
        );
        let tgds = vec![bodiless, parse_so_tgd(&mut syms, "P(x) -> Q(x)").unwrap()];
        let source = Instance::new();
        let plan = ChasePlan::trusting(2);
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let naive = chase_fixpoint(&source, &tgds, &plan, &mut n1);
        let delta = chase_fixpoint_delta(&source, &tgds, &plan, &mut n2);
        assert_same(&naive, &delta);
        assert_eq!(n1.len(), n2.len());
    }
}
