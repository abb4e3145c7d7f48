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
//!
//! [`chase_fixpoint_delta_parallel`] additionally shards each statement's
//! match phase: `Matcher::delta_root` plans the root candidate list once,
//! the engine cuts it into contiguous chunks
//! ([`ChaseConfig::effective_shards`], `NDL_CHASE_SHARDS`), scoped worker
//! threads enumerate the chunks concurrently (read-only, like
//! [`crate::parallel`]'s match phase), and chunk results are concatenated
//! in chunk order — reproducing the sequential enumeration exactly —
//! before resolution replays sequentially in plan order. The plan's stage
//! schedule is still verified as a certificate, and statements of a stage
//! are still matched against the same round-start index.

use crate::config::ChaseConfig;
use crate::fixpoint::{probe_term, resolve_value, FixpointChase, FixpointError, FixpointProgress};
use crate::null::NullFactory;
use crate::parallel::{derive_schedule, verify_schedule};
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

/// One contiguous chunk of one clause's root-candidate list: the unit of
/// work the sharded match phase hands to a worker.
struct ShardTask<'i> {
    /// Position of the owning statement within its stage.
    pos: usize,
    /// Clause index within the statement.
    clause: usize,
    /// Chunk order within the clause (concatenation key).
    chunk: usize,
    /// The root atom index planned by [`Matcher::delta_root`].
    root: usize,
    /// The chunk of the planner's candidate slice.
    ids: &'i [TupleId],
}

/// Fired bindings of one clause, packed: row `r` holds the values of the
/// body's variables in `VarId` order, `vals[r * width .. (r + 1) * width]`
/// for the clause's variable count `width` (0 for an empty body, whose
/// rows are counted but hold nothing).
#[derive(Default)]
struct FiredRows {
    rows: usize,
    vals: Vec<Value>,
}

impl FiredRows {
    fn append(&mut self, other: FiredRows) {
        self.rows += other.rows;
        self.vals.extend(other.vals);
    }
}

/// What one worker learned from one chunk.
struct ChunkOut {
    examined: u64,
    fired: u64,
    touched: u64,
    elapsed_ns: u64,
    /// The fired bindings.
    fired_rows: FiredRows,
}

/// Everything the sharded match phase learned about one statement in one
/// round, chunk results already concatenated back into sequential order.
struct DeltaStmtMatched {
    examined: u64,
    fired: u64,
    elapsed_ns: u64,
    /// Per clause: fired bindings, in sequential delta order.
    clauses: Vec<FiredRows>,
    /// Candidate tuples iterated, by shard index (chunk `c` of every
    /// clause adds to entry `c`) — the shard-balance statistic. Length 1
    /// means the statement was not actually sharded.
    shard_touched: Vec<u64>,
}

impl DeltaStmtMatched {
    fn new(clauses: usize) -> DeltaStmtMatched {
        DeltaStmtMatched {
            examined: 0,
            fired: 0,
            elapsed_ns: 0,
            clauses: (0..clauses).map(|_| FiredRows::default()).collect(),
            shard_touched: Vec::new(),
        }
    }

    fn touched(&self) -> u64 {
        self.shard_touched.iter().sum()
    }

    fn add_shard_touched(&mut self, chunk: usize, touched: u64) {
        if self.shard_touched.len() <= chunk {
            self.shard_touched.resize(chunk + 1, 0);
        }
        self.shard_touched[chunk] += touched;
    }
}

/// Enumerates one chunk: the delta matches of `clause` whose root atom
/// binds a tuple of `ids`, gated through non-interning probes, fired
/// bindings captured for the replay.
fn run_chunk(
    matcher: &Matcher<'_>,
    clause: &SoClause,
    root: usize,
    ids: &[TupleId],
    nulls: &NullFactory,
    timed: bool,
) -> ChunkOut {
    let t = timed.then(Instant::now);
    let mut out = ChunkOut {
        examined: 0,
        fired: 0,
        touched: 0,
        elapsed_ns: 0,
        fired_rows: FiredRows::default(),
    };
    let _ = matcher.run_delta_root(
        &clause.body,
        &Binding::new(),
        root,
        ids,
        &mut out.touched,
        &mut |binding| {
            out.examined += 1;
            let eq_ok = clause
                .equalities
                .iter()
                .all(|(l, r)| probe_term(l, binding, nulls) == probe_term(r, binding, nulls));
            if eq_ok {
                out.fired += 1;
                out.fired_rows.rows += 1;
                out.fired_rows.vals.extend(binding.values());
            }
            ControlFlow::Continue(())
        },
    );
    if let Some(t) = t {
        out.elapsed_ns = t.elapsed().as_nanos() as u64;
    }
    out
}

/// The sharded delta match phase for one stage: plans every clause's root
/// candidates, cuts them into contiguous chunks, enumerates the chunks
/// across `workers` scoped threads (inline when 1), and concatenates
/// chunk results in chunk order — so every statement's fired-binding
/// stream equals the sequential delta enumeration. Returns the matched
/// statements in stage order plus the worker count used.
fn match_stage_delta(
    index: &TupleIndex,
    tgds: &[SoTgd],
    stage: &[usize],
    nulls: &NullFactory,
    cfg: &ChaseConfig,
    committed: usize,
    timed: bool,
) -> (Vec<DeltaStmtMatched>, usize) {
    let mut out: Vec<DeltaStmtMatched> = stage
        .iter()
        .map(|&si| DeltaStmtMatched::new(tgds[si].clauses.len()))
        .collect();
    let planner = Matcher::over(index);
    let mut tasks: Vec<ShardTask<'_>> = Vec::new();
    for (pos, &si) in stage.iter().enumerate() {
        for (ci, clause) in tgds[si].clauses.iter().enumerate() {
            if clause.body.is_empty() {
                // The empty conjunction is a delta match only in round
                // one (watermark 0); it touches no tuple and needs no
                // worker.
                if index.frontier_start() == 0 {
                    let m = &mut out[pos];
                    m.examined += 1;
                    let empty = Binding::new();
                    let eq_ok = clause
                        .equalities
                        .iter()
                        .all(|(l, r)| probe_term(l, &empty, nulls) == probe_term(r, &empty, nulls));
                    if eq_ok {
                        m.fired += 1;
                        m.clauses[ci].rows += 1;
                    }
                }
                continue;
            }
            let Some((root, ids)) = planner.delta_root(&clause.body, &Binding::new()) else {
                continue; // provably no delta matches for this clause
            };
            let shards = cfg.effective_shards(ids.len());
            let base = ids.len() / shards;
            let rem = ids.len() % shards;
            let mut start = 0;
            for chunk in 0..shards {
                let len = base + usize::from(chunk < rem);
                tasks.push(ShardTask {
                    pos,
                    clause: ci,
                    chunk,
                    root,
                    ids: &ids[start..start + len],
                });
                start += len;
            }
        }
    }

    let workers = cfg.effective_threads(tasks.len(), committed);
    let chunk_outs: Vec<ChunkOut> = if workers <= 1 {
        tasks
            .iter()
            .map(|t| {
                run_chunk(
                    &planner,
                    &tgds[stage[t.pos]].clauses[t.clause],
                    t.root,
                    t.ids,
                    nulls,
                    timed,
                )
            })
            .collect()
    } else {
        let mut slots: Vec<Option<ChunkOut>> = (0..tasks.len()).map(|_| None).collect();
        let tasks = &tasks;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let matcher = Matcher::over(index);
                        let mut mine = Vec::new();
                        let mut i = w;
                        while i < tasks.len() {
                            let t = &tasks[i];
                            mine.push((
                                i,
                                run_chunk(
                                    &matcher,
                                    &tgds[stage[t.pos]].clauses[t.clause],
                                    t.root,
                                    t.ids,
                                    nulls,
                                    timed,
                                ),
                            ));
                            i += workers;
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                for (i, c) in h.join().expect("shard worker panicked") {
                    slots[i] = Some(c);
                }
            }
        });
        slots
            .into_iter()
            .map(|c| c.expect("every chunk is enumerated by exactly one worker"))
            .collect()
    };

    // Tasks were generated in (statement, clause, chunk) order, so a
    // simple in-order append concatenates each clause's chunks back into
    // the sequential delta enumeration.
    for (t, c) in tasks.iter().zip(chunk_outs) {
        let m = &mut out[t.pos];
        m.examined += c.examined;
        m.fired += c.fired;
        m.elapsed_ns += c.elapsed_ns;
        m.add_shard_touched(t.chunk, c.touched);
        m.clauses[t.clause].append(c.fired_rows);
    }
    (out, workers)
}

/// [`chase_fixpoint_delta_parallel_with`] under [`ChaseConfig::default`]
/// and the no-op observer. Library convenience: never consults the
/// environment — front ends that want `NDL_CHASE_*` overrides resolve
/// [`ChaseConfig::from_env`] at their own boundary and call the `_with`
/// entry point.
///
/// # Panics
/// Panics if `source` is not ground (nulls created *during* the chase are
/// fine — they are resolved through `nulls`).
pub fn chase_fixpoint_delta_parallel(
    source: &Instance,
    tgds: &[SoTgd],
    plan: &ChasePlan,
    nulls: &mut NullFactory,
) -> std::result::Result<FixpointChase, FixpointError> {
    chase_fixpoint_delta_parallel_with(
        source,
        tgds,
        plan,
        nulls,
        &ChaseConfig::default(),
        &mut NoopObserver,
    )
}

/// The sharded, stage-parallel semi-naive chase: delta matching as in
/// [`chase_fixpoint_delta_with`], with each statement's root-candidate
/// scan cut into contiguous chunks enumerated on scoped worker threads,
/// and resolution replayed sequentially in plan order — bit-identical to
/// [`crate::fixpoint::chase_fixpoint`] (see the module docs).
///
/// Uses [`ChasePlan::schedule`] when present, else derives one with
/// [`derive_schedule`]; either way the schedule is verified against the
/// program first ([`FixpointError::InvalidSchedule`]). Emits
/// [`ChaseObserver::round_delta`] per round,
/// [`ChaseObserver::statement_shards`] for statements whose match phase
/// actually split, and [`ChaseObserver::stage_end`] per stage.
///
/// As with [`crate::parallel`], statistics on a budget-cutoff round can
/// exceed the sequential engine's (the match phase enumerates every delta
/// trigger before resolution replays them); progress, derived counts,
/// rounds and interned nulls are identical even on cutoff.
///
/// `cfg` is the explicit per-call tuning configuration (thread cap, shard
/// count, sequential cutoff) — engines never read a process-wide global,
/// so two calls in the same process with different configurations both
/// take effect (required by long-lived hosts like `ndl-serve`).
pub fn chase_fixpoint_delta_parallel_with<O: ChaseObserver>(
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
    // Dataflow certificate: checked after the schedule and against the
    // *original* stages; verified-dead statements are then filtered out.
    // A stage emptied by the filter is skipped outright (no `stage_end`),
    // but surviving stages keep their original indices.
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

    let live = (0..tgds.len()).filter(|si| !dead.contains(si));
    let mut index = TupleIndex::from_instance_probing(source, live_probes(tgds, live));
    let mut committed = source.len();

    // As in the sequential delta engine: the frontier is only meaningful
    // while ids stay stable, so pin the compaction epoch for the run.
    let epoch = index.epoch();
    let mut rounds = 0usize;
    let mut derived = 0usize;
    let mut fresh = Staging::with_capacity(source.len());
    let mut head_buf: Vec<Value> = Vec::new();
    let mut binding = Binding::new();
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
            // Phase 1 — concurrent, read-only: the sharded delta match.
            let (matched, workers) =
                match_stage_delta(&index, tgds, stage, nulls, cfg, committed, O::ENABLED);
            // Phase 2 — sequential resolution replay, in firing order
            // (chunk concatenation already restored the sequential delta
            // order within each clause).
            let mut stage_writes: Vec<BTreeSet<RelId>> = Vec::new();
            for (pos, &si) in stage.iter().enumerate() {
                let m = &matched[pos];
                if m.shard_touched.len() > 1 {
                    obs.statement_shards(rounds, si, &m.shard_touched);
                }
                let mut sr = StmtRound {
                    round: rounds,
                    stmt: si,
                    examined: m.examined,
                    fired: m.fired,
                    touched: m.touched(),
                    ..StmtRound::default()
                };
                let stmt_t = O::ENABLED.then(Instant::now);
                let nulls_before = nulls.len();
                let mut written: BTreeSet<RelId> = BTreeSet::new();
                let mut budget_hit = false;
                'stmt: for (ci, clause) in tgds[si].clauses.iter().enumerate() {
                    let mut vars: Vec<VarId> = clause
                        .body
                        .iter()
                        .flat_map(|a| a.args.iter().copied())
                        .collect();
                    vars.sort_unstable();
                    vars.dedup();
                    let fired = &m.clauses[ci];
                    binding.clear();
                    for r in 0..fired.rows {
                        // Every row binds the same variables, so each
                        // overwrites the previous one's slots.
                        let vals = &fired.vals[r * vars.len()..(r + 1) * vars.len()];
                        binding.extend(vars.iter().copied().zip(vals.iter().copied()));
                        for ta in &clause.head {
                            head_buf.clear();
                            for t in &ta.args {
                                head_buf.push(resolve_value(t, &binding, nulls));
                            }
                            if fresh.stage(&index, ta.rel, &head_buf) {
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

        index.mark_frontier();
        let added = fresh.commit(&mut index);
        derived += added as usize;
        committed += added as usize;
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
    fn delta_parallel_is_bit_identical_and_shards() {
        // Enough root candidates to shard (cutoff 1 forced via a local
        // config is not possible — the global config may already be set —
        // so rely on the default: with few facts the engine runs
        // single-shard, which must still be bit-identical).
        let mut syms = SymbolTable::new();
        let tgds = vec![
            parse_so_tgd(&mut syms, "exists f . S(x) -> T(x,f(x))").unwrap(),
            parse_so_tgd(&mut syms, "T(x,y) -> U(y)").unwrap(),
            parse_so_tgd(&mut syms, "E(x,y) & E(y,z) -> E(x,z)").unwrap(),
        ];
        let s = syms.rel("S");
        let (_, mut source) = tc_source(&mut syms, 6);
        let v = consts(&mut syms, &["a", "b"]);
        for &c in &v {
            source.insert(Fact::new(s, vec![c]));
        }
        let plan = ChasePlan::trusting(3);
        let mut n1 = NullFactory::new();
        let mut n2 = NullFactory::new();
        let naive = chase_fixpoint(&source, &tgds, &plan, &mut n1);
        let par = chase_fixpoint_delta_parallel(&source, &tgds, &plan, &mut n2);
        assert_same(&naive, &par);
        assert_eq!(n1.len(), n2.len());
    }

    #[test]
    fn certified_dead_skipping_is_bit_identical_across_all_engines() {
        // S is populated; Z is not and nothing writes it, so Z->W is
        // provably dead. The certified plan must produce exactly the
        // uncertified output on all four engines — and the stats must
        // show the skips.
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
        let engines: [Engine; 4] = [
            chase_fixpoint,
            crate::parallel::chase_fixpoint_parallel,
            chase_fixpoint_delta,
            chase_fixpoint_delta_parallel,
        ];
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
    fn invalid_cert_is_rejected_by_all_engines() {
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
                crate::parallel::chase_fixpoint_parallel(&source, &tgds, &plan, &mut n)
                    .unwrap_err(),
                chase_fixpoint_delta(&source, &tgds, &plan, &mut n).unwrap_err(),
                chase_fixpoint_delta_parallel(&source, &tgds, &plan, &mut n).unwrap_err(),
            ] {
                assert!(matches!(err, FixpointError::InvalidCert { .. }), "{err}");
            }
            assert_eq!(n.len(), 0, "no null may be interned before rejection");
        }
    }

    #[test]
    fn empty_body_statement_fires_once_under_delta() {
        // A bodiless clause (a fact-producing statement) matches exactly
        // once, in round one — the delta engines must not re-fire or drop
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
        let mut n3 = NullFactory::new();
        let naive = chase_fixpoint(&source, &tgds, &plan, &mut n1);
        let delta = chase_fixpoint_delta(&source, &tgds, &plan, &mut n2);
        let par = chase_fixpoint_delta_parallel(&source, &tgds, &plan, &mut n3);
        assert_same(&naive, &delta);
        assert_same(&naive, &par);
    }
}
