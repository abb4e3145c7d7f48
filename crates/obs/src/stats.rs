//! Counter aggregates: per-statement chase stats, atomic hom/core search
//! stats, and the combined [`Stats`] bundle with JSON rendering.

use crate::observer::{ChaseObserver, HomObserver, StmtRound};
use ndl_core::store::StoreCounters;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Whole-run totals for one chase statement (summed over all rounds).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StmtStats {
    /// Statement index (position in the engine's tgd list).
    pub stmt: usize,
    /// Trigger bindings enumerated.
    pub examined: u64,
    /// Triggers that passed their equality gates.
    pub fired: u64,
    /// Fresh facts derived.
    pub derived: u64,
    /// Head facts that were already present.
    pub dedup_hits: u64,
    /// Labeled nulls interned while firing this statement.
    pub nulls_interned: u64,
    /// Candidate tuples iterated by the semi-naive join (0 under the
    /// naive engines).
    pub touched: u64,
    /// Always 0: the chase no longer splits a statement's match phase
    /// into shards. The key stays so the `--stats` schema does not move.
    pub max_shards: usize,
    /// Always 0, like [`Self::max_shards`].
    pub shard_touched_max: u64,
    /// Wall time matching and firing, in nanoseconds (0 when untimed).
    pub elapsed_ns: u64,
}

/// Aggregated counters of one chase run ([`ChaseObserver`] implementation).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ChaseStats {
    /// `"fixpoint"`, `"budget-exhausted"`, `"refused"`, or `""` while the
    /// chase is still running.
    pub outcome: String,
    /// Rounds run (the final, empty round included on a fixpoint).
    pub rounds: usize,
    /// Facts in the source instance.
    pub source_facts: u64,
    /// Facts derived beyond the source (on `"budget-exhausted"`: including
    /// the uncommitted fresh facts of the cut-off round).
    pub derived: u64,
    /// Total trigger bindings enumerated.
    pub triggers_examined: u64,
    /// Total triggers fired.
    pub triggers_fired: u64,
    /// Total dedup hits.
    pub dedup_hits: u64,
    /// Total labeled nulls interned.
    pub nulls_interned: u64,
    /// Statements the plan's verified dataflow certificate declared dead
    /// (0 for plans without a certificate).
    pub dead_statements: u64,
    /// Relations the certificate declared provably null-free.
    pub ground_relations: u64,
    /// Statement firings skipped because the statement was certified dead
    /// (one per dead statement per round).
    pub skipped_firings: u64,
    /// Final counters of the engine's fact store (all zero when the
    /// engine refused to run). Zeroed by [`ChaseStats::redact_timings`]:
    /// like timings, they describe the storage layer rather than the
    /// chase semantics, so golden outputs must not depend on them.
    pub store: StoreCounters,
    /// Total wall time across rounds, in nanoseconds (0 when untimed).
    pub elapsed_ns: u64,
    /// Fresh facts committed per round, in round order.
    pub round_fresh: Vec<u64>,
    /// Delta-frontier size per round, in round order (empty under the
    /// naive engines, which never emit the event).
    pub round_delta: Vec<u64>,
    /// Per-statement totals, indexed by statement.
    pub statements: Vec<StmtStats>,
    /// Always empty: no engine runs a stage schedule any more. The key
    /// stays so the `--stats` schema does not move.
    pub stages: Vec<u64>,
}

impl ChaseStats {
    /// An empty aggregate.
    pub fn new() -> ChaseStats {
        ChaseStats::default()
    }

    /// Zeroes every `elapsed_ns` field and the store counters — used by
    /// golden tests and the `--no-timings` CLI flag, so stats output is
    /// bit-deterministic and independent of the storage layer.
    pub fn redact_timings(&mut self) {
        self.elapsed_ns = 0;
        self.store = StoreCounters::default();
        for s in &mut self.statements {
            s.elapsed_ns = 0;
        }
    }

    /// Pretty JSON rendering (field order is declaration order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("stats serialize infallibly")
    }

    fn stmt_mut(&mut self, stmt: usize) -> &mut StmtStats {
        if self.statements.len() <= stmt {
            self.statements.resize_with(stmt + 1, StmtStats::default);
            for (i, s) in self.statements.iter_mut().enumerate() {
                s.stmt = i;
            }
        }
        &mut self.statements[stmt]
    }
}

impl ChaseObserver for ChaseStats {
    fn chase_start(&mut self, statements: usize, source_facts: usize) {
        self.stmt_mut(statements.saturating_sub(1));
        self.statements.truncate(statements);
        self.source_facts = source_facts as u64;
    }

    fn dataflow_cert(&mut self, dead: usize, ground: usize) {
        self.dead_statements = dead as u64;
        self.ground_relations = ground as u64;
    }

    fn statement_skipped(&mut self, _round: usize, _stmt: usize) {
        self.skipped_firings += 1;
    }

    fn statement(&mut self, sr: &StmtRound) {
        self.triggers_examined += sr.examined;
        self.triggers_fired += sr.fired;
        self.dedup_hits += sr.dedup_hits;
        self.nulls_interned += sr.nulls_interned;
        let s = self.stmt_mut(sr.stmt);
        s.examined += sr.examined;
        s.fired += sr.fired;
        s.derived += sr.derived;
        s.dedup_hits += sr.dedup_hits;
        s.nulls_interned += sr.nulls_interned;
        s.touched += sr.touched;
        s.elapsed_ns += sr.elapsed_ns;
    }

    fn round_delta(&mut self, _round: usize, frontier: u64) {
        self.round_delta.push(frontier);
    }

    fn round_end(&mut self, _round: usize, fresh: u64, elapsed_ns: u64) {
        self.round_fresh.push(fresh);
        self.elapsed_ns += elapsed_ns;
    }

    fn chase_end(&mut self, rounds: usize, derived: u64, outcome: &str) {
        self.rounds = rounds;
        self.derived = derived;
        self.outcome = outcome.to_string();
    }

    fn store(&mut self, counters: &StoreCounters) {
        self.store = *counters;
    }
}

/// Atomic counters of the homomorphism/core engine ([`HomObserver`]
/// implementation) — shared freely across scoped worker threads.
#[derive(Debug, Default)]
pub struct HomStats {
    /// Minimum-remaining-values fact selections.
    pub mrv_decisions: AtomicU64,
    /// Posting-list probes against target indexes.
    pub index_probes: AtomicU64,
    /// Abandoned search branches.
    pub backtracks: AtomicU64,
    /// f-block searches run.
    pub block_searches: AtomicU64,
    /// f-block searches that found a mapping.
    pub blocks_solved: AtomicU64,
    /// Core-engine retraction probes run.
    pub retraction_probes: AtomicU64,
    /// Retraction probes that found a retraction.
    pub retractions: AtomicU64,
    /// Worker threads dispatched across all parallel phases.
    pub threads_dispatched: AtomicU64,
}

/// A plain-value copy of [`HomStats`], for comparison and JSON rendering.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct HomStatsSnapshot {
    /// Minimum-remaining-values fact selections.
    pub mrv_decisions: u64,
    /// Posting-list probes against target indexes.
    pub index_probes: u64,
    /// Abandoned search branches.
    pub backtracks: u64,
    /// f-block searches run.
    pub block_searches: u64,
    /// f-block searches that found a mapping.
    pub blocks_solved: u64,
    /// Core-engine retraction probes run.
    pub retraction_probes: u64,
    /// Retraction probes that found a retraction.
    pub retractions: u64,
    /// Worker threads dispatched across all parallel phases.
    pub threads_dispatched: u64,
}

impl HomStats {
    /// An empty aggregate.
    pub fn new() -> HomStats {
        HomStats::default()
    }

    /// A consistent plain-value copy.
    pub fn snapshot(&self) -> HomStatsSnapshot {
        HomStatsSnapshot {
            mrv_decisions: self.mrv_decisions.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            backtracks: self.backtracks.load(Ordering::Relaxed),
            block_searches: self.block_searches.load(Ordering::Relaxed),
            blocks_solved: self.blocks_solved.load(Ordering::Relaxed),
            retraction_probes: self.retraction_probes.load(Ordering::Relaxed),
            retractions: self.retractions.load(Ordering::Relaxed),
            threads_dispatched: self.threads_dispatched.load(Ordering::Relaxed),
        }
    }

    /// Pretty JSON rendering of a snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("stats serialize infallibly")
    }
}

impl HomObserver for HomStats {
    fn mrv_decision(&self) {
        self.mrv_decisions.fetch_add(1, Ordering::Relaxed);
    }

    fn index_probes(&self, n: u64) {
        self.index_probes.fetch_add(n, Ordering::Relaxed);
    }

    fn backtrack(&self) {
        self.backtracks.fetch_add(1, Ordering::Relaxed);
    }

    fn block_search(&self, _facts: usize, solved: bool) {
        self.block_searches.fetch_add(1, Ordering::Relaxed);
        if solved {
            self.blocks_solved.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn retraction_probe(&self, retracted: bool) {
        self.retraction_probes.fetch_add(1, Ordering::Relaxed);
        if retracted {
            self.retractions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn threads_dispatched(&self, n: usize) {
        self.threads_dispatched
            .fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// The combined aggregate: chase counters plus hom/core search counters.
/// Implements both observer traits, so one `Stats` can watch a whole
/// reasoning pipeline (chase → core → implication checks).
#[derive(Debug, Default)]
pub struct Stats {
    /// The chase side.
    pub chase: ChaseStats,
    /// The homomorphism/core side.
    pub hom: HomStats,
}

impl Stats {
    /// An empty aggregate.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Pretty JSON rendering: `{"chase": ..., "hom": ...}`.
    pub fn to_json(&self) -> String {
        let chase = serde_json::to_value(&self.chase).expect("serializes");
        let hom = serde_json::to_value(&self.hom.snapshot()).expect("serializes");
        serde_json::to_string_pretty(&serde::Value::Object(vec![
            ("chase".to_string(), chase),
            ("hom".to_string(), hom),
        ]))
        .expect("stats serialize infallibly")
    }
}

impl ChaseObserver for Stats {
    fn chase_start(&mut self, statements: usize, source_facts: usize) {
        self.chase.chase_start(statements, source_facts);
    }

    fn dataflow_cert(&mut self, dead: usize, ground: usize) {
        self.chase.dataflow_cert(dead, ground);
    }

    fn statement_skipped(&mut self, round: usize, stmt: usize) {
        self.chase.statement_skipped(round, stmt);
    }

    fn round_start(&mut self, round: usize) {
        self.chase.round_start(round);
    }

    fn round_delta(&mut self, round: usize, frontier: u64) {
        self.chase.round_delta(round, frontier);
    }

    fn statement(&mut self, sr: &StmtRound) {
        self.chase.statement(sr);
    }

    fn round_end(&mut self, round: usize, fresh: u64, elapsed_ns: u64) {
        self.chase.round_end(round, fresh, elapsed_ns);
    }

    fn chase_end(&mut self, rounds: usize, derived: u64, outcome: &str) {
        self.chase.chase_end(rounds, derived, outcome);
    }

    fn store(&mut self, counters: &StoreCounters) {
        self.chase.store(counters);
    }
}

impl HomObserver for Stats {
    fn mrv_decision(&self) {
        self.hom.mrv_decision();
    }

    fn index_probes(&self, n: u64) {
        self.hom.index_probes(n);
    }

    fn backtrack(&self) {
        self.hom.backtrack();
    }

    fn block_search(&self, facts: usize, solved: bool) {
        self.hom.block_search(facts, solved);
    }

    fn retraction_probe(&self, retracted: bool) {
        self.hom.retraction_probe(retracted);
    }

    fn threads_dispatched(&self, n: usize) {
        self.hom.threads_dispatched(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_stats_aggregate_per_statement_and_totals() {
        let mut st = ChaseStats::new();
        st.chase_start(2, 3);
        st.round_start(1);
        st.statement(&StmtRound {
            round: 1,
            stmt: 0,
            examined: 5,
            fired: 4,
            derived: 2,
            dedup_hits: 2,
            nulls_interned: 1,
            touched: 12,
            elapsed_ns: 10,
        });
        st.statement(&StmtRound {
            round: 1,
            stmt: 1,
            examined: 3,
            fired: 3,
            derived: 1,
            dedup_hits: 0,
            nulls_interned: 0,
            touched: 0,
            elapsed_ns: 7,
        });
        st.round_delta(1, 3);
        st.round_end(1, 3, 20);
        st.store(&StoreCounters {
            inserts: 6,
            dedup_hits: 2,
            ..StoreCounters::default()
        });
        st.chase_end(2, 3, "fixpoint");
        assert_eq!(st.triggers_examined, 8);
        assert_eq!(st.triggers_fired, 7);
        assert_eq!(st.derived, 3);
        assert_eq!(st.statements.len(), 2);
        assert_eq!(st.statements[0].derived, 2);
        assert_eq!(st.statements[1].stmt, 1);
        assert_eq!(st.round_fresh, vec![3]);
        assert_eq!(st.round_delta, vec![3]);
        assert_eq!(st.statements[0].touched, 12);
        assert_eq!(st.elapsed_ns, 20);
        assert_eq!(st.outcome, "fixpoint");
        assert_eq!(st.store.inserts, 6);
        // Redaction zeroes all timing fields and the store counters,
        // nothing else.
        let mut redacted = st.clone();
        redacted.redact_timings();
        assert_eq!(redacted.elapsed_ns, 0);
        assert!(redacted.statements.iter().all(|s| s.elapsed_ns == 0));
        assert_eq!(redacted.store, StoreCounters::default());
        assert_eq!(redacted.triggers_examined, st.triggers_examined);
        // JSON is stable and contains the headline counters.
        let json = redacted.to_json();
        assert!(json.contains("\"triggers_examined\": 8"));
        assert!(json.contains("\"outcome\": \"fixpoint\""));
        // The retired shard and stage keys keep their place in the schema.
        assert!(json.contains("\"max_shards\": 0,"));
        assert!(json.contains("\"shard_touched_max\": 0,"));
        assert!(json.contains("\"stages\": []"));
    }

    #[test]
    fn dataflow_cert_and_skips_are_counted() {
        let mut st = ChaseStats::new();
        st.chase_start(3, 1);
        st.dataflow_cert(2, 4);
        st.statement_skipped(1, 0);
        st.statement_skipped(1, 2);
        st.statement_skipped(2, 0);
        assert_eq!(st.dead_statements, 2);
        assert_eq!(st.ground_relations, 4);
        assert_eq!(st.skipped_firings, 3);
        let json = st.to_json();
        assert!(json.contains("\"dead_statements\": 2"));
        assert!(json.contains("\"skipped_firings\": 3"));
    }

    #[test]
    fn hom_stats_count_atomically() {
        let st = HomStats::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        st.mrv_decision();
                        st.index_probes(2);
                        st.backtrack();
                    }
                    st.block_search(5, true);
                    st.retraction_probe(false);
                    st.threads_dispatched(3);
                });
            }
        });
        let snap = st.snapshot();
        assert_eq!(snap.mrv_decisions, 400);
        assert_eq!(snap.index_probes, 800);
        assert_eq!(snap.backtracks, 400);
        assert_eq!(snap.block_searches, 4);
        assert_eq!(snap.blocks_solved, 4);
        assert_eq!(snap.retraction_probes, 4);
        assert_eq!(snap.retractions, 0);
        assert_eq!(snap.threads_dispatched, 12);
    }

    #[test]
    fn combined_stats_route_both_traits() {
        let mut st = Stats::new();
        ChaseObserver::chase_start(&mut st, 1, 1);
        HomObserver::mrv_decision(&st);
        assert_eq!(st.chase.statements.len(), 1);
        assert_eq!(st.hom.snapshot().mrv_decisions, 1);
        let json = st.to_json();
        assert!(json.contains("\"chase\""));
        assert!(json.contains("\"hom\""));
    }
}
