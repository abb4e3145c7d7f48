//! The observer traits engines are generic over, and the no-op sink.
//!
//! Engines aggregate locally and report coarse events (one call per
//! statement per round for the chase) or count fine-grained ones (one call
//! per backtrack for the homomorphism search). Every method has an empty
//! default body; an observer overrides only what it cares about. The
//! `ENABLED` associated const lets instrumented code skip *preparing* event
//! data (clock reads, deltas) when the observer is the no-op sink — the
//! calls themselves already monomorphize away.

use ndl_core::store::StoreCounters;

/// Per-statement, per-round aggregate reported by a chase engine: how much
/// work one statement did in one round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StmtRound {
    /// 1-based chase round.
    pub round: usize,
    /// Statement index (position in the engine's tgd list).
    pub stmt: usize,
    /// Trigger bindings enumerated (body matches examined).
    pub examined: u64,
    /// Triggers that passed their equality gates and fired.
    pub fired: u64,
    /// Fresh facts this statement derived (not yet in the instance nor in
    /// this round's fresh set).
    pub derived: u64,
    /// Head facts that were already present (in the instance or already
    /// derived this round) — deduplication hits.
    pub dedup_hits: u64,
    /// Labeled nulls interned while firing this statement.
    pub nulls_interned: u64,
    /// Candidate tuples iterated by the semi-naive join (0 for the naive
    /// engines, which do not track per-tuple work).
    pub touched: u64,
    /// Wall time spent matching and firing, in nanoseconds. Zero when the
    /// observer is disabled ([`ChaseObserver::ENABLED`] is `false`).
    pub elapsed_ns: u64,
}

/// Observer of a (sequential) chase run. Methods take `&mut self`; the
/// engine owns the observer exclusively for the duration of the chase.
pub trait ChaseObserver {
    /// `false` exactly for no-op sinks: engines consult this to skip
    /// preparing event data (notably clock reads) that no one will see.
    const ENABLED: bool = true;

    /// The chase is starting: program size and source instance size.
    fn chase_start(&mut self, statements: usize, source_facts: usize) {
        let _ = (statements, source_facts);
    }

    /// The engine verified the plan's dataflow certificate: `dead`
    /// statements will be skipped every round and `ground` relations are
    /// provably null-free. Emitted once, between
    /// [`ChaseObserver::chase_start`] and the first round; never emitted
    /// for plans without a certificate.
    fn dataflow_cert(&mut self, dead: usize, ground: usize) {
        let _ = (dead, ground);
    }

    /// A certified-dead statement was skipped without matching (one call
    /// per statement per round).
    fn statement_skipped(&mut self, round: usize, stmt: usize) {
        let _ = (round, stmt);
    }

    /// A round begins (rounds are 1-based).
    fn round_start(&mut self, round: usize) {
        let _ = round;
    }

    /// The semi-naive engines report the size of the round's delta
    /// frontier (tuples committed by the previous round; in round one,
    /// the whole source). The naive engines never emit this event.
    fn round_delta(&mut self, round: usize, frontier: u64) {
        let _ = (round, frontier);
    }

    /// One statement finished its pass in the current round.
    fn statement(&mut self, sr: &StmtRound) {
        let _ = sr;
    }

    /// A round ended, committing `fresh` new facts in `elapsed_ns`.
    fn round_end(&mut self, round: usize, fresh: u64, elapsed_ns: u64) {
        let _ = (round, fresh, elapsed_ns);
    }

    /// The chase finished. `outcome` is `"fixpoint"`, `"budget-exhausted"`
    /// or `"refused"`; `derived` counts facts derived beyond the source
    /// (for `"budget-exhausted"`: including the uncommitted fresh facts of
    /// the cut-off round, i.e. how far the chase got).
    fn chase_end(&mut self, rounds: usize, derived: u64, outcome: &str) {
        let _ = (rounds, derived, outcome);
    }

    /// Final counters of the engine's fact store (inserts, dedup hits,
    /// tombstones, revivals, compactions) — reported once, alongside
    /// [`ChaseObserver::chase_end`]. Not reported when the engine refused
    /// to run (no store exists yet).
    fn store(&mut self, counters: &StoreCounters) {
        let _ = counters;
    }
}

/// Observer of the homomorphism/core engine. Methods take `&self` and the
/// trait requires `Sync`: block searches and retraction probes run on
/// scoped worker threads sharing one observer, so implementations count
/// with atomics.
pub trait HomObserver: Sync {
    /// `false` exactly for no-op sinks (see [`ChaseObserver::ENABLED`]).
    const ENABLED: bool = true;

    /// The search selected the next fact to match (one minimum-remaining-
    /// values decision).
    fn mrv_decision(&self) {}

    /// `n` posting-list probes against the target index.
    fn index_probes(&self, n: u64) {
        let _ = n;
    }

    /// A search branch was abandoned (all candidate tuples for the chosen
    /// fact failed).
    fn backtrack(&self) {}

    /// One f-block search finished.
    fn block_search(&self, facts: usize, solved: bool) {
        let _ = (facts, solved);
    }

    /// A core-engine retraction probe ran; `retracted` is whether an
    /// endomorphism avoiding the probed null was found.
    fn retraction_probe(&self, retracted: bool) {
        let _ = retracted;
    }

    /// `n` worker threads were dispatched for a parallel phase.
    fn threads_dispatched(&self, n: usize) {
        let _ = n;
    }
}

/// The disabled sink: every event is dropped, `ENABLED` is `false`, and
/// engines instantiated with it compile to their uninstrumented selves.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl ChaseObserver for NoopObserver {
    const ENABLED: bool = false;
}

impl HomObserver for NoopObserver {
    const ENABLED: bool = false;
}

impl<O: ChaseObserver> ChaseObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn chase_start(&mut self, statements: usize, source_facts: usize) {
        (**self).chase_start(statements, source_facts);
    }

    fn dataflow_cert(&mut self, dead: usize, ground: usize) {
        (**self).dataflow_cert(dead, ground);
    }

    fn statement_skipped(&mut self, round: usize, stmt: usize) {
        (**self).statement_skipped(round, stmt);
    }

    fn round_start(&mut self, round: usize) {
        (**self).round_start(round);
    }

    fn round_delta(&mut self, round: usize, frontier: u64) {
        (**self).round_delta(round, frontier);
    }

    fn statement(&mut self, sr: &StmtRound) {
        (**self).statement(sr);
    }

    fn round_end(&mut self, round: usize, fresh: u64, elapsed_ns: u64) {
        (**self).round_end(round, fresh, elapsed_ns);
    }

    fn chase_end(&mut self, rounds: usize, derived: u64, outcome: &str) {
        (**self).chase_end(rounds, derived, outcome);
    }

    fn store(&mut self, counters: &StoreCounters) {
        (**self).store(counters);
    }
}

impl<O: HomObserver> HomObserver for &O {
    const ENABLED: bool = O::ENABLED;

    fn mrv_decision(&self) {
        (**self).mrv_decision();
    }

    fn index_probes(&self, n: u64) {
        (**self).index_probes(n);
    }

    fn backtrack(&self) {
        (**self).backtrack();
    }

    fn block_search(&self, facts: usize, solved: bool) {
        (**self).block_search(facts, solved);
    }

    fn retraction_probe(&self, retracted: bool) {
        (**self).retraction_probe(retracted);
    }

    fn threads_dispatched(&self, n: usize) {
        (**self).threads_dispatched(n);
    }
}

/// Fan-out to two chase observers (e.g. a [`crate::Stats`] aggregate plus a
/// [`crate::JsonlTracer`]). Enabled iff either side is.
impl<A: ChaseObserver, B: ChaseObserver> ChaseObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn chase_start(&mut self, statements: usize, source_facts: usize) {
        self.0.chase_start(statements, source_facts);
        self.1.chase_start(statements, source_facts);
    }

    fn dataflow_cert(&mut self, dead: usize, ground: usize) {
        self.0.dataflow_cert(dead, ground);
        self.1.dataflow_cert(dead, ground);
    }

    fn statement_skipped(&mut self, round: usize, stmt: usize) {
        self.0.statement_skipped(round, stmt);
        self.1.statement_skipped(round, stmt);
    }

    fn round_start(&mut self, round: usize) {
        self.0.round_start(round);
        self.1.round_start(round);
    }

    fn round_delta(&mut self, round: usize, frontier: u64) {
        self.0.round_delta(round, frontier);
        self.1.round_delta(round, frontier);
    }

    fn statement(&mut self, sr: &StmtRound) {
        self.0.statement(sr);
        self.1.statement(sr);
    }

    fn round_end(&mut self, round: usize, fresh: u64, elapsed_ns: u64) {
        self.0.round_end(round, fresh, elapsed_ns);
        self.1.round_end(round, fresh, elapsed_ns);
    }

    fn chase_end(&mut self, rounds: usize, derived: u64, outcome: &str) {
        self.0.chase_end(rounds, derived, outcome);
        self.1.chase_end(rounds, derived, outcome);
    }

    fn store(&mut self, counters: &StoreCounters) {
        self.0.store(counters);
        self.1.store(counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        const { assert!(!<NoopObserver as ChaseObserver>::ENABLED) };
        const { assert!(!<NoopObserver as HomObserver>::ENABLED) };
        // And usable through a reference without flipping the const.
        const { assert!(!<&mut NoopObserver as ChaseObserver>::ENABLED) };
        const { assert!(!<&NoopObserver as HomObserver>::ENABLED) };
    }

    #[test]
    fn pair_is_enabled_when_either_side_is() {
        const { assert!(!<(NoopObserver, NoopObserver) as ChaseObserver>::ENABLED) };
        const { assert!(<(crate::ChaseStats, NoopObserver) as ChaseObserver>::ENABLED) };
    }
}
