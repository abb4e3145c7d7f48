//! Shared tuple index: the `(rel, pos, value) → facts` hash index that
//! accelerates every matching problem in the workspace — trigger
//! enumeration in `ndl-chase` and homomorphism/core search in `ndl-hom`.
//!
//! The index owns a columnar [`FactStore`] and adds posting lists keyed by
//! stable [`FactId`]s: `(rel, pos, value) → SmallIdVec<FactId>`. Dedup and
//! containment are answered by the store's open-addressed id table (no tuple
//! cloning, no second exact-match map); posting lists append on first
//! insertion and are filtered through liveness bits at read time, so the
//! index is **updatable in place** — the incremental core engine retracts
//! a handful of facts from a large instance without a rebuild.
//!
//! Which positions get posting lists is the index's [`ProbeSet`]. An index
//! built by [`TupleIndex::new`] or [`TupleIndex::from_instance`] keeps one
//! for every position of every fact — homomorphism, core and reasoning
//! searches probe wherever a value is bound. The semi-naive chase builds
//! its index with [`TupleIndex::from_instance_probing`] and the probe set
//! of its program's bodies, so positions no body can probe cost nothing
//! on insert; probing an unindexed pair panics rather than answering
//! "no tuple".
//!
//! Posting lists keep their build order. [`TupleIndex::from_instance`]
//! indexes facts in the instance's deterministic sorted order, so all
//! consumers enumerate candidates in the same order as a sorted full scan
//! would, keeping results reproducible.

use crate::instance::{Fact, Instance};
use crate::store::{FactId, FactStore, Inserted, SmallIdVec};
use crate::symbol::RelId;
use crate::value::Value;

pub use crate::hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};

/// Stable id of a tuple inside a [`TupleIndex`] — an alias of the store's
/// [`FactId`]. Ids are assigned in insertion order and survive removal
/// (tombstones), so iterating a posting list visits tuples in the
/// deterministic order they were indexed.
pub type TupleId = FactId;

/// The `(rel, pos)` pairs a [`TupleIndex`] keeps posting lists for, when
/// it does not keep them for every position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProbeSet {
    /// `rel.index() → ` the indexed positions of `rel`, sorted.
    positions: Vec<Vec<u32>>,
}

impl ProbeSet {
    /// The empty set: no position is indexed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `(rel, pos)` to the set.
    pub fn insert(&mut self, rel: RelId, pos: u32) {
        if self.positions.len() <= rel.index() {
            self.positions.resize_with(rel.index() + 1, Vec::new);
        }
        let ps = &mut self.positions[rel.index()];
        if let Err(at) = ps.binary_search(&pos) {
            ps.insert(at, pos);
        }
    }

    /// The indexed positions of `rel`, sorted.
    #[inline]
    pub fn positions(&self, rel: RelId) -> &[u32] {
        self.positions.get(rel.index()).map_or(&[], Vec::as_slice)
    }

    /// Is `(rel, pos)` in the set?
    #[inline]
    pub fn contains(&self, rel: RelId, pos: u32) -> bool {
        self.positions(rel).contains(&pos)
    }
}

/// An updatable `(rel, pos, value) → facts` hash index over a columnar
/// fact store.
///
/// Supports the two access paths every search engine here needs:
/// - [`TupleIndex::posting`]: all tuples with `value` at `pos` of `rel`
///   (the candidate set for a partially bound atom or fact), and
/// - [`TupleIndex::rel_ids`]: all tuples of a relation (the scan fallback
///   when nothing is bound).
///
/// Removal is O(1) (a tombstone in the store); posting lists are filtered
/// through [`TupleIndex::is_live`] at read time.
#[derive(Clone, Debug, Default)]
pub struct TupleIndex {
    /// The columnar arena: rows, liveness, dedup buckets, counters.
    store: FactStore,
    /// `(rel, pos, value) → ids` posting lists, in insertion order.
    posting: FxHashMap<(RelId, u32, Value), SmallIdVec>,
    /// The positions posting lists are kept for; `None` means all.
    probes: Option<ProbeSet>,
}

impl TupleIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty index pre-sized for roughly `tuples` facts of
    /// `cells` total tuple cells; it grows by amortized doubling beyond.
    pub fn with_capacity(tuples: usize, cells: usize) -> Self {
        TupleIndex {
            store: FactStore::with_capacity(tuples),
            posting: FxHashMap::with_capacity_and_hasher(cells, FxBuildHasher::default()),
            probes: None,
        }
    }

    /// Builds the index of an instance (O(total tuple cells)), indexing
    /// facts in the instance's deterministic sorted iteration order.
    pub fn from_instance(inst: &Instance) -> Self {
        let mut idx = TupleIndex::with_capacity(inst.len(), inst.len() * 2);
        for f in inst.facts() {
            idx.insert(f.rel, f.args);
        }
        idx
    }

    /// [`TupleIndex::from_instance`] keeping posting lists only for the
    /// pairs of `probes`, now and for every later insert. Ids, rows and
    /// the posting lists it does keep are exactly those of
    /// `from_instance`; [`TupleIndex::posting`] panics on any other pair.
    pub fn from_instance_probing(inst: &Instance, probes: ProbeSet) -> Self {
        let cells = (probes.positions.iter().enumerate())
            .map(|(r, ps)| ps.len() * inst.rel_len(RelId(r as u32)))
            .sum();
        let mut idx = TupleIndex {
            probes: Some(probes),
            ..TupleIndex::with_capacity(inst.len(), cells)
        };
        for f in inst.facts() {
            idx.insert(f.rel, f.args);
        }
        idx
    }

    /// Is `(rel, pos)` kept in posting lists?
    #[inline]
    fn indexes(&self, rel: RelId, pos: u32) -> bool {
        self.probes.as_ref().is_none_or(|p| p.contains(rel, pos))
    }

    /// Appends `id` to the posting lists of its indexed positions.
    fn post(
        posting: &mut FxHashMap<(RelId, u32, Value), SmallIdVec>,
        probes: Option<&ProbeSet>,
        id: TupleId,
        rel: RelId,
        args: &[Value],
    ) {
        let mut push = |pos: u32, v: Value| posting.entry((rel, pos, v)).or_default().push(id);
        match probes {
            None => {
                for (pos, &v) in args.iter().enumerate() {
                    push(pos as u32, v);
                }
            }
            Some(p) => {
                for &pos in p.positions(rel) {
                    push(pos, args[pos as usize]);
                }
            }
        }
    }

    /// The underlying store (counters, id-level access).
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Inserts a tuple; returns `true` if it was not already live.
    /// O(1) expected; a re-insertion of a tombstoned fact revives its
    /// original id (posting lists still hold it).
    pub fn insert(&mut self, rel: RelId, args: impl AsRef<[Value]>) -> bool {
        let args = args.as_ref();
        self.insert_hashed(rel, args, FactStore::tuple_hash(rel, args))
    }

    /// [`insert`](Self::insert) of a tuple whose
    /// [`FactStore::tuple_hash`] the caller already holds.
    pub fn insert_hashed(&mut self, rel: RelId, args: &[Value], hash: u32) -> bool {
        match self.store.insert_hashed(rel, args, hash) {
            Inserted::Present(_) => false,
            Inserted::Revived(_) => true,
            Inserted::Fresh(id) => {
                Self::post(&mut self.posting, self.probes.as_ref(), id, rel, args);
                true
            }
        }
    }

    /// Removes a fact; returns `true` if it was live. The row is
    /// tombstoned; posting lists are filtered lazily.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        self.store.retract(fact.rel, &fact.args).is_some()
    }

    /// Removes a tuple by relation and arguments; returns `true` if live.
    pub fn remove_tuple(&mut self, rel: RelId, args: &[Value]) -> bool {
        self.store.retract(rel, args).is_some()
    }

    /// Is the fact live in the index? O(1) expected.
    pub fn contains(&self, rel: RelId, args: &[Value]) -> bool {
        self.store.contains(rel, args)
    }

    /// [`contains`](Self::contains) for a tuple whose
    /// [`FactStore::tuple_hash`] the caller already holds.
    #[inline]
    pub fn contains_hashed(&self, rel: RelId, args: &[Value], hash: u32) -> bool {
        self.store.contains_hashed(rel, args, hash)
    }

    /// Makes room for `tuples` more fresh tuples in the store's id arena
    /// and dedup table (see [`FactStore::reserve`]).
    pub fn reserve(&mut self, tuples: usize) {
        self.store.reserve(tuples);
    }

    /// Total number of live tuples. O(1).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Is the index empty (no live tuples)? O(1).
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of live tuples of `rel`.
    pub fn rel_len(&self, rel: RelId) -> usize {
        self.store.rel_len(rel)
    }

    /// Is the tuple id live?
    #[inline]
    pub fn is_live(&self, id: TupleId) -> bool {
        self.store.is_live(id)
    }

    /// The tuple stored under `id` (live or dead).
    #[inline]
    pub fn tuple(&self, id: TupleId) -> &[Value] {
        self.store.tuple(id)
    }

    /// The posting list of `(rel, pos, value)`: ids of tuples with `value`
    /// at position `pos`, in insertion order. May contain dead ids — filter
    /// with [`TupleIndex::is_live`]. Empty when no tuple matches.
    ///
    /// # Panics
    /// Panics if `(rel, pos)` is outside the index's probe set: an empty
    /// answer there would silently drop matches.
    pub fn posting(&self, rel: RelId, pos: u32, value: Value) -> &[TupleId] {
        self.assert_indexed(rel, pos);
        self.posting
            .get(&(rel, pos, value))
            .map_or(&[][..], SmallIdVec::as_slice)
    }

    /// Upper bound on the length of [`TupleIndex::posting`] (counts dead
    /// ids too) — the selectivity estimate used for join/MRV ordering.
    /// Panics like [`TupleIndex::posting`] on an unindexed pair.
    pub fn posting_len(&self, rel: RelId, pos: u32, value: Value) -> usize {
        self.assert_indexed(rel, pos);
        self.posting
            .get(&(rel, pos, value))
            .map_or(0, SmallIdVec::len)
    }

    #[inline]
    #[track_caller]
    fn assert_indexed(&self, rel: RelId, pos: u32) {
        assert!(
            self.indexes(rel, pos),
            "posting list of ({rel:?}, {pos}) probed outside the index's probe set"
        );
    }

    /// All tuple ids of `rel` in insertion order (may contain dead ids).
    pub fn rel_ids(&self, rel: RelId) -> &[TupleId] {
        self.store.rel_row_ids(rel)
    }

    /// Advances the store's delta-frontier watermark past every current
    /// row (see [`FactStore::mark_frontier`] for the contract). The
    /// semi-naive chase marks at each round commit so the frontier is the
    /// previous round's fresh tuples.
    #[inline]
    pub fn mark_frontier(&mut self) {
        self.store.mark_frontier();
    }

    /// The current frontier watermark: ids `>=` this were indexed since
    /// the last [`TupleIndex::mark_frontier`].
    #[inline]
    pub fn frontier_start(&self) -> u32 {
        self.store.frontier_start()
    }

    /// Is the tuple id in the current frontier?
    #[inline]
    pub fn in_frontier(&self, id: TupleId) -> bool {
        self.store.in_frontier(id)
    }

    /// The frontier suffix of a posting list: the ids of
    /// [`TupleIndex::posting`] indexed since the last mark. Posting lists
    /// append ids in increasing order (fresh inserts only — revivals never
    /// re-append), so the frontier is a contiguous suffix found by binary
    /// search.
    pub fn posting_frontier(&self, rel: RelId, pos: u32, value: Value) -> &[TupleId] {
        let ids = self.posting(rel, pos, value);
        let cut = ids.partition_point(|id| id.0 < self.store.frontier_start());
        &ids[cut..]
    }

    /// The frontier suffix of [`TupleIndex::rel_ids`] — all tuples of
    /// `rel` indexed since the last mark.
    pub fn rel_frontier(&self, rel: RelId) -> &[TupleId] {
        self.store.rel_frontier(rel)
    }

    /// The live relations (those with at least one live tuple).
    pub fn active_relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.store.active_relations()
    }

    /// The store's compaction epoch (see [`FactStore::epoch`]): bumped by
    /// every [`TupleIndex::compact`]. Consumers holding [`TupleId`]s
    /// across mutations snapshot this and re-check via
    /// [`FactStore::assert_epoch`] on [`TupleIndex::store`].
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Compacts the index: rebuilds the store without tombstones
    /// ([`FactStore::compact`]) **and** its posting lists together, so the
    /// two can never disagree about ids — a long-lived host reclaims
    /// tombstone and posting garbage this way between requests.
    ///
    /// # Contract
    /// Every outstanding [`TupleId`] is renumbered and the delta-frontier
    /// watermark resets to 0, exactly as for [`FactStore::compact`]; the
    /// epoch bump (visible through [`TupleIndex::epoch`]) is the explicit
    /// invalidation signal for ids captured before the call. Never compact
    /// while a delta chase or retraction worklist is in flight over this
    /// index.
    pub fn compact(&mut self) {
        self.store.compact();
        self.posting.clear();
        // Re-derive the postings from the compacted arena. Compaction
        // assigned the fresh ids in store-iteration order, so iterating
        // again appends each posting list in increasing id order — the
        // invariant `posting_frontier`'s binary search relies on, and
        // exactly what inserting the live tuples into a fresh index would
        // have produced.
        for (id, rel, args) in self.store.iter() {
            Self::post(&mut self.posting, self.probes.as_ref(), id, rel, args);
        }
    }

    /// Rebuilds an [`Instance`] from the live tuples.
    pub fn to_instance(&self) -> Instance {
        let mut inst = Instance::new();
        for (_, rel, args) in self.store.iter() {
            inst.insert_tuple(rel, args);
        }
        inst
    }

    /// Consumes the index, converting its store into an [`Instance`]
    /// without copying a single tuple — the fixpoint chase finishes this
    /// way. Tombstoned rows stay tombstoned; the instance filters them
    /// like any retracted fact.
    pub fn into_instance(self) -> Instance {
        Instance::from_store(self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;
    use crate::value::NullId;

    fn setup() -> (SymbolTable, RelId, Value, Value, Value) {
        let mut syms = SymbolTable::new();
        let r = syms.rel("R");
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let n = Value::Null(NullId(0));
        (syms, r, a, b, n)
    }

    #[test]
    fn build_and_lookup() {
        let (_syms, r, a, b, n) = setup();
        let inst = Instance::from_facts([
            Fact::new(r, vec![a, b]),
            Fact::new(r, vec![a, n]),
            Fact::new(r, vec![b, b]),
        ]);
        let idx = TupleIndex::from_instance(&inst);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.rel_len(r), 3);
        // Two tuples have `a` at position 0.
        let ids = idx.posting(r, 0, a);
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|&id| idx.tuple(id)[0] == a));
        // None has `n` at position 0.
        assert!(idx.posting(r, 0, n).is_empty());
        assert!(idx.contains(r, &[a, b]));
        assert!(!idx.contains(r, &[b, a]));
        assert_eq!(idx.to_instance(), inst);
    }

    #[test]
    fn remove_marks_dead_and_filters() {
        let (_syms, r, a, b, _) = setup();
        let mut idx = TupleIndex::new();
        idx.insert(r, vec![a, b]);
        idx.insert(r, vec![b, b]);
        assert!(idx.remove(&Fact::new(r, vec![a, b])));
        assert!(!idx.remove(&Fact::new(r, vec![a, b])));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.rel_len(r), 1);
        assert!(!idx.contains(r, &[a, b]));
        // The posting list still holds the dead id; liveness filters it.
        let live: Vec<_> = idx
            .posting(r, 1, b)
            .iter()
            .filter(|&&id| idx.is_live(id))
            .collect();
        assert_eq!(live.len(), 1);
        let back = idx.to_instance();
        assert_eq!(back.len(), 1);
        assert!(back.contains_tuple(r, &[b, b]));
    }

    #[test]
    fn reinsert_after_remove() {
        let (_syms, r, a, b, _) = setup();
        let mut idx = TupleIndex::new();
        assert!(idx.insert(r, vec![a, b]));
        assert!(!idx.insert(r, vec![a, b]));
        idx.remove(&Fact::new(r, vec![a, b]));
        assert!(idx.insert(r, vec![a, b]));
        assert!(idx.contains(r, &[a, b]));
        assert_eq!(idx.len(), 1);
        // Revival keeps the original id — no duplicate row, and the
        // posting list holds the id exactly once.
        assert_eq!(idx.store().rows(), 1);
        assert_eq!(idx.posting(r, 0, a).len(), 1);
    }

    #[test]
    fn deterministic_posting_order_matches_instance_order() {
        let (mut syms, r, a, b, _) = setup();
        let c = Value::Const(syms.constant("c"));
        // Insert out of sorted order; from_instance re-sorts via Instance.
        let inst = Instance::from_facts([
            Fact::new(r, vec![c, a]),
            Fact::new(r, vec![a, a]),
            Fact::new(r, vec![b, a]),
        ]);
        let idx = TupleIndex::from_instance(&inst);
        let tuples: Vec<&[Value]> = idx
            .posting(r, 1, a)
            .iter()
            .map(|&id| idx.tuple(id))
            .collect();
        let scanned: Vec<&[Value]> = inst.tuples(r).collect();
        assert_eq!(tuples, scanned);
    }

    #[test]
    fn empty_index() {
        let (_syms, r, a, _, _) = setup();
        let idx = TupleIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.rel_len(r), 0);
        assert!(idx.posting(r, 0, a).is_empty());
        assert!(idx.rel_ids(r).is_empty());
        assert_eq!(idx.active_relations().count(), 0);
        assert!(idx.to_instance().is_empty());
    }

    #[test]
    fn posting_frontier_is_the_post_mark_suffix() {
        let (mut syms, r, a, b, _) = setup();
        let c = Value::Const(syms.constant("c"));
        let mut idx = TupleIndex::new();
        idx.insert(r, vec![a, a]);
        idx.insert(r, vec![b, a]);
        idx.mark_frontier();
        assert!(idx.posting_frontier(r, 1, a).is_empty());
        assert!(idx.rel_frontier(r).is_empty());
        idx.insert(r, vec![c, a]);
        let delta: Vec<&[Value]> = idx
            .posting_frontier(r, 1, a)
            .iter()
            .map(|&id| idx.tuple(id))
            .collect();
        assert_eq!(delta, vec![&[c, a][..]]);
        assert_eq!(idx.rel_frontier(r).len(), 1);
        // A dedup-hit re-insert of a pre-mark tuple adds nothing.
        assert!(!idx.insert(r, vec![a, a]));
        assert_eq!(idx.posting_frontier(r, 1, a).len(), 1);
        // Full posting list is unchanged: frontier is a view, not a split.
        assert_eq!(idx.posting(r, 1, a).len(), 3);
    }

    #[test]
    fn compact_rebuilds_postings_coherently_and_bumps_epoch() {
        // Regression for the stale-id hazard at the index layer: compacting
        // the inner store alone would leave posting lists full of
        // renumbered ids pointing at the wrong tuples. `TupleIndex::compact`
        // rebuilds both together and bumps the epoch so outside holders of
        // `TupleId`s can detect the invalidation.
        let (mut syms, r, a, b, _) = setup();
        let c = Value::Const(syms.constant("c"));
        let mut idx = TupleIndex::new();
        idx.insert(r, vec![a, a]);
        idx.insert(r, vec![a, b]);
        idx.insert(r, vec![c, b]);
        idx.remove(&Fact::new(r, vec![a, a]));
        idx.mark_frontier();
        let before = idx.to_instance();
        assert_eq!(idx.epoch(), 0);

        idx.compact();

        // Epoch bumped: outstanding TupleIds are declared invalid.
        assert_eq!(idx.epoch(), 1);
        // Tombstones gone, live contents unchanged.
        assert_eq!(idx.store().rows(), 2);
        assert_eq!(idx.to_instance(), before);
        // Postings agree with the renumbered store: every posting id is
        // live, in-bounds, and actually has the keyed value at the keyed
        // position.
        for (pos, v, want) in [(0u32, a, 1usize), (1, b, 2), (0, c, 1)] {
            let ids = idx.posting(r, pos, v);
            assert_eq!(ids.len(), want, "posting (r,{pos},{v:?})");
            for &id in ids {
                assert!(idx.is_live(id));
                assert_eq!(idx.tuple(id)[pos as usize], v);
            }
        }
        // The removed tuple's postings are gone entirely (not tombstoned).
        assert_eq!(idx.posting_len(r, 1, a), 0);
        // Frontier reset to 0: everything is frontier again, and the
        // posting-frontier binary search still sees increasing id order.
        assert_eq!(idx.frontier_start(), 0);
        assert_eq!(idx.posting_frontier(r, 1, b).len(), 2);
        // The index stays fully usable after compaction.
        assert!(idx.insert(r, vec![b, c]));
        assert_eq!(idx.posting_len(r, 0, b), 1);
    }

    /// `R(a,b) R(a,n) R(b,b) S(a)` probed at `(R,1)` only.
    fn probed() -> (TupleIndex, TupleIndex, RelId, RelId, Value, Value, Value) {
        let (mut syms, r, a, b, n) = setup();
        let s = syms.rel("S");
        let inst = Instance::from_facts([
            Fact::new(r, vec![a, b]),
            Fact::new(r, vec![a, n]),
            Fact::new(r, vec![b, b]),
            Fact::new(s, vec![a]),
        ]);
        let mut probes = ProbeSet::new();
        probes.insert(r, 1);
        (
            TupleIndex::from_instance(&inst),
            TupleIndex::from_instance_probing(&inst, probes),
            r,
            s,
            a,
            b,
            n,
        )
    }

    #[test]
    fn probed_index_keeps_exactly_the_probed_postings() {
        let (full, mut part, r, s, a, b, n) = probed();
        assert!(part.indexes(r, 1));
        assert!(!part.indexes(r, 0) && !part.indexes(s, 0));
        // Same ids, same rows, same posting lists where it keeps them.
        assert_eq!(part.store().sorted_ids(), full.store().sorted_ids());
        for v in [a, b, n] {
            assert_eq!(part.posting(r, 1, v), full.posting(r, 1, v));
        }
        assert_eq!(part.rel_ids(s), full.rel_ids(s));
        // Later inserts and compaction keep to the probe set.
        part.insert(r, vec![n, b]);
        part.remove(&Fact::new(r, vec![a, b]));
        part.compact();
        let live: Vec<&[Value]> = part
            .posting(r, 1, b)
            .iter()
            .map(|&id| part.tuple(id))
            .collect();
        assert_eq!(live, vec![&[b, b][..], &[n, b][..]]);
        assert_eq!(part.posting.len(), 2, "only (R,1) postings exist");
    }

    #[test]
    #[should_panic(expected = "outside the index's probe set")]
    fn probing_an_unindexed_pair_panics() {
        let (_, part, r, _, a, _, _) = probed();
        // `R(a, _)` has matches: an empty list here would be a wrong answer.
        let _ = part.posting(r, 0, a);
    }

    #[test]
    #[should_panic(expected = "outside the index's probe set")]
    fn probing_an_unindexed_relation_panics() {
        let (_, part, _, s, a, _, _) = probed();
        let _ = part.posting_len(s, 0, a);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let (_syms, r, a, b, _) = setup();
        let mut idx = TupleIndex::with_capacity(16, 32);
        assert!(idx.is_empty());
        idx.insert(r, vec![a, b]);
        assert!(idx.contains(r, &[a, b]));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.store().counters().inserts, 1);
    }
}
