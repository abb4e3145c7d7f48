//! Shared tuple index: the `(rel, pos, value) → tuples` hash index that
//! accelerates every matching problem in the workspace — trigger
//! enumeration in `ndl-chase` and homomorphism/core search in `ndl-hom`.
//!
//! The index is **updatable in place**: facts can be inserted and removed
//! without rebuilding, which the incremental core engine relies on (each
//! retraction removes a handful of facts from a large instance). Removal
//! marks entries dead and filters them at read time; posting lists keep
//! their build order, which is the deterministic `Instance` iteration
//! order — all consumers therefore enumerate candidates in the same order
//! as a sorted full scan would, keeping results reproducible.
//!
//! Hashing uses a hand-rolled Fx-style multiply-xor hasher ([`FxHasher`]):
//! the keys are tiny (ids and small tuples), where SipHash's
//! per-finalization cost dominates; Fx is the standard fix (rustc uses the
//! same scheme) and keeps the workspace free of external dependencies.

use ndl_core::btree::BTreeInstance as Instance;
use ndl_core::prelude::{Fact, RelId, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic hasher for small keys (ids, short tuples),
/// after the `rustc-hash` / FxHash scheme: rotate, xor, multiply.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The odd constant of the Fx multiply step (π's fractional bits).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

impl std::fmt::Debug for FxHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FxHasher({:#x})", self.hash)
    }
}

/// Builds [`FxHasher`]s for the std hash containers.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed with the fast [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed with the fast [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Dense id of a tuple inside a [`TupleIndex`]. Ids are assigned in
/// insertion order and never reused, so iterating a posting list visits
/// tuples in the deterministic order they were indexed.
pub type TupleId = u32;

/// An updatable `(rel, pos, value) → tuples` hash index over a set of
/// facts.
///
/// Supports the two access paths every search engine here needs:
/// - [`TupleIndex::posting`]: all tuples with `value` at `pos` of `rel`
///   (the candidate set for a partially bound atom or fact), and
/// - [`TupleIndex::rel_ids`]: all tuples of a relation (the scan fallback
///   when nothing is bound).
///
/// Removal is O(1) (a dead mark); posting lists are filtered through
/// [`TupleIndex::is_live`] at read time.
#[derive(Clone, Debug, Default)]
pub struct TupleIndex {
    /// Tuple store; `TupleId`s index into it. Dead entries stay in place.
    entries: Vec<(RelId, Vec<Value>)>,
    /// Liveness flags parallel to `entries`.
    live_flags: Vec<bool>,
    /// `(rel, pos, value) → ids` posting lists, in insertion order.
    posting: FxHashMap<(RelId, u32, Value), Vec<TupleId>>,
    /// `rel → ids` in insertion order (deterministic relation iteration).
    by_rel: BTreeMap<RelId, Vec<TupleId>>,
    /// `rel → live tuple count`.
    live_by_rel: BTreeMap<RelId, usize>,
    /// Exact-fact lookup for containment and removal.
    id_of: FxHashMap<(RelId, Vec<Value>), TupleId>,
    /// Total live tuples.
    live: usize,
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
            entries: Vec::with_capacity(tuples),
            live_flags: Vec::with_capacity(tuples),
            posting: FxHashMap::with_capacity_and_hasher(cells, FxBuildHasher::default()),
            id_of: FxHashMap::with_capacity_and_hasher(tuples, FxBuildHasher::default()),
            ..Self::default()
        }
    }

    /// Builds the index of an instance (O(total tuple cells)), indexing
    /// facts in the instance's deterministic iteration order.
    pub fn from_instance(inst: &Instance) -> Self {
        let mut idx = TupleIndex::new();
        for rel in inst.active_relations() {
            for tuple in inst.tuples(rel) {
                idx.insert(rel, tuple.clone());
            }
        }
        idx
    }

    /// Inserts a tuple; returns `true` if it was not already live.
    pub fn insert(&mut self, rel: RelId, args: Vec<Value>) -> bool {
        if self.id_of.contains_key(&(rel, args.clone())) {
            return false;
        }
        let id = self.entries.len() as TupleId;
        for (pos, &v) in args.iter().enumerate() {
            self.posting
                .entry((rel, pos as u32, v))
                .or_default()
                .push(id);
        }
        self.by_rel.entry(rel).or_default().push(id);
        *self.live_by_rel.entry(rel).or_default() += 1;
        self.id_of.insert((rel, args.clone()), id);
        self.entries.push((rel, args));
        self.live_flags.push(true);
        self.live += 1;
        true
    }

    /// Removes a fact; returns `true` if it was live. The entry is marked
    /// dead; posting lists are filtered lazily.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        match self.id_of.remove(&(fact.rel, fact.args.clone())) {
            None => false,
            Some(id) => {
                self.live_flags[id as usize] = false;
                self.live -= 1;
                *self.live_by_rel.get_mut(&fact.rel).expect("live rel") -= 1;
                true
            }
        }
    }

    /// Is the fact live in the index?
    pub fn contains(&self, rel: RelId, args: &[Value]) -> bool {
        // Keyed lookup without allocating: scan the shortest posting.
        match args.first() {
            None => self
                .by_rel
                .get(&rel)
                .is_some_and(|ids| ids.iter().any(|&id| self.is_live(id))),
            Some(&v) => self.posting.get(&(rel, 0, v)).is_some_and(|ids| {
                ids.iter()
                    .any(|&id| self.is_live(id) && self.tuple(id) == args)
            }),
        }
    }

    /// Total number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the index empty (no live tuples)?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live tuples of `rel`.
    pub fn rel_len(&self, rel: RelId) -> usize {
        self.live_by_rel.get(&rel).copied().unwrap_or(0)
    }

    /// Is the tuple id live?
    #[inline]
    pub fn is_live(&self, id: TupleId) -> bool {
        self.live_flags[id as usize]
    }

    /// The tuple stored under `id` (live or dead).
    #[inline]
    pub fn tuple(&self, id: TupleId) -> &[Value] {
        &self.entries[id as usize].1
    }

    /// The posting list of `(rel, pos, value)`: ids of tuples with `value`
    /// at position `pos`, in insertion order. May contain dead ids — filter
    /// with [`TupleIndex::is_live`]. Empty when no tuple matches.
    pub fn posting(&self, rel: RelId, pos: u32, value: Value) -> &[TupleId] {
        self.posting
            .get(&(rel, pos, value))
            .map_or(&[][..], Vec::as_slice)
    }

    /// Upper bound on the length of [`TupleIndex::posting`] (counts dead
    /// ids too) — the selectivity estimate used for join/MRV ordering.
    pub fn posting_len(&self, rel: RelId, pos: u32, value: Value) -> usize {
        self.posting.get(&(rel, pos, value)).map_or(0, Vec::len)
    }

    /// All tuple ids of `rel` in insertion order (may contain dead ids).
    pub fn rel_ids(&self, rel: RelId) -> &[TupleId] {
        self.by_rel.get(&rel).map_or(&[][..], Vec::as_slice)
    }

    /// The live relations (those with at least one live tuple).
    pub fn active_relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.live_by_rel
            .iter()
            .filter(|&(_, &n)| n > 0)
            .map(|(&rel, _)| rel)
    }

    /// Rebuilds an [`Instance`] from the live tuples.
    pub fn to_instance(&self) -> Instance {
        let mut inst = Instance::new();
        for (&rel, ids) in &self.by_rel {
            for &id in ids {
                if self.is_live(id) {
                    inst.insert_tuple(rel, self.tuple(id).to_vec());
                }
            }
        }
        inst
    }
}
