//! Arena-backed columnar fact storage: the representation every engine in
//! the workspace now bottoms out in.
//!
//! A [`FactStore`] keeps, per relation, one flat arity-strided
//! `Vec<Value>` column: the tuple of row `r` occupies
//! `data[r*arity .. (r+1)*arity]`. Columns sit in one vector in the order
//! their relations arrived, and each id points straight at its
//! `(column, row)`, so [`FactStore::tuple`] is two indexed loads. A short
//! relation-sorted list of `(relation, column)` pairs finds a relation's
//! column by binary search and gives iteration its order; a store holds
//! nothing sized by the largest [`RelId`], so a small instance stays small.
//!
//! Facts are deduplicated on insert through the workspace's one
//! open-addressed [`IdTable`]: every id is filed under its tuple's 32-bit
//! [`FactStore::tuple_hash`], and a probe compares stored hashes before it
//! looks at a tuple. A caller that already holds the hash (the delta chase
//! computes it once per derived fact, for the containment test) passes it
//! to [`FactStore::insert_hashed`] and [`FactStore::contains_hashed`]
//! instead of hashing the tuple again. Each distinct fact gets a
//! dense, **stable** [`FactId`] that survives retraction: removal is a
//! tombstone (a cleared liveness bit), and re-inserting a retracted fact
//! *revives* its original id rather than allocating a new one. Stable ids
//! are what let the shared `(rel, pos, value)` posting index and the
//! incremental core engine's retraction worklist refer to facts across
//! mutations without rehashing full tuples.
//!
//! Rules of the representation:
//! - **FactId stability**: an id, once assigned, always denotes the same
//!   `(relation, tuple)` pair — live or dead — until [`FactStore::compact`]
//!   explicitly rebuilds the arena (the only operation that invalidates
//!   ids, and one no engine calls mid-search). The invalidation is
//!   **explicit**: every compaction bumps [`FactStore::epoch`]; consumers
//!   that hold ids across mutations snapshot the epoch and re-check it
//!   with [`FactStore::assert_epoch`] before dereferencing.
//! - **Tombstones**: retraction clears a liveness bit in O(1); columns and
//!   posting lists keep the row in place and readers filter through
//!   [`FactStore::is_live`].
//! - **Revival**: the dedup table is append-only, so a retract/re-insert
//!   cycle returns the original id ([`Inserted::Revived`]) and the store
//!   never holds two rows for one fact.
//! - **Determinism**: iteration is relation-sorted and row-ordered
//!   (= first-insertion-ordered); fully sorted enumeration is available
//!   via [`FactStore::sorted_ids`] for display and index builds.
//!
//! The store also keeps always-on [`StoreCounters`] (inserts, dedup hits,
//! tombstones, revivals, compactions) — plain `u64` increments on paths
//! that already touch the same cache lines, cheap enough to never gate.

use crate::idtable::{IdTable, Vacant};
use crate::symbol::RelId;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Dense, stable id of a fact inside a [`FactStore`]. Ids are assigned in
/// first-insertion order and survive retraction (tombstones) — only
/// [`FactStore::compact`] renumbers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactId(pub u32);

impl FactId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Store-level event counters: always-on observability for the storage
/// layer, surfaced through `ndl-obs` chase statistics.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Fresh rows appended to a column.
    pub inserts: u64,
    /// Insert attempts answered by an existing live row.
    pub dedup_hits: u64,
    /// Live rows tombstoned by retraction.
    pub tombstones: u64,
    /// Tombstoned rows brought back live by re-insertion.
    pub revivals: u64,
    /// Arena rebuilds that dropped tombstones and renumbered ids.
    pub compactions: u64,
    /// Dedup table growths (re-filing cycles). Zero when the store was
    /// pre-sized large enough via [`FactStore::with_capacity`] or
    /// [`FactStore::reserve`].
    pub rehashes: u64,
    /// Slot-arena reallocations (the `FactId → slot` vector regrowing).
    /// Zero when the store was pre-sized large enough.
    pub regrows: u64,
}

/// A small vector of [`FactId`]s that stores up to five ids inline before
/// spilling to the heap — posting lists are almost always tiny, and the
/// inline form is exactly the size of an empty `Vec`.
#[derive(Clone, Debug)]
pub enum SmallIdVec {
    /// Up to five ids stored in place.
    Inline {
        /// Number of occupied slots in `buf`.
        len: u8,
        /// Inline storage; only `buf[..len]` is meaningful.
        buf: [FactId; 5],
    },
    /// Heap storage once the sixth id arrives.
    Spilled(Vec<FactId>),
}

impl Default for SmallIdVec {
    #[inline]
    fn default() -> Self {
        SmallIdVec::Inline {
            len: 0,
            buf: [FactId(0); 5],
        }
    }
}

impl SmallIdVec {
    /// Appends an id, spilling to the heap on overflow.
    #[inline]
    pub fn push(&mut self, id: FactId) {
        match self {
            SmallIdVec::Inline { len, buf } => {
                if (*len as usize) < buf.len() {
                    buf[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(8);
                    v.extend_from_slice(&buf[..]);
                    v.push(id);
                    *self = SmallIdVec::Spilled(v);
                }
            }
            SmallIdVec::Spilled(v) => v.push(id),
        }
    }

    /// The ids as a slice, in insertion order.
    #[inline]
    pub fn as_slice(&self) -> &[FactId] {
        match self {
            SmallIdVec::Inline { len, buf } => &buf[..*len as usize],
            SmallIdVec::Spilled(v) => v.as_slice(),
        }
    }

    /// Number of stored ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Is the vector empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One relation's arena: a flat arity-strided value column plus the ids of
/// its rows.
#[derive(Clone, Debug)]
struct Column {
    /// The relation whose facts the column holds.
    rel: RelId,
    /// Fixed tuple width of this relation.
    arity: usize,
    /// Row-major tuple cells; row `r` is `data[r*arity..(r+1)*arity]`.
    data: Vec<Value>,
    /// `row → FactId`, in insertion order (dead rows included).
    ids: Vec<FactId>,
    /// Number of live rows.
    live: usize,
}

impl Column {
    fn new(rel: RelId, arity: usize) -> Self {
        Column {
            rel,
            arity,
            data: Vec::new(),
            ids: Vec::new(),
            live: 0,
        }
    }

    #[inline]
    fn row(&self, row: u32) -> &[Value] {
        let a = self.arity;
        let start = row as usize * a;
        &self.data[start..start + a]
    }

    fn rows(&self) -> usize {
        self.ids.len()
    }
}

/// The widest tuple [`packed_key`] packs.
const PACKED_ARITY: usize = 3;

/// A tuple of at most [`PACKED_ARITY`] values as one integer that orders
/// like the tuple: 33 bits per value, `Const(c)` as `c` and `Null(n)` as
/// `2^32 + n` (constants before nulls, as `Value` orders), the first
/// value in the highest bits. Only tuples of one arity are compared.
#[inline]
fn packed_key(tuple: &[Value]) -> u128 {
    debug_assert!(tuple.len() <= PACKED_ARITY);
    tuple.iter().fold(0u128, |key, v| {
        let cell = match *v {
            Value::Const(c) => u128::from(c.0),
            Value::Null(n) => (1u128 << 32) + u128::from(n.0),
        };
        (key << 33) | cell
    })
}

/// Outcome of a [`FactStore::insert`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inserted {
    /// The fact was new; a fresh row and id were allocated.
    Fresh(FactId),
    /// The fact existed as a tombstone; its original id is live again.
    Revived(FactId),
    /// The fact was already live; nothing changed.
    Present(FactId),
}

impl Inserted {
    /// The id of the fact, however the insert resolved.
    #[inline]
    pub fn id(self) -> FactId {
        match self {
            Inserted::Fresh(id) | Inserted::Revived(id) | Inserted::Present(id) => id,
        }
    }

    /// Did the store gain a live fact (fresh row or revival)?
    #[inline]
    pub fn is_new(self) -> bool {
        !matches!(self, Inserted::Present(_))
    }
}

/// The arena-backed columnar fact store. See the module docs for the
/// representation rules (id stability, tombstones, revival, determinism).
#[derive(Clone, Debug, Default)]
pub struct FactStore {
    /// Per-relation columns, in the order their relations first arrived.
    cols: Vec<Column>,
    /// `(relation, index into cols)`, sorted by relation: finds a
    /// relation's column and orders iteration.
    by_rel: Vec<(RelId, u32)>,
    /// `FactId → (index into cols, row)` back-pointers, dead ids included.
    slots: Vec<(u32, u32)>,
    /// Liveness bits parallel to `slots`.
    live: Vec<bool>,
    /// Every assigned id, filed under its tuple's
    /// [`tuple_hash`](FactStore::tuple_hash) (append-only).
    dedup: IdTable,
    /// Cached number of live facts — `len()` is O(1).
    live_count: usize,
    /// Always-on storage event counters.
    counters: StoreCounters,
    /// Delta-frontier watermark: ids `>= frontier_start` were allocated
    /// since the last [`FactStore::mark_frontier`]. Ids are dense and
    /// increasing, so the frontier of any relation is a contiguous suffix
    /// of its row-id list. Starts at 0 (everything is frontier).
    frontier_start: u32,
    /// Compaction epoch: bumped by every [`FactStore::compact`], the one
    /// operation that renumbers ids. A consumer that captured `FactId`s
    /// (or a frontier watermark) at epoch `e` must treat them as
    /// invalidated whenever [`FactStore::epoch`] `!= e`.
    epoch: u64,
}

impl FactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store pre-sized for roughly `facts` rows; it
    /// grows by amortized doubling beyond.
    pub fn with_capacity(facts: usize) -> Self {
        FactStore {
            slots: Vec::with_capacity(facts),
            live: Vec::with_capacity(facts),
            dedup: IdTable::with_capacity(facts),
            ..Self::default()
        }
    }

    /// Makes room for `facts` more fresh rows without growing the id arena
    /// or the dedup table (columns still grow by doubling). Growth events
    /// count as regrows and rehashes like those of an insert.
    pub fn reserve(&mut self, facts: usize) {
        let slots_cap = self.slots.capacity();
        self.slots.reserve(facts);
        self.live.reserve(facts);
        if self.slots.capacity() != slots_cap {
            self.counters.regrows += 1;
        }
        if self.dedup.reserve(facts) {
            self.counters.rehashes += 1;
        }
    }

    /// The 32-bit hash the store files a fact under:
    /// [`crate::hash::tuple_hash`] of the relation and the tuple.
    #[inline]
    pub fn tuple_hash(rel: RelId, args: &[Value]) -> u32 {
        crate::hash::tuple_hash(rel.0, args)
    }

    /// The column of `rel`, if the relation ever held a fact.
    #[inline]
    fn col(&self, rel: RelId) -> Option<&Column> {
        let at = self.by_rel.binary_search_by_key(&rel, |&(r, _)| r).ok()?;
        Some(&self.cols[self.by_rel[at].1 as usize])
    }

    /// The index of `rel`'s column in `cols`, made empty at width `arity`
    /// if the relation has none yet.
    fn col_index(&mut self, rel: RelId, arity: usize) -> usize {
        match self.by_rel.binary_search_by_key(&rel, |&(r, _)| r) {
            Ok(at) => self.by_rel[at].1 as usize,
            Err(at) => {
                let c = self.cols.len();
                self.cols.push(Column::new(rel, arity));
                self.by_rel.insert(at, (rel, c as u32));
                c
            }
        }
    }

    /// The id of a fact (live or dead) filed under `hash`, or where the
    /// dedup probe ended.
    #[inline]
    fn find(&self, rel: RelId, args: &[Value], hash: u32) -> Result<FactId, Vacant> {
        debug_assert_eq!(hash, Self::tuple_hash(rel, args), "a stale tuple hash");
        self.dedup
            .find(hash, |id| {
                let (c, row) = self.slots[id as usize];
                let col = &self.cols[c as usize];
                col.rel == rel && col.row(row) == args
            })
            .map(FactId)
    }

    /// Inserts a fact; O(1) expected. Returns whether the row is fresh,
    /// revived, or was already live — with its stable id in every case.
    pub fn insert(&mut self, rel: RelId, args: &[Value]) -> Inserted {
        self.insert_hashed(rel, args, Self::tuple_hash(rel, args))
    }

    /// [`insert`](Self::insert) of a fact whose
    /// [`tuple_hash`](Self::tuple_hash) the caller already holds.
    pub fn insert_hashed(&mut self, rel: RelId, args: &[Value], hash: u32) -> Inserted {
        let at = match self.find(rel, args, hash) {
            Ok(id) => {
                if self.live[id.index()] {
                    self.counters.dedup_hits += 1;
                    return Inserted::Present(id);
                }
                self.live[id.index()] = true;
                self.live_count += 1;
                self.counters.revivals += 1;
                self.cols[self.slots[id.index()].0 as usize].live += 1;
                return Inserted::Revived(id);
            }
            Err(at) => at,
        };
        let id = FactId(u32::try_from(self.slots.len()).expect("fact arena overflow"));
        let c = self.col_index(rel, args.len());
        let col = &mut self.cols[c];
        if col.arity != args.len() {
            // A column emptied by `clear` may take a new width.
            assert_eq!(col.rows(), 0, "relation arity changed between inserts");
            col.arity = args.len();
        }
        let row = u32::try_from(col.rows()).expect("column overflow");
        col.data.extend_from_slice(args);
        col.ids.push(id);
        col.live += 1;
        // A capacity change across the push is a regrow event: it proves
        // (or disproves) that pre-sizing worked.
        let slots_cap = self.slots.capacity();
        self.slots.push((c as u32, row));
        self.live.push(true);
        self.live_count += 1;
        self.counters.inserts += 1;
        if self.dedup.insert(at, hash, id.0) {
            self.counters.rehashes += 1;
        }
        if self.slots.capacity() != slots_cap {
            self.counters.regrows += 1;
        }
        Inserted::Fresh(id)
    }

    /// Looks up the id of a fact, live rows only.
    pub fn lookup(&self, rel: RelId, args: &[Value]) -> Option<FactId> {
        self.lookup_hashed(rel, args, Self::tuple_hash(rel, args))
    }

    /// [`lookup`](Self::lookup) of a fact whose
    /// [`tuple_hash`](Self::tuple_hash) the caller already holds.
    #[inline]
    pub fn lookup_hashed(&self, rel: RelId, args: &[Value], hash: u32) -> Option<FactId> {
        self.find(rel, args, hash)
            .ok()
            .filter(|id| self.live[id.index()])
    }

    /// Is the fact live in the store? O(1) expected.
    #[inline]
    pub fn contains(&self, rel: RelId, args: &[Value]) -> bool {
        self.lookup(rel, args).is_some()
    }

    /// [`contains`](Self::contains) for a fact whose
    /// [`tuple_hash`](Self::tuple_hash) the caller already holds.
    #[inline]
    pub fn contains_hashed(&self, rel: RelId, args: &[Value], hash: u32) -> bool {
        self.lookup_hashed(rel, args, hash).is_some()
    }

    /// Tombstones a live fact by id; returns `false` if it was already
    /// dead. O(1).
    pub fn retract_id(&mut self, id: FactId) -> bool {
        if !self.live[id.index()] {
            return false;
        }
        self.live[id.index()] = false;
        self.live_count -= 1;
        self.cols[self.slots[id.index()].0 as usize].live -= 1;
        self.counters.tombstones += 1;
        true
    }

    /// Tombstones a live fact by value; returns its id if it was live.
    pub fn retract(&mut self, rel: RelId, args: &[Value]) -> Option<FactId> {
        let id = self.lookup(rel, args)?;
        self.retract_id(id);
        Some(id)
    }

    /// Number of live facts. O(1) — the count is cached across mutations.
    #[inline]
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Is the store empty (no live facts)? O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Number of live facts of `rel`.
    pub fn rel_len(&self, rel: RelId) -> usize {
        self.col(rel).map_or(0, |c| c.live)
    }

    /// The tuple width of `rel`, if the relation has ever held a fact.
    pub fn arity(&self, rel: RelId) -> Option<usize> {
        self.col(rel).map(|c| c.arity)
    }

    /// Is the id live?
    #[inline]
    pub fn is_live(&self, id: FactId) -> bool {
        self.live[id.index()]
    }

    /// The tuple stored under `id` (live or dead) as a borrowed view.
    #[inline]
    pub fn tuple(&self, id: FactId) -> &[Value] {
        let (c, row) = self.slots[id.index()];
        self.cols[c as usize].row(row)
    }

    /// The relation of the fact stored under `id` (live or dead).
    #[inline]
    pub fn rel_of(&self, id: FactId) -> RelId {
        self.cols[self.slots[id.index()].0 as usize].rel
    }

    /// Total rows ever allocated (live + tombstoned).
    pub fn rows(&self) -> usize {
        self.slots.len()
    }

    /// The relations with at least one live fact, sorted.
    pub fn active_relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.columns().filter(|c| c.live > 0).map(|c| c.rel)
    }

    /// All row ids of `rel` in insertion order, tombstones included —
    /// filter through [`FactStore::is_live`].
    pub fn rel_row_ids(&self, rel: RelId) -> &[FactId] {
        self.col(rel).map_or(&[][..], |c| c.ids.as_slice())
    }

    /// Iterates the live facts of one relation in insertion order.
    pub fn iter_rel(&self, rel: RelId) -> impl Iterator<Item = (FactId, &[Value])> + '_ {
        self.col(rel).into_iter().flat_map(move |col| {
            col.ids
                .iter()
                .enumerate()
                .filter(|&(_, id)| self.live[id.index()])
                .map(move |(row, &id)| (id, col.row(row as u32)))
        })
    }

    /// Iterates all live facts, relation-sorted and insertion-ordered
    /// within each relation. Zero allocation.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, RelId, &[Value])> + '_ {
        self.columns().flat_map(move |col| {
            col.ids
                .iter()
                .enumerate()
                .filter(|&(_, id)| self.live[id.index()])
                .map(move |(row, &id)| (id, col.rel, col.row(row as u32)))
        })
    }

    /// The columns in relation order.
    fn columns(&self) -> impl Iterator<Item = &Column> + '_ {
        self.by_rel.iter().map(|&(_, c)| &self.cols[c as usize])
    }

    /// The live ids in fully sorted `(relation, tuple)` order — the
    /// deterministic enumeration used for display, serialization and
    /// index builds. Allocates one id vector and one sort buffer.
    pub fn sorted_ids(&self) -> Vec<FactId> {
        let mut out = Vec::with_capacity(self.live_count);
        let mut rows: Vec<u32> = Vec::new();
        let mut keyed: Vec<(u128, u32)> = Vec::new();
        for col in self.columns() {
            self.extend_sorted(col, &mut out, &mut rows, &mut keyed);
        }
        out
    }

    /// Appends the live ids of `rel` to `out` in sorted tuple order — one
    /// relation's run of [`FactStore::sorted_ids`]. A column whose live
    /// rows are already in sorted order (the common case for chase
    /// output) is appended in row order after one linear check, with no
    /// sort.
    pub fn extend_sorted_rel_ids(&self, rel: RelId, out: &mut Vec<FactId>) {
        let Some(col) = self.col(rel) else { return };
        let start = out.len();
        let mut sorted = true;
        let mut prev: Option<&[Value]> = None;
        for (row, &id) in col.ids.iter().enumerate() {
            if self.live[id.index()] {
                let t = col.row(row as u32);
                sorted &= prev.is_none_or(|p| p < t);
                prev = Some(t);
                out.push(id);
            }
        }
        if !sorted {
            out.truncate(start);
            self.extend_sorted(col, out, &mut Vec::new(), &mut Vec::new());
        }
    }

    /// Appends the live ids of `col` to `out` in sorted tuple order.
    ///
    /// Sorts the live row numbers by their tuples directly (no id → slot
    /// → row hop per comparison). A column of arity at most 3 packs each
    /// row's tuple into one `u128` key (33 bits per value) and sorts
    /// `(key, row)` pairs, comparing integers instead of `[Value]` slices;
    /// wider columns compare the slices. A relation never holds two rows
    /// with equal tuples, so the keys of a column are distinct and an
    /// unstable sort yields the one sorted order. `rows` and `keyed` are
    /// scratch buffers.
    fn extend_sorted(
        &self,
        col: &Column,
        out: &mut Vec<FactId>,
        rows: &mut Vec<u32>,
        keyed: &mut Vec<(u128, u32)>,
    ) {
        let live = (0..col.rows() as u32).filter(|&r| self.live[col.ids[r as usize].index()]);
        if col.arity <= PACKED_ARITY {
            keyed.clear();
            keyed.extend(live.map(|r| (packed_key(col.row(r)), r)));
            keyed.sort_unstable_by_key(|&(key, _)| key);
            out.extend(keyed.iter().map(|&(_, r)| col.ids[r as usize]));
        } else {
            rows.clear();
            rows.extend(live);
            rows.sort_by(|&a, &b| col.row(a).cmp(col.row(b)));
            out.extend(rows.iter().map(|&r| col.ids[r as usize]));
        }
    }

    /// The store's event counters.
    #[inline]
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Advances the delta-frontier watermark past every currently
    /// allocated row: after this call the frontier is exactly the rows
    /// allocated by *future* inserts (until the next mark). The semi-naive
    /// chase calls this when it commits a round, so "the frontier" is
    /// always "the previous round's fresh facts".
    ///
    /// Contract: a [`FactId`] enters the frontier when it is **freshly
    /// allocated** after the mark. Tombstoning does not remove an id from
    /// the frontier (readers filter liveness separately), and a *revival*
    /// of a pre-mark id does not add it — revived rows keep their original
    /// position below the watermark. Engines that retract mid-chase must
    /// therefore not rely on frontiers alone; the chase never retracts.
    /// [`FactStore::compact`] renumbers ids and resets the watermark to 0
    /// (everything becomes frontier again — the conservative choice).
    #[inline]
    pub fn mark_frontier(&mut self) {
        self.frontier_start = u32::try_from(self.slots.len()).expect("fact arena overflow");
    }

    /// The current watermark: ids `>= frontier_start()` are in the
    /// frontier.
    #[inline]
    pub fn frontier_start(&self) -> u32 {
        self.frontier_start
    }

    /// Is the id in the current frontier (allocated since the last
    /// [`FactStore::mark_frontier`])? Liveness is not consulted.
    #[inline]
    pub fn in_frontier(&self, id: FactId) -> bool {
        id.0 >= self.frontier_start
    }

    /// The frontier rows of `rel`: the suffix of [`FactStore::rel_row_ids`]
    /// allocated since the last mark. Row-id lists only ever append ids in
    /// increasing order, so the frontier is found by binary search —
    /// O(log rows), not O(rows).
    pub fn rel_frontier(&self, rel: RelId) -> &[FactId] {
        let ids = self.rel_row_ids(rel);
        let cut = ids.partition_point(|id| id.0 < self.frontier_start);
        &ids[cut..]
    }

    /// The compaction epoch: 0 for a fresh store, incremented by every
    /// [`FactStore::compact`]. Snapshot it alongside any captured
    /// [`FactId`]s (or frontier watermark) and re-check with
    /// [`FactStore::assert_epoch`] before dereferencing them — an epoch
    /// mismatch is the explicit signal that compaction renumbered the ids
    /// out from under the consumer.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Asserts that no compaction happened since `observed` was
    /// snapshotted via [`FactStore::epoch`]. Consumers holding `FactId`s
    /// or a frontier watermark across mutations (a [`crate::index::TupleIndex`]
    /// posting list, an in-flight delta chase, a retraction worklist) call
    /// this at their re-entry points. It stays on in release builds: the
    /// check is one integer compare per call.
    #[inline]
    #[track_caller]
    pub fn assert_epoch(&self, observed: u64) {
        assert_eq!(
            self.epoch, observed,
            "stale FactIds: the store was compacted (epoch {} -> {}) after \
             these ids were captured; compaction renumbers every id and \
             resets the delta frontier",
            observed, self.epoch,
        );
    }

    /// Removes every fact but keeps the allocations (columns, slot arena,
    /// dedup table), so a store refilled to a similar size allocates
    /// nothing — the delta chase stages each round's fresh facts in one
    /// store it clears between rounds. Like [`FactStore::compact`] this
    /// invalidates every outstanding [`FactId`], resets the frontier
    /// watermark to 0 and bumps the epoch; the counters keep accumulating.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.data.clear();
            col.ids.clear();
            col.live = 0;
        }
        self.slots.clear();
        self.live.clear();
        self.dedup.clear();
        self.live_count = 0;
        self.frontier_start = 0;
        self.epoch += 1;
    }

    /// Rebuilds the arena without tombstones, renumbering every id —
    /// the one operation that invalidates outstanding [`FactId`]s.
    ///
    /// # Contract
    /// Compaction **renumbers every id** (compaction order = live
    /// iteration order) and **resets the delta-frontier watermark to 0**
    /// (everything becomes frontier again — the conservative choice). Any
    /// `FactId`, posting list, or frontier snapshot captured before the
    /// call is invalid afterwards. The invalidation is made explicit by
    /// [`FactStore::epoch`], which this bumps: consumers snapshot the
    /// epoch with their ids and re-check via [`FactStore::assert_epoch`].
    /// A [`crate::index::TupleIndex`] must never have its inner store
    /// compacted out from under its posting lists — use
    /// [`crate::index::TupleIndex::compact`], which rebuilds both
    /// coherently.
    pub fn compact(&mut self) {
        let old = std::mem::take(self);
        let compactions = old.counters.compactions + 1;
        let mut fresh = FactStore::with_capacity(old.len());
        for (_, rel, args) in old.iter() {
            fresh.insert(rel, args);
        }
        // Compaction is a representation change, not workload activity:
        // carry the original counters forward and record the rebuild.
        fresh.counters = old.counters;
        fresh.counters.compactions = compactions;
        fresh.epoch = old.epoch + 1;
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{ConstId, SymbolTable};
    use crate::value::NullId;
    use std::collections::BTreeMap;

    fn setup() -> (SymbolTable, RelId, Value, Value, Value) {
        let mut syms = SymbolTable::new();
        let r = syms.rel("R");
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let n = Value::Null(NullId(0));
        (syms, r, a, b, n)
    }

    #[test]
    fn insert_dedup_and_counters() {
        let (_syms, r, a, b, _) = setup();
        let mut s = FactStore::new();
        let i1 = s.insert(r, &[a, b]);
        assert!(matches!(i1, Inserted::Fresh(FactId(0))));
        let i2 = s.insert(r, &[a, b]);
        assert_eq!(i2, Inserted::Present(FactId(0)));
        assert!(!i2.is_new());
        assert_eq!(s.len(), 1);
        assert_eq!(s.counters().inserts, 1);
        assert_eq!(s.counters().dedup_hits, 1);
    }

    #[test]
    fn tombstone_and_revival_keep_ids_stable() {
        let (_syms, r, a, b, _) = setup();
        let mut s = FactStore::new();
        let id = s.insert(r, &[a, b]).id();
        s.insert(r, &[b, a]);
        assert_eq!(s.retract(r, &[a, b]), Some(id));
        assert!(!s.is_live(id));
        assert_eq!(s.len(), 1);
        assert_eq!(s.rel_len(r), 1);
        // The tombstoned tuple is still addressable by id.
        assert_eq!(s.tuple(id), &[a, b]);
        assert!(!s.contains(r, &[a, b]));
        // Re-insertion revives the original id; no second row appears.
        let back = s.insert(r, &[a, b]);
        assert_eq!(back, Inserted::Revived(id));
        assert_eq!(s.rows(), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.counters().tombstones, 1);
        assert_eq!(s.counters().revivals, 1);
    }

    #[test]
    fn columns_are_arity_strided() {
        let (mut syms, r, a, b, n) = setup();
        let c = Value::Const(syms.constant("c"));
        let mut s = FactStore::new();
        let i0 = s.insert(r, &[a, b]).id();
        let i1 = s.insert(r, &[b, c]).id();
        let i2 = s.insert(r, &[c, n]).id();
        assert_eq!(s.tuple(i0), &[a, b]);
        assert_eq!(s.tuple(i1), &[b, c]);
        assert_eq!(s.tuple(i2), &[c, n]);
        assert_eq!(s.arity(r), Some(2));
        assert_eq!(s.rel_row_ids(r), &[i0, i1, i2]);
    }

    #[test]
    fn iteration_is_rel_sorted_and_insertion_ordered() {
        let (mut syms, r, a, b, _) = setup();
        let q = syms.rel("Q");
        let mut s = FactStore::new();
        s.insert(r, &[b, a]);
        s.insert(q, &[a]);
        s.insert(r, &[a, b]);
        let seen: Vec<(RelId, Vec<Value>)> =
            s.iter().map(|(_, rel, t)| (rel, t.to_vec())).collect();
        // Relation-sorted (R interned before Q), rows in insertion order.
        assert_eq!(seen, vec![(r, vec![b, a]), (r, vec![a, b]), (q, vec![a])]);
        // sorted_ids re-sorts rows within each relation.
        let sorted: Vec<Vec<Value>> = s
            .sorted_ids()
            .iter()
            .map(|&id| s.tuple(id).to_vec())
            .collect();
        assert_eq!(sorted, vec![vec![a, b], vec![b, a], vec![a]]);
    }

    #[test]
    fn compact_drops_tombstones_and_renumbers() {
        let (_syms, r, a, b, _) = setup();
        let mut s = FactStore::new();
        s.insert(r, &[a, a]);
        s.insert(r, &[a, b]);
        s.insert(r, &[b, b]);
        s.retract(r, &[a, b]);
        s.compact();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.len(), 2);
        assert!(s.contains(r, &[a, a]));
        assert!(s.contains(r, &[b, b]));
        assert!(!s.contains(r, &[a, b]));
        assert_eq!(s.counters().compactions, 1);
        // Original workload counters survive the rebuild.
        assert_eq!(s.counters().inserts, 3);
        assert_eq!(s.counters().tombstones, 1);
    }

    #[test]
    fn compaction_epoch_makes_stale_ids_detectable() {
        // Regression for the stale-id hazard: compaction renumbers ids and
        // resets the frontier watermark while a consumer (an index, an
        // in-flight delta chase) may still hold pre-compaction ids. The
        // epoch is the explicit invalidation signal.
        let (mut syms, r, a, b, _) = setup();
        let c = Value::Const(syms.constant("c"));
        let mut s = FactStore::new();
        s.insert(r, &[a, a]);
        let stale = s.insert(r, &[a, b]).id();
        s.insert(r, &[b, c]);
        s.retract(r, &[a, a]);
        s.mark_frontier();

        // A consumer snapshots ids and the epoch...
        let observed = s.epoch();
        assert_eq!(observed, 0);
        assert_eq!(s.tuple(stale), &[a, b]);
        assert!(!s.in_frontier(stale));

        // ...the store compacts: the id now denotes a *different* tuple
        // (the hazard — no panic, no error, silently wrong data) and the
        // watermark silently reset to 0.
        s.compact();
        assert_ne!(s.tuple(stale), &[a, b], "renumbering is the hazard");
        assert_eq!(s.frontier_start(), 0);
        assert!(s.in_frontier(stale), "watermark reset is the hazard");

        // The epoch makes the invalidation detectable: pre-fix there was
        // no signal at all and `assert_epoch` did not exist.
        assert_eq!(s.epoch(), observed + 1);
        s.assert_epoch(s.epoch()); // fresh snapshot passes
    }

    #[test]
    #[should_panic(expected = "stale FactIds")]
    fn assert_epoch_panics_on_stale_snapshot() {
        let (_syms, r, a, b, _) = setup();
        let mut s = FactStore::new();
        s.insert(r, &[a, b]);
        let observed = s.epoch();
        s.compact();
        s.assert_epoch(observed);
    }

    #[test]
    fn small_id_vec_spills_transparently() {
        let mut v = SmallIdVec::default();
        assert!(v.is_empty());
        for i in 0..12u32 {
            v.push(FactId(i));
        }
        assert_eq!(v.len(), 12);
        assert_eq!(v.as_slice()[11], FactId(11));
        assert_eq!(v.as_slice()[0], FactId(0));
    }

    #[test]
    fn frontier_is_a_suffix_of_row_ids() {
        let (mut syms, r, a, b, _) = setup();
        let q = syms.rel("Q");
        let mut s = FactStore::new();
        let i0 = s.insert(r, &[a, a]).id();
        let i1 = s.insert(r, &[a, b]).id();
        // Before any mark, everything is frontier.
        assert_eq!(s.frontier_start(), 0);
        assert_eq!(s.rel_frontier(r), &[i0, i1]);
        assert!(s.in_frontier(i0));
        s.mark_frontier();
        // After the mark the frontier is empty until new rows arrive.
        assert_eq!(s.rel_frontier(r), &[] as &[FactId]);
        assert!(!s.in_frontier(i1));
        let i2 = s.insert(r, &[b, b]).id();
        let i3 = s.insert(q, &[a]).id();
        assert_eq!(s.rel_frontier(r), &[i2]);
        assert_eq!(s.rel_frontier(q), &[i3]);
        assert!(s.in_frontier(i2));
        // Dedup hits and revivals of pre-mark rows do not enter the
        // frontier; only freshly allocated ids do.
        assert_eq!(s.insert(r, &[a, b]), Inserted::Present(i1));
        s.retract_id(i0);
        assert_eq!(s.insert(r, &[a, a]), Inserted::Revived(i0));
        assert_eq!(s.rel_frontier(r), &[i2]);
        // Compaction renumbers and conservatively resets the watermark.
        s.compact();
        assert_eq!(s.frontier_start(), 0);
        assert_eq!(s.rel_frontier(r).len(), s.rel_len(r));
    }

    /// The `compact()` × delta-frontier contract the incremental input
    /// cells sit on: one `compact()` call both bumps the epoch and resets
    /// the watermark (there is no observable state with one but not the
    /// other), and after a post-compact `mark_frontier` no pre-compact
    /// [`FactId`] can resurrect as a frontier member — stale ids that
    /// alias renumbered rows sit below the new watermark, and ids beyond
    /// the arena are caught by the epoch guard.
    #[test]
    fn compact_resets_frontier_and_bumps_epoch_atomically() {
        let (mut syms, r, a, b, _) = setup();
        let c = Value::Const(syms.constant("c"));
        let mut s = FactStore::new();
        s.insert(r, &[a, a]);
        s.insert(r, &[a, b]);
        s.mark_frontier();
        let f0 = s.insert(r, &[b, b]).id();
        let f1 = s.insert(r, &[b, c]).id();
        s.retract(r, &[a, a]);
        let epoch0 = s.epoch();
        let pre_frontier = vec![f0, f1];
        assert!(pre_frontier.iter().all(|&id| s.in_frontier(id)));
        assert!(s.frontier_start() > 0);

        s.compact();
        // Epoch bump and watermark reset are one atomic transition: both
        // are visible in the first state observable after the call.
        assert_eq!(s.epoch(), epoch0 + 1);
        assert_eq!(s.frontier_start(), 0);
        assert_eq!(s.rel_frontier(r).len(), s.rel_len(r));

        // A post-compact mark empties the frontier; the pre-compact
        // frontier ids now alias renumbered rows *below* the watermark,
        // so none of them resurrects as a frontier member.
        s.mark_frontier();
        assert_eq!(s.rel_frontier(r), &[] as &[FactId]);
        for &stale in &pre_frontier {
            assert!(
                stale.0 >= u32::try_from(s.rows()).unwrap() || !s.in_frontier(stale),
                "pre-compact frontier id {stale:?} resurrected after compact"
            );
        }
        // Only a genuinely fresh post-compact insert enters the frontier.
        let fresh = s.insert(r, &[c, c]).id();
        assert_eq!(s.rel_frontier(r), &[fresh]);
    }

    /// Consumers that captured FactIds (or a frontier watermark) before a
    /// compact are rejected by the epoch guard at their re-entry point.
    #[test]
    #[should_panic(expected = "stale FactIds")]
    fn stale_epoch_snapshot_is_rejected_after_compact() {
        let (_syms, r, a, b, _) = setup();
        let mut s = FactStore::new();
        s.insert(r, &[a, b]);
        let observed = s.epoch();
        s.compact();
        s.assert_epoch(observed);
    }

    #[test]
    fn presized_store_reports_no_rehash_or_regrow() {
        let (mut syms, r, _, _, _) = setup();
        let vals: Vec<Value> = (0..256)
            .map(|i| Value::Const(syms.constant(&format!("c{i}"))))
            .collect();
        let mut presized = FactStore::with_capacity(300);
        let mut bare = FactStore::new();
        for &v in &vals {
            presized.insert(r, &[v]);
            bare.insert(r, &[v]);
        }
        assert_eq!(presized.counters().rehashes, 0);
        assert_eq!(presized.counters().regrows, 0);
        // The un-sized store grows repeatedly on the same workload — the
        // counters are what make the difference observable.
        assert!(bare.counters().regrows > 0);
        assert!(bare.counters().rehashes > 0);
    }

    #[test]
    fn clear_empties_the_store_and_keeps_it_usable() {
        let (mut syms, r, a, b, n) = setup();
        let q = syms.rel("Q");
        let mut s = FactStore::new();
        s.insert(r, &[a, b]);
        s.insert(q, &[n]);
        s.mark_frontier();
        let epoch = s.epoch();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.rows(), 0);
        assert_eq!(s.rel_len(r), 0);
        assert_eq!(s.active_relations().count(), 0);
        assert_eq!(s.frontier_start(), 0);
        assert_eq!(s.epoch(), epoch + 1);
        assert!(!s.contains(r, &[a, b]));
        // Refilled, it numbers ids from 0 again; an emptied column may
        // even take a new width.
        assert_eq!(s.insert(r, &[b, a]), Inserted::Fresh(FactId(0)));
        assert_eq!(s.insert(q, &[a, b, n]), Inserted::Fresh(FactId(1)));
        assert_eq!(s.insert(r, &[b, a]), Inserted::Present(FactId(0)));
        assert_eq!(s.tuple(FactId(1)), &[a, b, n]);
        assert_eq!(s.sorted_ids(), vec![FactId(0), FactId(1)]);
    }

    /// The id-level comparator `sorted_ids` used before it sorted row
    /// numbers directly: live ids per relation, ordered through the
    /// `FactId → slot → row` hop on every comparison.
    fn sorted_ids_by_slot(s: &FactStore) -> Vec<FactId> {
        let mut out = Vec::with_capacity(s.len());
        for col in s.columns() {
            let start = out.len();
            out.extend(col.ids.iter().copied().filter(|id| s.live[id.index()]));
            out[start..].sort_unstable_by(|&a, &b| {
                let ra = s.slots[a.index()].1;
                let rb = s.slots[b.index()].1;
                col.row(ra).cmp(col.row(rb))
            });
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// `sorted_ids` agrees with the slot-hop comparator on random
        /// stores: arities 0–4, constants and nulls mixed, tombstones,
        /// revivals, a compaction or a clear along the way.
        #[test]
        fn sorted_ids_matches_the_slot_comparator(seed in 0u64..u64::MAX, ops in 0usize..300) {
            // splitmix64: the test depends only on the drawn seed.
            let mut state = seed;
            let mut below = |n: usize| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % n as u64) as usize
            };
            let mut syms = SymbolTable::new();
            let rels: Vec<(RelId, usize)> =
                (0..5).map(|a| (syms.rel(&format!("R{a}")), a)).collect();
            // Constants and nulls share raw ids (0–2 and near `u32::MAX`),
            // so a packed key that mixed up the two kinds, or lost the top
            // bit of a 33-bit cell, would misorder.
            let mut vals: Vec<Value> = (0..3)
                .map(|i| Value::Const(syms.constant(&format!("c{i}"))))
                .collect();
            vals.extend((0..3).map(|i| Value::Null(NullId(i))));
            for id in [u32::MAX, u32::MAX - 1] {
                vals.push(Value::Const(ConstId(id)));
                vals.push(Value::Null(NullId(id)));
            }
            let mut s = FactStore::new();
            let mut ids: Vec<FactId> = Vec::new();
            for _ in 0..ops {
                let (rel, arity) = rels[below(rels.len())];
                let args: Vec<Value> =
                    (0..arity).map(|_| vals[below(vals.len())]).collect();
                match below(100) {
                    0..=59 => ids.push(s.insert(rel, &args).id()),
                    60..=89 if !ids.is_empty() => {
                        s.retract_id(ids[below(ids.len())]);
                    }
                    90..=91 => {
                        s.compact();
                        ids.clear();
                    }
                    92 => {
                        s.clear();
                        ids.clear();
                    }
                    _ => {
                        s.retract(rel, &args);
                    }
                }
            }
            let got = s.sorted_ids();
            proptest::prop_assert_eq!(&got, &sorted_ids_by_slot(&s));
            proptest::prop_assert_eq!(got.len(), s.len());
        }
    }

    /// A model of the store: per id its fact and liveness, ids in
    /// assignment order.
    #[derive(Default)]
    struct Model {
        facts: Vec<(RelId, Vec<Value>)>,
        live: Vec<bool>,
        ids: BTreeMap<(RelId, Vec<Value>), FactId>,
    }

    impl Model {
        fn insert(&mut self, rel: RelId, args: &[Value]) -> Inserted {
            let key = (rel, args.to_vec());
            if let Some(&id) = self.ids.get(&key) {
                if self.live[id.index()] {
                    return Inserted::Present(id);
                }
                self.live[id.index()] = true;
                return Inserted::Revived(id);
            }
            let id = FactId(self.facts.len() as u32);
            self.ids.insert(key.clone(), id);
            self.facts.push(key);
            self.live.push(true);
            Inserted::Fresh(id)
        }

        fn lookup(&self, rel: RelId, args: &[Value]) -> Option<FactId> {
            let id = *self.ids.get(&(rel, args.to_vec()))?;
            self.live[id.index()].then_some(id)
        }

        /// Live ids, relation-sorted, in id order within a relation.
        fn iteration(&self) -> Vec<FactId> {
            let mut ids: Vec<FactId> = (0..self.facts.len() as u32)
                .map(FactId)
                .filter(|id| self.live[id.index()])
                .collect();
            ids.sort_by_key(|id| (self.facts[id.index()].0, *id));
            ids
        }

        /// Live ids in `(relation, tuple)` order.
        fn sorted(&self) -> Vec<FactId> {
            (self.ids.values().copied())
                .filter(|id| self.live[id.index()])
                .collect()
        }

        fn compact(&mut self) {
            let order = self.iteration();
            let old = std::mem::take(self);
            for id in order {
                let (rel, args) = &old.facts[id.index()];
                self.insert(*rel, args);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// The store against a `BTreeMap` model over insert (hashed or
        /// not), retract by value and by id, revival, lookup, `clear`,
        /// `compact` and `sorted_ids`. Relations arrive out of id order,
        /// so relation-sorted iteration is checked against arrival order.
        #[test]
        fn store_agrees_with_a_map_model(seed in 0u64..u64::MAX, ops in 0usize..400) {
            let mut state = seed;
            let mut below = |n: usize| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % n as u64) as usize
            };
            // `(relation, arity)`, listed out of id order.
            let rels = [(RelId(7), 2), (RelId(2), 1), (RelId(40), 3), (RelId(0), 0), (RelId(13), 2)];
            let vals: Vec<Value> = (0..3)
                .map(|i| Value::Const(ConstId(i)))
                .chain((0..3).map(|i| Value::Null(NullId(i))))
                .collect();
            let mut s = FactStore::new();
            let mut m = Model::default();
            for _ in 0..ops {
                let (rel, arity) = rels[below(rels.len())];
                let args: Vec<Value> = (0..arity).map(|_| vals[below(vals.len())]).collect();
                match below(100) {
                    0..=39 => {
                        let got = s.insert(rel, &args);
                        proptest::prop_assert_eq!(got, m.insert(rel, &args));
                    }
                    40..=54 => {
                        let hash = FactStore::tuple_hash(rel, &args);
                        let got = s.insert_hashed(rel, &args, hash);
                        proptest::prop_assert_eq!(got, m.insert(rel, &args));
                    }
                    55..=69 => {
                        let want = m.lookup(rel, &args);
                        if let Some(id) = want {
                            m.live[id.index()] = false;
                        }
                        proptest::prop_assert_eq!(s.retract(rel, &args), want);
                    }
                    70..=79 if !m.facts.is_empty() => {
                        let id = FactId(below(m.facts.len()) as u32);
                        let was = std::mem::replace(&mut m.live[id.index()], false);
                        proptest::prop_assert_eq!(s.retract_id(id), was);
                    }
                    80..=94 => {
                        let hash = FactStore::tuple_hash(rel, &args);
                        let want = m.lookup(rel, &args);
                        proptest::prop_assert_eq!(s.lookup(rel, &args), want);
                        proptest::prop_assert_eq!(s.contains_hashed(rel, &args, hash), want.is_some());
                    }
                    95..=97 => {
                        s.compact();
                        m.compact();
                    }
                    98 => {
                        s.clear();
                        m = Model::default();
                    }
                    _ => {}
                }
            }
            let live = m.live.iter().filter(|&&l| l).count();
            proptest::prop_assert_eq!(s.len(), live);
            proptest::prop_assert_eq!(s.rows(), m.facts.len());
            for (i, (rel, args)) in m.facts.iter().enumerate() {
                let id = FactId(i as u32);
                proptest::prop_assert_eq!(s.tuple(id), args.as_slice());
                proptest::prop_assert_eq!(s.rel_of(id), *rel);
                proptest::prop_assert_eq!(s.is_live(id), m.live[i]);
            }
            let iterated: Vec<FactId> = s.iter().map(|(id, _, _)| id).collect();
            proptest::prop_assert_eq!(iterated, m.iteration());
            proptest::prop_assert_eq!(s.sorted_ids(), m.sorted());
            let mut active: Vec<RelId> = m.iteration().iter().map(|id| m.facts[id.index()].0).collect();
            active.dedup();
            proptest::prop_assert_eq!(s.active_relations().collect::<Vec<_>>(), active);
            for &(rel, _) in &rels {
                let n = m.iteration().iter().filter(|id| m.facts[id.index()].0 == rel).count();
                proptest::prop_assert_eq!(s.rel_len(rel), n);
                let ids: Vec<FactId> = s.iter_rel(rel).map(|(id, _)| id).collect();
                proptest::prop_assert_eq!(ids.len(), n);
            }
        }
    }

    #[test]
    fn zero_arity_relations() {
        let mut syms = SymbolTable::new();
        let p = syms.rel("P");
        let mut s = FactStore::new();
        let id = s.insert(p, &[]).id();
        assert_eq!(s.insert(p, &[]), Inserted::Present(id));
        assert_eq!(s.tuple(id), &[] as &[Value]);
        assert_eq!(s.len(), 1);
    }
}
