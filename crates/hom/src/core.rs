//! Core computation (paper, Section 2): the core of an instance `J` is the
//! smallest subinstance homomorphically equivalent to `J`; it is unique up
//! to isomorphism [Hell & Nešetřil].
//!
//! Algorithm: iterated proper retractions. A proper retraction always
//! eliminates at least one null (an idempotent endomorphism whose image
//! contains every null fixes all of them and is the identity on facts), so
//! `J` is a core iff for every null `n` there is no endomorphism of `J`
//! avoiding `n`. Such an endomorphism exists iff the f-block of `n` maps
//! into `J` while avoiding `n` (nulls outside the block can stay fixed) —
//! so the search is block-local against the whole instance.
//!
//! The engine is **incremental**: a retraction through `h` only removes
//! the facts of one f-block that leave the image `h(B)` — every other fact
//! is untouched. So the engine keeps one index updated in place across
//! retractions and re-probes only *dirty* nulls: a null whose probe failed
//! stays failed while its block is unchanged and the instance only shrinks
//! (homomorphisms into a shrinking target never appear), so only the
//! surviving nulls of the retracted block ever need rechecking. The
//! smallest dirty null is probed first.
//!
//! The engine is also **lean**: it reads the input's fact store in place
//! and builds only what the search needs.
//! - One index over the borrowed store: each relation that holds a null
//!   gets its live ids in `(rel, tuple)` order (the store's own row order
//!   when that is already sorted) and one posting list per
//!   `(rel, pos, value)` in one array; a bitset marks retracted ids.
//!   Relations without nulls are never indexed — no search probes them.
//! - The f-blocks are runs of [`FactId`]s in one
//!   array; the nulls are numbered by rank, and the `null → block` and
//!   dirty tables are dense over the ranks.
//! - One assignment trail and one set of scratch buffers serve every
//!   probe.
//! - When nothing retracts, the core is a clone of the input; otherwise
//!   the surviving facts are copied into a fresh store once.

use crate::hom::{homomorphic, solve, HomMap, Target, Trail};
use ndl_core::prelude::*;
use ndl_core::store::{FactId, FactStore};
use ndl_obs::{HomObserver, NoopObserver};
use std::collections::BTreeSet;

/// Computes the core of `inst`.
pub fn core_of(inst: &Instance) -> Instance {
    core_of_observed(inst, &NoopObserver)
}

/// [`core_of`] reporting its work to a [`HomObserver`] (retraction probes,
/// block searches, backtracks). With [`NoopObserver`] this compiles to
/// the uninstrumented engine.
pub fn core_of_observed<O: HomObserver>(inst: &Instance, obs: &O) -> Instance {
    CoreEngine::new(inst, &BTreeSet::new(), obs)
        .run()
        .into_core()
}

/// [`core_of`] with a set of relations externally certified null-free
/// (e.g. the `ground` set of a verified dataflow certificate): the
/// engine's initial scan for null-carrying facts dismisses those
/// relations by id instead of scanning their arguments. The result is
/// identical to [`core_of`] — ground facts are inert in retraction either
/// way — but the setup cost on mostly-ground instances drops to the
/// null-carrying fringe.
pub fn core_of_assuming_ground(inst: &Instance, ground: &BTreeSet<RelId>) -> Instance {
    core_of_assuming_ground_observed(inst, ground, &NoopObserver)
}

/// [`core_of_assuming_ground`] reporting its work to a [`HomObserver`].
pub fn core_of_assuming_ground_observed<O: HomObserver>(
    inst: &Instance,
    ground: &BTreeSet<RelId>,
    obs: &O,
) -> Instance {
    CoreEngine::new(inst, ground, obs).run().into_core()
}

/// Computes the core of `inst` together with its f-blocks, reusing the
/// engine's block bookkeeping instead of rebuilding the fact graph of the
/// result. The blocks equal `f_blocks(&core)` (same contents, same order).
pub fn core_and_blocks(inst: &Instance) -> (Instance, Vec<Instance>) {
    core_and_blocks_observed(inst, &NoopObserver)
}

/// [`core_and_blocks`] reporting its work to a [`HomObserver`].
pub fn core_and_blocks_observed<O: HomObserver>(
    inst: &Instance,
    obs: &O,
) -> (Instance, Vec<Instance>) {
    let engine = CoreEngine::new(inst, &BTreeSet::new(), obs).run();
    let mut blocks = engine.block_instances();
    let core = engine.into_core();
    // The engine tracks only null-carrying blocks (ground facts are inert
    // in retraction); reconstitute the singleton ground blocks that
    // `f_blocks` reports, then match its order (components by smallest
    // fact).
    for f in core.facts() {
        if f.args.iter().all(|v| matches!(v, Value::Const(_))) {
            blocks.push(Instance::from_facts([f.to_fact()]));
        }
    }
    blocks.sort_by_cached_key(|b| b.facts().next().expect("blocks are nonempty").to_fact());
    debug_assert_eq!(blocks.iter().map(Instance::len).sum::<usize>(), core.len());
    (core, blocks)
}

/// The f-block size of the core of `inst` (0 for the empty instance) —
/// the quantity the Section 4 boundedness ladders sample at every rung.
pub fn core_f_block_size(inst: &Instance) -> usize {
    core_with_f_block_size(inst).1
}

/// The core of `inst` with its f-block size, equal to
/// `(core_of(inst), f_block_size(&core_of(inst)))`. The size is read off
/// the engine's surviving null blocks — the largest, or 1 when a ground
/// fact survives (a singleton f-block) — so neither the core's fact
/// graph nor an instance per block is built.
pub fn core_with_f_block_size(inst: &Instance) -> (Instance, usize) {
    let engine = CoreEngine::new(inst, &BTreeSet::new(), &NoopObserver).run();
    let size = engine.f_block_size();
    (engine.into_core(), size)
}

/// Is `inst` a core (no proper retraction)? Probes the nulls in
/// ascending order and stops at the first that retracts.
pub fn is_core(inst: &Instance) -> bool {
    is_core_observed(inst, &NoopObserver)
}

/// [`is_core`] reporting its work to a [`HomObserver`].
pub fn is_core_observed<O: HomObserver>(inst: &Instance, obs: &O) -> bool {
    let mut engine = CoreEngine::new(inst, &BTreeSet::new(), obs);
    let ranks = engine.nulls.len();
    !(0..ranks).any(|rank| engine.probe(rank))
}

/// Checks the defining property: `core` is a subinstance of `inst`,
/// homomorphically equivalent to it, and itself a core.
pub fn verify_core(core: &Instance, inst: &Instance) -> bool {
    core.is_subinstance_of(inst) && homomorphic(inst, core) && is_core(core)
}

/// The order-independent value fingerprint of an instance: relation ids
/// plus tagged raw values, combined commutatively. Stable across
/// recomputations that reuse the same symbol and null numbering (the
/// incremental runtime guarantees this by re-deriving from a canonical
/// source text).
pub fn instance_value_fingerprint(inst: &Instance) -> u64 {
    let mut fp = ndl_core::revision::SetFingerprint::new();
    for f in inst.facts_unordered() {
        fp.add(ndl_core::revision::fact_hash(f.rel, f.args));
    }
    fp.value()
}

/// The live ids of one indexed relation: a range of [`CoreIndex::ids`].
#[derive(Clone, Copy, Default)]
struct RelIds {
    start: u32,
    end: u32,
    /// Live (not retracted) ids in the range.
    live: u32,
}

/// The search target: the input's store, borrowed, seen through posting
/// lists for the relations that hold nulls and a set of retracted ids.
struct CoreIndex<'a> {
    store: &'a FactStore,
    /// `rel.index() →` its sorted live ids (empty for unindexed relations).
    rels: Vec<RelIds>,
    /// `(rel, pos, value) → k`: posting list `k` is
    /// `ids[offsets[k]..offsets[k + 1]]`.
    keys: FxHashMap<(RelId, u32, Value), u32>,
    offsets: Vec<u32>,
    /// Each indexed relation's ids, then every posting list, each in
    /// `(rel, tuple)` order.
    ids: Vec<FactId>,
    /// Retracted ids, one bit per store row.
    gone: Vec<u64>,
    /// The indexed relations' live facts and their cells.
    facts: usize,
    cells: usize,
}

impl<'a> CoreIndex<'a> {
    /// Indexes the relations of `store` that hold a null, skipping those
    /// `ground` (by `rel.index()`) certifies null-free.
    fn new(store: &'a FactStore, ground: &[bool]) -> CoreIndex<'a> {
        let is_ground = |r: RelId| ground.get(r.index()).copied().unwrap_or(false);
        let indexed: Vec<RelId> = (store.active_relations())
            .filter(|&r| {
                if is_ground(r) {
                    debug_assert!(
                        store
                            .iter_rel(r)
                            .all(|(_, t)| t.iter().all(|v| v.is_const())),
                        "relation {r:?} certified ground but carries a null"
                    );
                    return false;
                }
                store
                    .iter_rel(r)
                    .any(|(_, t)| t.iter().any(|v| v.is_null()))
            })
            .collect();
        let width = indexed.last().map_or(0, |r| r.index() + 1);
        let mut rels = vec![RelIds::default(); width];
        let (mut facts, mut cells) = (0, 0);
        for &r in &indexed {
            let n = store.rel_len(r);
            facts += n;
            cells += n * store.arity(r).unwrap_or(0);
        }
        let mut ids = Vec::with_capacity(facts + cells);
        for &r in &indexed {
            let start = ids.len() as u32;
            store.extend_sorted_rel_ids(r, &mut ids);
            let end = ids.len() as u32;
            rels[r.index()] = RelIds {
                start,
                end,
                live: end - start,
            };
        }
        // Number the posting keys at first sight and count their ids, then
        // lay the lists out back to back. Both passes visit each
        // relation's ids in order, so every list is in `(rel, tuple)`
        // order.
        let arity = |r: RelId| store.arity(r).unwrap_or(0);
        let mut keys = FxHashMap::with_capacity_and_hasher(cells, FxBuildHasher::default());
        let mut key_of_cell: Vec<u32> = Vec::with_capacity(cells);
        let mut fill: Vec<u32> = Vec::with_capacity(cells);
        for &r in &indexed {
            let span = rels[r.index()];
            for pos in 0..arity(r) {
                for &id in &ids[span.start as usize..span.end as usize] {
                    let v = store.tuple(id)[pos];
                    let k = *keys.entry((r, pos as u32, v)).or_insert_with(|| {
                        fill.push(0);
                        fill.len() as u32 - 1
                    });
                    fill[k as usize] += 1;
                    key_of_cell.push(k);
                }
            }
        }
        let mut offsets: Vec<u32> = Vec::with_capacity(fill.len() + 1);
        let mut at = ids.len() as u32;
        for count in &mut fill {
            offsets.push(at);
            at += *count;
            *count = at - *count;
        }
        offsets.push(at);
        ids.resize(at as usize, FactId(0));
        let mut cell = key_of_cell.iter();
        for &r in &indexed {
            let span = rels[r.index()];
            for _ in 0..arity(r) {
                for i in span.start as usize..span.end as usize {
                    let k = *cell.next().expect("one key per cell") as usize;
                    ids[fill[k] as usize] = ids[i];
                    fill[k] += 1;
                }
            }
        }
        CoreIndex {
            store,
            rels,
            keys,
            offsets,
            ids,
            gone: vec![0; store.rows().div_ceil(64)],
            facts,
            cells,
        }
    }

    /// Marks a live id retracted.
    fn retract(&mut self, id: FactId) {
        debug_assert!(self.is_live(id), "retracting a dead id");
        self.gone[id.index() / 64] |= 1 << (id.index() % 64);
        self.rels[self.store.rel_of(id).index()].live -= 1;
    }
}

impl Target for CoreIndex<'_> {
    #[inline]
    fn posting(&self, rel: RelId, pos: u32, value: Value) -> &[FactId] {
        debug_assert!(
            self.rels.get(rel.index()).is_some_and(|r| r.end > r.start),
            "relation {rel:?} is not indexed"
        );
        self.keys.get(&(rel, pos, value)).map_or(&[], |&k| {
            &self.ids[self.offsets[k as usize] as usize..self.offsets[k as usize + 1] as usize]
        })
    }

    #[inline]
    fn rel_ids(&self, rel: RelId) -> &[FactId] {
        let r = self.rels[rel.index()];
        &self.ids[r.start as usize..r.end as usize]
    }

    #[inline]
    fn rel_len(&self, rel: RelId) -> usize {
        self.rels[rel.index()].live as usize
    }

    #[inline]
    fn is_live(&self, id: FactId) -> bool {
        self.gone[id.index() / 64] & (1 << (id.index() % 64)) == 0
    }

    #[inline]
    fn tuple(&self, id: FactId) -> &[Value] {
        self.store.tuple(id)
    }
}

/// A block of the engine: a run of `block_facts`, empty once retracted.
#[derive(Clone, Copy)]
struct Block {
    start: u32,
    len: u32,
}

/// The incremental retraction engine.
struct CoreEngine<'a, 'o, O: HomObserver> {
    inst: &'a Instance,
    index: CoreIndex<'a>,
    /// The distinct nulls of the input, ascending; a null's rank is its
    /// position here.
    nulls: Vec<NullId>,
    /// `rank → block` of each live null.
    block_of: Vec<u32>,
    /// Ranks whose retraction probe must (re)run, one bit each, and the
    /// lowest rank that may be set.
    dirty: Vec<u64>,
    cursor: usize,
    /// Every block's facts, each block a run in `(rel, tuple)` order.
    block_facts: Vec<FactId>,
    blocks: Vec<Block>,
    /// Has any retraction happened?
    retracted: bool,
    /// Reused by every probe: the search state, its fact list and flags.
    trail: Trail,
    facts: Vec<FactRef<'a>>,
    done: Vec<bool>,
    /// Reused by every retraction: the image's ids, an image tuple, the
    /// survivors' union-find and component labels, and the last survivor
    /// seen holding each rank (stamped by retraction count).
    image: Vec<FactId>,
    tuple: Vec<Value>,
    parent: Vec<u32>,
    label: Vec<(u32, FactId)>,
    seen: Vec<(u32, u32)>,
    stamp: u32,
    obs: &'o O,
}

impl<'a, 'o, O: HomObserver> CoreEngine<'a, 'o, O> {
    fn new(inst: &'a Instance, ground: &BTreeSet<RelId>, obs: &'o O) -> Self {
        crate::config::warn_retired_env();
        let store = inst.store();
        let mut mask = vec![false; ground.iter().map(|r| r.index() + 1).max().unwrap_or(0)];
        for r in ground {
            mask[r.index()] = true;
        }
        let index = CoreIndex::new(store, &mask);
        obs.core_phase("index");
        // The null-carrying facts in `(rel, tuple)` order: the indexed
        // relations' id lists, filtered.
        let mut null_facts: Vec<FactId> = Vec::with_capacity(index.facts);
        let mut pairs: Vec<u64> = Vec::with_capacity(index.cells);
        for r in &index.rels {
            for &id in &index.ids[r.start as usize..r.end as usize] {
                let k = null_facts.len() as u64;
                let before = pairs.len();
                for v in store.tuple(id) {
                    if let Value::Null(n) = v {
                        pairs.push(u64::from(n.0) << 32 | k);
                    }
                }
                if pairs.len() > before {
                    null_facts.push(id);
                }
            }
        }
        // Group the facts by null, rank the nulls in order, and merge each
        // null's facts into one block (union-find with minimal roots).
        pairs.sort_unstable();
        let distinct = 1 + pairs
            .windows(2)
            .filter(|w| w[0] >> 32 != w[1] >> 32)
            .count();
        let mut parent: Vec<u32> = (0..null_facts.len() as u32).collect();
        let mut nulls: Vec<NullId> = Vec::with_capacity(distinct);
        let mut first_fact: Vec<u32> = Vec::with_capacity(distinct);
        for &p in &pairs {
            let (n, k) = ((p >> 32) as u32, p as u32);
            if nulls.last() != Some(&NullId(n)) {
                nulls.push(NullId(n));
                first_fact.push(k);
            } else {
                union(&mut parent, k, *first_fact.last().expect("a ranked null"));
            }
        }
        // Blocks ordered by smallest fact, each in fact order.
        let mut block_of_fact = vec![u32::MAX; null_facts.len()];
        let mut blocks: Vec<Block> = Vec::with_capacity(distinct);
        for k in 0..null_facts.len() {
            let root = find(&mut parent, k as u32) as usize;
            if block_of_fact[root] == u32::MAX {
                block_of_fact[root] = blocks.len() as u32;
                blocks.push(Block { start: 0, len: 0 });
            }
            let b = block_of_fact[root];
            block_of_fact[k] = b;
            blocks[b as usize].len += 1;
        }
        let mut at = 0;
        for b in &mut blocks {
            b.start = at;
            at += b.len;
            b.len = 0;
        }
        let mut block_facts = vec![FactId(0); null_facts.len()];
        for (k, &id) in null_facts.iter().enumerate() {
            let b = &mut blocks[block_of_fact[k] as usize];
            block_facts[(b.start + b.len) as usize] = id;
            b.len += 1;
        }
        let block_of: Vec<u32> = first_fact
            .iter()
            .map(|&k| block_of_fact[k as usize])
            .collect();
        let mut dirty = vec![0u64; nulls.len().div_ceil(64)];
        for rank in 0..nulls.len() {
            dirty[rank / 64] |= 1 << (rank % 64);
        }
        let ranks = nulls.len();
        obs.core_phase("blocks");
        CoreEngine {
            inst,
            index,
            nulls,
            block_of,
            dirty,
            cursor: 0,
            block_facts,
            blocks,
            retracted: false,
            trail: Trail::default(),
            facts: Vec::new(),
            done: Vec::new(),
            image: Vec::new(),
            tuple: Vec::new(),
            parent,
            label: Vec::new(),
            seen: vec![(0, 0); ranks],
            stamp: 0,
            obs,
        }
    }

    /// Runs retractions to a fixpoint: probes the smallest dirty null,
    /// retracts through the endomorphism found or marks the null clean.
    fn run(mut self) -> Self {
        while let Some(rank) = self.next_dirty() {
            if self.probe(rank) {
                self.retract(rank);
            } else {
                self.dirty[rank / 64] &= !(1 << (rank % 64));
            }
        }
        self.obs.core_phase("probes");
        self
    }

    /// The smallest dirty rank, if any.
    fn next_dirty(&mut self) -> Option<usize> {
        let mut w = self.cursor / 64;
        let mut word = self.dirty.get(w)? & (u64::MAX << (self.cursor % 64));
        while word == 0 {
            w += 1;
            word = *self.dirty.get(w)?;
        }
        self.cursor = w * 64 + word.trailing_zeros() as usize;
        Some(self.cursor)
    }

    fn set_dirty(&mut self, rank: usize) {
        self.dirty[rank / 64] |= 1 << (rank % 64);
        self.cursor = self.cursor.min(rank);
    }

    fn rank(&self, n: NullId) -> usize {
        self.nulls.binary_search(&n).expect("a ranked null")
    }

    /// Searches an endomorphism of the instance that maps the block of
    /// the null ranked `rank` while avoiding that null; on success the
    /// trail holds it.
    fn probe(&mut self, rank: usize) -> bool {
        let n = Value::Null(self.nulls[rank]);
        let b = self.blocks[self.block_of[rank] as usize];
        let store = self.index.store;
        self.facts.clear();
        self.facts.extend(
            self.block_facts[b.start as usize..(b.start + b.len) as usize]
                .iter()
                .map(|&id| FactRef {
                    rel: store.rel_of(id),
                    args: store.tuple(id),
                }),
        );
        self.trail.reset(&HomMap::new());
        let found = solve(
            &self.facts,
            &self.index,
            &mut self.trail,
            &mut self.done,
            &|_, v| v == n,
            self.obs,
        );
        self.obs.retraction_probe(found);
        found
    }

    /// Applies the retraction the trail holds to the block of the null
    /// ranked `rank`: retracts the block facts that leave the image
    /// `h(B)`, splits the survivors into their new sub-blocks (in place,
    /// ordered by smallest fact) and marks the surviving nulls dirty.
    fn retract(&mut self, rank: usize) {
        self.retracted = true;
        let block = self.blocks[self.block_of[rank] as usize];
        self.blocks[self.block_of[rank] as usize].len = 0;
        let store = self.index.store;
        let run = block.start as usize..(block.start + block.len) as usize;
        self.image.clear();
        for &id in &self.block_facts[run.clone()] {
            self.tuple.clear();
            self.tuple.extend(store.tuple(id).iter().map(|&v| match v {
                Value::Null(m) => self.trail.get(m).expect("every block null is bound"),
                c => c,
            }));
            let img =
                (store.lookup(store.rel_of(id), &self.tuple)).expect("h maps into the instance");
            debug_assert!(self.index.is_live(img), "h maps onto a retracted fact");
            self.image.push(img);
        }
        self.image.sort_unstable();
        let mut kept = 0;
        for i in run {
            let id = self.block_facts[i];
            for &v in store.tuple(id) {
                if let Value::Null(m) = v {
                    let r = self.rank(m);
                    self.dirty[r / 64] &= !(1 << (r % 64));
                }
            }
            if self.image.binary_search(&id).is_ok() {
                self.block_facts[block.start as usize + kept] = id;
                kept += 1;
            } else {
                self.index.retract(id);
            }
        }
        // Union the survivors through shared nulls, then regroup them by
        // component, components by smallest member.
        let survivors = block.start as usize..block.start as usize + kept;
        self.stamp += 1;
        self.parent.clear();
        self.parent.extend(0..kept as u32);
        for j in 0..kept {
            for &v in store.tuple(self.block_facts[block.start as usize + j]) {
                if let Value::Null(m) = v {
                    let r = self.rank(m);
                    debug_assert_ne!(r, rank, "the retraction must drop the probed null");
                    match self.seen[r] {
                        (s, first) if s == self.stamp => union(&mut self.parent, j as u32, first),
                        _ => self.seen[r] = (self.stamp, j as u32),
                    }
                }
            }
        }
        self.label.clear();
        let mut roots: u32 = 0;
        for j in 0..kept {
            let root = find(&mut self.parent, j as u32);
            // Roots are minimal, so a root's label is assigned before any
            // other member of its component asks for it.
            let label = if root == j as u32 {
                roots += 1;
                roots - 1
            } else {
                self.label[root as usize].0
            };
            self.label
                .push((label, self.block_facts[block.start as usize + j]));
        }
        let first_block = self.blocks.len() as u32;
        let mut sorted = std::mem::take(&mut self.label);
        sorted.sort_by_key(|&(label, _)| label);
        let mut at = block.start;
        for group in sorted.chunk_by(|a, b| a.0 == b.0) {
            for (j, &(_, id)) in group.iter().enumerate() {
                self.block_facts[at as usize + j] = id;
            }
            self.blocks.push(Block {
                start: at,
                len: group.len() as u32,
            });
            at += group.len() as u32;
        }
        self.label = sorted;
        for b in first_block..self.blocks.len() as u32 {
            let Block { start, len } = self.blocks[b as usize];
            for i in start..start + len {
                for &v in store.tuple(self.block_facts[i as usize]) {
                    if let Value::Null(m) = v {
                        let r = self.rank(m);
                        self.block_of[r] = b;
                        self.set_dirty(r);
                    }
                }
            }
        }
        debug_assert_eq!(at as usize, survivors.end);
    }

    /// The largest surviving block, or 1 when a ground fact survives (a
    /// singleton f-block); 0 for the empty instance.
    fn f_block_size(&self) -> usize {
        let largest = self
            .blocks
            .iter()
            .map(|b| b.len as usize)
            .max()
            .unwrap_or(0);
        let in_blocks: usize = self.blocks.iter().map(|b| b.len as usize).sum();
        largest.max(usize::from(self.live_len() > in_blocks))
    }

    /// The number of facts left in the core.
    fn live_len(&self) -> usize {
        let gone: u32 = self.index.gone.iter().map(|w| w.count_ones()).sum();
        self.inst.len() - gone as usize
    }

    /// The surviving null blocks as instances, in block order.
    fn block_instances(&self) -> Vec<Instance> {
        let store = self.index.store;
        (self.blocks.iter().filter(|b| b.len > 0))
            .map(|b| {
                let mut inst = Instance::new();
                for &id in &self.block_facts[b.start as usize..(b.start + b.len) as usize] {
                    inst.insert_tuple(store.rel_of(id), store.tuple(id));
                }
                inst
            })
            .collect()
    }

    /// The core: a clone of the input when nothing retracted, otherwise
    /// the surviving facts in a fresh store.
    fn into_core(self) -> Instance {
        let core = if self.retracted {
            let store = self.index.store;
            let mut out = FactStore::with_capacity(self.live_len());
            for (id, rel, args) in store.iter() {
                if self.index.is_live(id) {
                    out.insert(rel, args);
                }
            }
            Instance::from_store(out)
        } else {
            self.inst.clone()
        };
        self.obs.core_phase("result");
        core
    }
}

/// The root of `k`, halving the path on the way.
fn find(parent: &mut [u32], mut k: u32) -> u32 {
    while parent[k as usize] != k {
        parent[k as usize] = parent[parent[k as usize] as usize];
        k = parent[k as usize];
    }
    k
}

/// Merges the sets of `a` and `b` under the smaller root.
fn union(parent: &mut [u32], a: u32, b: u32) {
    let (a, b) = (find(parent, a), find(parent, b));
    parent[a.max(b) as usize] = a.min(b);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn null(i: u32) -> Value {
        Value::Null(NullId(i))
    }

    fn rel() -> (SymbolTable, RelId) {
        let mut syms = SymbolTable::new();
        let r = syms.rel("R");
        (syms, r)
    }

    #[test]
    fn redundant_null_fact_is_folded() {
        let (mut syms, r) = rel();
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        // R(a,b) subsumes R(a,n0).
        let inst = Instance::from_facts([Fact::new(r, vec![a, b]), Fact::new(r, vec![a, null(0)])]);
        let c = core_of(&inst);
        assert_eq!(c.len(), 1);
        assert!(c.contains_tuple(r, &[a, b]));
        assert!(verify_core(&c, &inst));
    }

    #[test]
    fn directed_null_path_is_a_core() {
        let (_syms, r) = rel();
        let inst = Instance::from_facts([
            Fact::new(r, vec![null(0), null(1)]),
            Fact::new(r, vec![null(1), null(2)]),
            Fact::new(r, vec![null(2), null(3)]),
        ]);
        assert!(is_core(&inst));
        assert_eq!(core_of(&inst), inst);
    }

    #[test]
    fn path_with_loop_collapses_to_loop() {
        let (_syms, r) = rel();
        let inst = Instance::from_facts([
            Fact::new(r, vec![null(0), null(1)]),
            Fact::new(r, vec![null(1), null(2)]),
            Fact::new(r, vec![null(2), null(2)]),
        ]);
        let c = core_of(&inst);
        assert_eq!(c.len(), 1);
        assert_eq!(c.nulls().len(), 1);
        assert!(verify_core(&c, &inst));
    }

    #[test]
    fn odd_undirected_cycle_is_a_core() {
        // Example 4.8: core(chase(I_n, σ)) is the undirected n-cycle for
        // odd n.
        let (_syms, r) = rel();
        let mut inst = Instance::new();
        let n = 5u32;
        for i in 0..n {
            let j = (i + 1) % n;
            inst.insert(Fact::new(r, vec![null(i), null(j)]));
            inst.insert(Fact::new(r, vec![null(j), null(i)]));
        }
        assert!(is_core(&inst));
    }

    #[test]
    fn even_undirected_cycle_collapses_to_edge() {
        let (_syms, r) = rel();
        let mut inst = Instance::new();
        let n = 6u32;
        for i in 0..n {
            let j = (i + 1) % n;
            inst.insert(Fact::new(r, vec![null(i), null(j)]));
            inst.insert(Fact::new(r, vec![null(j), null(i)]));
        }
        let c = core_of(&inst);
        // A single undirected edge: 2 facts, 2 nulls.
        assert_eq!(c.len(), 2);
        assert_eq!(c.nulls().len(), 2);
        assert!(verify_core(&c, &inst));
    }

    #[test]
    fn cross_block_folding() {
        let (mut syms, r) = rel();
        let a = Value::Const(syms.constant("a"));
        // Block 1: R(a, n0); block 2: R(a, n1), R(n1, n1).
        // Block 1 folds into block 2 (n0 ↦ n1).
        let inst = Instance::from_facts([
            Fact::new(r, vec![a, null(0)]),
            Fact::new(r, vec![a, null(1)]),
            Fact::new(r, vec![null(1), null(1)]),
        ]);
        let c = core_of(&inst);
        assert_eq!(c.nulls().len(), 1);
        assert_eq!(c.len(), 2);
        assert!(verify_core(&c, &inst));
    }

    #[test]
    fn ground_instance_is_its_own_core() {
        let (mut syms, r) = rel();
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let inst = Instance::from_facts([Fact::new(r, vec![a, b]), Fact::new(r, vec![b, a])]);
        assert_eq!(core_of(&inst), inst);
        assert!(is_core(&inst));
    }

    #[test]
    fn empty_instance_core() {
        let inst = Instance::new();
        assert!(is_core(&inst));
        assert!(core_of(&inst).is_empty());
        let (c, blocks) = core_and_blocks(&inst);
        assert!(c.is_empty());
        assert!(blocks.is_empty());
    }

    #[test]
    fn core_and_blocks_matches_f_blocks() {
        let (mut syms, r) = rel();
        let a = Value::Const(syms.constant("a"));
        // Mixed shape: a folding even cycle, a redundant null fact, a
        // ground fact, and a core path.
        let mut inst = Instance::new();
        for i in 0..4u32 {
            let j = (i + 1) % 4;
            inst.insert(Fact::new(r, vec![null(i), null(j)]));
            inst.insert(Fact::new(r, vec![null(j), null(i)]));
        }
        inst.insert(Fact::new(r, vec![a, null(10)]));
        inst.insert(Fact::new(r, vec![a, a]));
        inst.insert(Fact::new(r, vec![null(20), null(21)]));
        inst.insert(Fact::new(r, vec![null(21), null(22)]));
        let (core, blocks) = core_and_blocks(&inst);
        assert_eq!(core, core_of(&inst));
        assert_eq!(blocks, crate::f_blocks(&core));
        assert_eq!(
            core_f_block_size(&inst),
            blocks.iter().map(Instance::len).max().unwrap()
        );
    }

    #[test]
    fn ground_hint_core_is_identical() {
        let (mut syms, r) = rel();
        let g = syms.rel("G");
        let a = Value::Const(syms.constant("a"));
        // A folding even cycle plus a redundant null fact, over a large
        // certified-ground relation the initial scan can dismiss by id.
        let mut inst = Instance::new();
        for i in 0..4u32 {
            let j = (i + 1) % 4;
            inst.insert(Fact::new(r, vec![null(i), null(j)]));
            inst.insert(Fact::new(r, vec![null(j), null(i)]));
        }
        inst.insert(Fact::new(r, vec![a, null(9)]));
        inst.insert(Fact::new(r, vec![a, a]));
        for i in 0..40 {
            inst.insert(Fact::new(
                g,
                vec![a, Value::Const(syms.constant(&format!("c{i}")))],
            ));
        }
        let hinted = core_of_assuming_ground(&inst, &BTreeSet::from([g]));
        assert_eq!(hinted, core_of(&inst));
        assert!(verify_core(&hinted, &inst));
        // An empty hint is exactly `core_of`.
        assert_eq!(core_of_assuming_ground(&inst, &BTreeSet::new()), hinted);
    }

    #[test]
    fn agrees_with_scan_engine_on_fixtures() {
        let (mut syms, r) = rel();
        let a = Value::Const(syms.constant("a"));
        let shapes = [
            Instance::from_facts([Fact::new(r, vec![a, null(0)]), Fact::new(r, vec![a, a])]),
            Instance::from_facts([
                Fact::new(r, vec![null(0), null(1)]),
                Fact::new(r, vec![null(1), null(2)]),
                Fact::new(r, vec![null(2), null(2)]),
            ]),
            {
                let mut even = Instance::new();
                for i in 0..6u32 {
                    let j = (i + 1) % 6;
                    even.insert(Fact::new(r, vec![null(i), null(j)]));
                    even.insert(Fact::new(r, vec![null(j), null(i)]));
                }
                even
            },
        ];
        for inst in &shapes {
            assert_eq!(core_of(inst), crate::scan::core_of_scan(inst), "{inst:?}");
            assert_eq!(is_core(inst), crate::scan::is_core_scan(inst));
        }
    }
}
