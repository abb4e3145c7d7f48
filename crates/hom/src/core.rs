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
//! is untouched. So the engine keeps one [`TupleIndex`] updated in place
//! across retractions and re-probes only *dirty* nulls: a null whose probe
//! failed stays failed while its block is unchanged and the instance only
//! shrinks (homomorphisms into a shrinking target never appear), so only
//! the surviving nulls of the retracted block ever need rechecking. Probes
//! for distinct nulls are independent and run on `std::thread::scope`
//! workers above the configured cutoff (see [`HomConfig`]); retractions
//! are applied smallest-null-first, so results are identical to the
//! sequential engine.

use crate::blocks::{null_blocks, null_blocks_with_ground};
use crate::config::HomConfig;
use crate::hom::{apply_value, homomorphic, solve_block, HomMap};
use ndl_core::prelude::*;
use ndl_obs::{HomObserver, NoopObserver};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Computes the core of `inst`.
pub fn core_of(inst: &Instance) -> Instance {
    core_of_observed(inst, &NoopObserver)
}

/// [`core_of`] reporting its work to a [`HomObserver`] (retraction probes,
/// block searches, backtracks, worker dispatches). With [`NoopObserver`]
/// this compiles to the uninstrumented engine.
pub fn core_of_observed<O: HomObserver>(inst: &Instance, obs: &O) -> Instance {
    CoreEngine::new(inst, &BTreeSet::new(), obs).run().0
}

/// [`core_of`] with a set of relations externally certified null-free
/// (e.g. the `ground` set of a verified dataflow certificate): the
/// engine's initial block scan dismisses their facts by relation-id
/// lookup instead of scanning every argument for nulls. The result is
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
    CoreEngine::new(inst, ground, obs).run().0
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
    let (core, mut blocks) = CoreEngine::new(inst, &BTreeSet::new(), obs).run();
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
    let (core, blocks) = CoreEngine::new(inst, &BTreeSet::new(), &NoopObserver).run();
    let largest = blocks.iter().map(Instance::len).max().unwrap_or(0);
    let ground = (core.facts_unordered()).any(|f| f.args.iter().all(|v| !v.is_null()));
    (core, largest.max(usize::from(ground)))
}

/// Is `inst` a core (no proper retraction)? Probes all nulls, in parallel
/// above the configured cutoff.
pub fn is_core(inst: &Instance) -> bool {
    is_core_observed(inst, &NoopObserver)
}

/// [`is_core`] reporting its work to a [`HomObserver`].
pub fn is_core_observed<O: HomObserver>(inst: &Instance, obs: &O) -> bool {
    let index = TupleIndex::from_instance(inst);
    let blocks = null_blocks(inst);
    let block_of = null_block_map(&blocks);
    let nulls: Vec<NullId> = inst.nulls().into_iter().collect();
    let probe = |n: NullId| -> bool {
        // Does a retraction avoiding `n` exist?
        let retracted = endo_avoiding(&blocks[block_of[&n]], &index, n, obs).is_some();
        obs.retraction_probe(retracted);
        retracted
    };
    let workers = HomConfig::from_env().effective_threads(nulls.len(), index.len());
    if workers <= 1 {
        return !nulls.into_iter().any(probe);
    }
    obs.threads_dispatched(workers);
    let found = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                if found.load(Ordering::Relaxed) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&n) = nulls.get(i) else { return };
                if probe(n) {
                    found.store(true, Ordering::Relaxed);
                    return;
                }
            });
        }
    });
    !found.load(Ordering::Relaxed)
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

/// Finds an endomorphism retracting `block` into the indexed instance
/// while avoiding the null `n` (identity outside the block), if one
/// exists.
fn endo_avoiding<O: HomObserver>(
    block: &Instance,
    index: &TupleIndex,
    n: NullId,
    obs: &O,
) -> Option<HomMap> {
    let assignments = solve_block(
        block,
        index,
        &HomMap::new(),
        &|_, v| v == Value::Null(n),
        obs,
    )?;
    Some(assignments.into_iter().collect())
}

/// `null → index of its block` over a block list.
fn null_block_map(blocks: &[Instance]) -> FxHashMap<NullId, usize> {
    let mut map = FxHashMap::default();
    for (i, b) in blocks.iter().enumerate() {
        for n in b.nulls() {
            map.insert(n, i);
        }
    }
    map
}

/// The incremental retraction engine.
struct CoreEngine<'o, O: HomObserver> {
    /// Index of the current instance, updated in place on retraction.
    index: TupleIndex,
    /// Live blocks (`None` once retracted/split); grows as blocks split.
    blocks: Vec<Option<Instance>>,
    /// `null → blocks index` for live nulls.
    block_of: FxHashMap<NullId, usize>,
    /// Nulls whose retraction probe must (re)run, in ascending order.
    dirty: BTreeSet<NullId>,
    /// Event sink shared with worker threads.
    obs: &'o O,
}

impl<'o, O: HomObserver> CoreEngine<'o, O> {
    fn new(inst: &Instance, ground: &BTreeSet<RelId>, obs: &'o O) -> CoreEngine<'o, O> {
        let index = TupleIndex::from_instance(inst);
        let mut engine = CoreEngine {
            index,
            blocks: Vec::new(),
            block_of: FxHashMap::default(),
            dirty: BTreeSet::new(),
            obs,
        };
        for block in null_blocks_with_ground(inst, ground) {
            engine.add_block(block);
        }
        engine
    }

    /// Registers a block, marking its nulls dirty.
    fn add_block(&mut self, block: Instance) {
        let idx = self.blocks.len();
        for n in block.nulls() {
            self.block_of.insert(n, idx);
            self.dirty.insert(n);
        }
        self.blocks.push(Some(block));
    }

    /// Runs retractions to a fixpoint; returns the core and its surviving
    /// null-carrying blocks (unsorted — `core_and_blocks` adds the ground
    /// singletons and imposes the `f_blocks` order).
    fn run(mut self) -> (Instance, Vec<Instance>) {
        while let Some((n, h)) = self.find_retraction() {
            self.retract(n, &h);
        }
        let core = self.index.to_instance();
        let live: Vec<Instance> = self.blocks.into_iter().flatten().collect();
        (core, live)
    }

    /// Probes a retraction avoiding `n` against the current index.
    fn probe(&self, n: NullId) -> Option<HomMap> {
        let block = self.blocks[self.block_of[&n]].as_ref().expect("live block");
        let found = endo_avoiding(block, &self.index, n, self.obs);
        self.obs.retraction_probe(found.is_some());
        found
    }

    /// Finds the smallest dirty null admitting a retraction, cleaning every
    /// probed-and-failed null along the way. Above the configured cutoff
    /// one scope of workers probes the dirty nulls in ascending order; the
    /// smallest-null-first retraction order (and hence the result) is
    /// independent of the worker count.
    fn find_retraction(&mut self) -> Option<(NullId, HomMap)> {
        let workers = HomConfig::from_env().effective_threads(self.dirty.len(), self.index.len());
        if workers <= 1 {
            while let Some(&n) = self.dirty.first() {
                match self.probe(n) {
                    Some(h) => return Some((n, h)),
                    None => {
                        self.dirty.remove(&n);
                    }
                }
            }
            return None;
        }
        // Workers claim nulls in ascending order and stop claiming past the
        // smallest success seen so far, so every null below the smallest
        // success has been probed when the scope ends. Failures are clean
        // regardless of position — a failed probe stays failed while the
        // block is unchanged and the instance shrinks; `retract` re-dirties
        // any null whose block changes. Spawning once per call, not once
        // per `workers` nulls, keeps thread start-up off the per-probe cost.
        self.obs.threads_dispatched(workers);
        let nulls: Vec<NullId> = self.dirty.iter().copied().collect();
        let probes: Vec<OnceLock<Option<HomMap>>> =
            (0..nulls.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let first_hit = AtomicUsize::new(usize::MAX);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= nulls.len() || i > first_hit.load(Ordering::Relaxed) {
                        return;
                    }
                    let found = self.probe(nulls[i]);
                    if found.is_some() {
                        first_hit.fetch_min(i, Ordering::Relaxed);
                    }
                    let _ = probes[i].set(found);
                });
            }
        });
        for (i, &n) in nulls.iter().enumerate() {
            match probes[i].get().expect("probed") {
                Some(h) => return Some((n, h.clone())),
                None => {
                    self.dirty.remove(&n);
                }
            }
        }
        None
    }

    /// Applies the retraction `h` of the block of `n`: removes the block
    /// facts that leave the image `h(B)`, splits the survivors into their
    /// new sub-blocks and marks the surviving nulls dirty.
    fn retract(&mut self, n: NullId, h: &HomMap) {
        let idx = self.block_of[&n];
        let block = self.blocks[idx].take().expect("live block");
        let image: BTreeSet<Fact> = block
            .facts()
            .map(|f| {
                Fact::new(
                    f.rel,
                    f.args
                        .iter()
                        .map(|&v| apply_value(h, v))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut survivors = Instance::new();
        for f in block.facts() {
            if image.contains(&f.to_fact()) {
                survivors.insert_tuple(f.rel, f.args);
            } else {
                self.index.remove_tuple(f.rel, f.args);
            }
        }
        for m in block.nulls() {
            self.block_of.remove(&m);
            self.dirty.remove(&m);
        }
        for sub in null_blocks(&survivors) {
            debug_assert!(!sub.nulls().contains(&n), "retraction must drop {n:?}");
            self.add_block(sub);
        }
    }
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
