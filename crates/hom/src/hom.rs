//! Homomorphism search between target instances.
//!
//! A homomorphism `h : J1 → J2` is the identity on constants and maps every
//! fact of `J1` to a fact of `J2` (paper, Section 2). Since distinct
//! f-blocks share no nulls, `J1 → J2` holds iff every f-block of `J1` maps
//! into `J2` independently — the decomposition used both for correctness in
//! the IMPLIES procedure and as the main performance lever here.
//!
//! The engine (rebuilt for scale — the original scan engine survives as
//! [`crate::scan`] for reference and benchmarking):
//!
//! - **Indexed candidates.** The target is consulted through a shared
//!   [`TupleIndex`]: a fact with any bound position draws its candidate
//!   tuples from the shortest matching posting list instead of scanning
//!   the whole relation. Posting lists preserve the deterministic
//!   `Instance` order, so the search visits candidates in exactly the
//!   order the old full scan did (filtered), keeping found homomorphisms
//!   reproducible.
//! - **True MRV.** The next fact to match is the one with the fewest
//!   remaining candidate tuples under the current assignment (ties to the
//!   lowest fact index), not merely the fewest unassigned nulls.
//! - **Undo-trail assignment.** One flat `FxHashMap` assignment per block
//!   with a trail of newly bound nulls, unwound on backtrack — no
//!   `BTreeMap` clone per block.

use crate::blocks::f_blocks;
use ndl_core::prelude::*;
use ndl_obs::{HomObserver, NoopObserver};
use std::collections::BTreeMap;

/// A homomorphism represented by its action on nulls (identity on
/// constants).
pub type HomMap = BTreeMap<NullId, Value>;

/// A constraint on null assignments: `forbid(n, v)` blocks `h(n) = v`.
pub type Forbid<'a> = &'a dyn Fn(NullId, Value) -> bool;

/// Applies a homomorphism to a value.
pub fn apply_value(h: &HomMap, v: Value) -> Value {
    match v {
        Value::Const(_) => v,
        Value::Null(n) => h.get(&n).copied().unwrap_or(v),
    }
}

/// Applies a homomorphism to an instance, producing its image `h(J)`.
pub fn apply(h: &HomMap, inst: &Instance) -> Instance {
    inst.map_values(&|v| apply_value(h, v))
}

/// Checks that `h` is a homomorphism from `from` into `to`.
pub fn is_homomorphism(h: &HomMap, from: &Instance, to: &Instance) -> bool {
    apply(h, from).is_subinstance_of(to)
}

/// Finds a homomorphism from `from` into `to`, if one exists.
pub fn find_homomorphism(from: &Instance, to: &Instance) -> Option<HomMap> {
    find_homomorphism_constrained(from, to, &HomMap::new(), &|_, _| false)
}

/// Does a homomorphism from `from` into `to` exist?
pub fn homomorphic(from: &Instance, to: &Instance) -> bool {
    find_homomorphism(from, to).is_some()
}

/// Are the two instances homomorphically equivalent (`J1 ↔ J2`)?
pub fn hom_equivalent(a: &Instance, b: &Instance) -> bool {
    homomorphic(a, b) && homomorphic(b, a)
}

/// Finds a homomorphism from `from` into `to` extending `fixed` and never
/// assigning `h(n) = v` when `forbid(n, v)` holds. The constraint hooks
/// support core computation (find an endomorphism avoiding a given null).
///
/// Builds a [`TupleIndex`] over `to`; callers testing many sources against
/// one target should build the index once and use
/// [`find_homomorphism_into`].
pub fn find_homomorphism_constrained(
    from: &Instance,
    to: &Instance,
    fixed: &HomMap,
    forbid: Forbid<'_>,
) -> Option<HomMap> {
    let index = TupleIndex::from_instance(to);
    find_homomorphism_into(from, &index, fixed, forbid)
}

/// Finds a homomorphism from `from` into the indexed target `to`,
/// extending `fixed` under `forbid` — the reuse-friendly entry point: the
/// caller keeps one [`TupleIndex`] across many searches (the core engine
/// updates one in place across retractions).
pub fn find_homomorphism_into(
    from: &Instance,
    to: &TupleIndex,
    fixed: &HomMap,
    forbid: Forbid<'_>,
) -> Option<HomMap> {
    find_homomorphism_into_observed(from, to, fixed, forbid, &NoopObserver)
}

/// [`find_homomorphism_into`] reporting its work to a [`HomObserver`]:
/// MRV decisions, posting-list probes, backtracks and block searches.
/// With [`NoopObserver`] this compiles to the uninstrumented search.
pub fn find_homomorphism_into_observed<O: HomObserver>(
    from: &Instance,
    to: &TupleIndex,
    fixed: &HomMap,
    forbid: Forbid<'_>,
    obs: &O,
) -> Option<HomMap> {
    crate::config::warn_retired_env();
    // Blocks share no free nulls, so each is solved on its own and the
    // union of their assignments is well defined.
    let mut total = fixed.clone();
    for block in f_blocks(from) {
        total.extend(solve_block(&block, to, fixed, forbid, obs)?);
    }
    Some(total)
}

/// Backtracking search for one (connected) f-block against the indexed
/// target. Returns the assignments made for this block's nulls, or `None`
/// if the block does not map.
fn solve_block<O: HomObserver>(
    block: &Instance,
    to: &TupleIndex,
    fixed: &HomMap,
    forbid: Forbid<'_>,
    obs: &O,
) -> Option<Vec<(NullId, Value)>> {
    let facts: Vec<FactRef<'_>> = block.facts().collect();
    let mut st = Trail::default();
    st.reset(fixed);
    let mut done = Vec::new();
    if solve(&facts, to, &mut st, &mut done, forbid, obs) {
        Some(st.assignments().collect())
    } else {
        None
    }
}

/// Searches a mapping of `facts` (one connected f-block, in `(rel, tuple)`
/// order) into `to`, extending the assignment `st` was reset to. `done`
/// is scratch space; callers probing many blocks pass the same `st` and
/// `done` every time, so a probe allocates nothing once they have grown.
pub(crate) fn solve<T: Target, O: HomObserver>(
    facts: &[FactRef<'_>],
    to: &T,
    st: &mut Trail,
    done: &mut Vec<bool>,
    forbid: Forbid<'_>,
    obs: &O,
) -> bool {
    done.clear();
    done.resize(facts.len(), false);
    let solved = search(facts, done, to, st, forbid, obs);
    obs.block_search(facts.len(), solved);
    solved
}

/// What the search reads of its target: posting lists and relation id
/// lists in `(rel, tuple)` order (dead ids included, filtered through
/// [`Target::is_live`]), live relation sizes and tuples by id.
/// [`TupleIndex`] is one; the core engine's index over a borrowed store
/// is the other.
pub(crate) trait Target {
    /// Ids of the tuples of `rel` with `value` at `pos`.
    fn posting(&self, rel: RelId, pos: u32, value: Value) -> &[TupleId];
    /// Ids of all tuples of `rel`.
    fn rel_ids(&self, rel: RelId) -> &[TupleId];
    /// Number of live tuples of `rel`.
    fn rel_len(&self, rel: RelId) -> usize;
    /// Is the tuple id live?
    fn is_live(&self, id: TupleId) -> bool;
    /// The tuple stored under `id`.
    fn tuple(&self, id: TupleId) -> &[Value];
}

impl Target for TupleIndex {
    #[inline]
    fn posting(&self, rel: RelId, pos: u32, value: Value) -> &[TupleId] {
        TupleIndex::posting(self, rel, pos, value)
    }
    #[inline]
    fn rel_ids(&self, rel: RelId) -> &[TupleId] {
        TupleIndex::rel_ids(self, rel)
    }
    #[inline]
    fn rel_len(&self, rel: RelId) -> usize {
        TupleIndex::rel_len(self, rel)
    }
    #[inline]
    fn is_live(&self, id: TupleId) -> bool {
        TupleIndex::is_live(self, id)
    }
    #[inline]
    fn tuple(&self, id: TupleId) -> &[Value] {
        TupleIndex::tuple(self, id)
    }
}

/// The search state: a flat assignment map plus the trail of nulls bound
/// during this block's search, unwound on backtrack. Reset and reused
/// across searches, it keeps its capacity.
#[derive(Default)]
pub(crate) struct Trail {
    map: FxHashMap<NullId, Value>,
    log: Vec<NullId>,
}

impl Trail {
    /// Empties the state and pre-binds `fixed` (never logged).
    pub(crate) fn reset(&mut self, fixed: &HomMap) {
        self.map.clear();
        self.log.clear();
        self.map.extend(fixed.iter().map(|(&n, &v)| (n, v)));
    }

    /// The value `n` is bound to, if any.
    #[inline]
    pub(crate) fn get(&self, n: NullId) -> Option<Value> {
        self.map.get(&n).copied()
    }

    #[inline]
    fn bind(&mut self, n: NullId, v: Value) {
        self.map.insert(n, v);
        self.log.push(n);
    }

    #[inline]
    fn undo_to(&mut self, mark: usize) {
        for n in self.log.drain(mark..) {
            self.map.remove(&n);
        }
    }

    /// The block's own assignments in binding order: exactly the trail
    /// entries (pre-fixed nulls are in `map` but never logged).
    pub(crate) fn assignments(&self) -> impl Iterator<Item = (NullId, Value)> + '_ {
        self.log.iter().map(|n| (*n, self.map[n]))
    }
}

fn search<T: Target, O: HomObserver>(
    facts: &[FactRef<'_>],
    done: &mut [bool],
    to: &T,
    st: &mut Trail,
    forbid: Forbid<'_>,
    obs: &O,
) -> bool {
    // True MRV: pick the unprocessed fact with the fewest candidate tuples
    // under the current assignment (ties to the lowest index). A zero count
    // is taken immediately — that fact fails and prunes the branch now.
    let mut best: Option<(usize, usize)> = None;
    let mut probes = 0u64;
    for i in 0..facts.len() {
        if done[i] {
            continue;
        }
        let count = candidate_count(facts[i], to, st);
        probes += 1;
        if best.is_none_or(|(c, _)| count < c) {
            best = Some((count, i));
            if count == 0 {
                break;
            }
        }
    }
    if O::ENABLED && probes > 0 {
        obs.index_probes(probes);
    }
    let Some((_, i)) = best else { return true };
    obs.mrv_decision();
    done[i] = true;
    let fact = facts[i];
    for &id in candidates(fact, to, st) {
        if !to.is_live(id) {
            continue;
        }
        let mark = st.log.len();
        if try_map(fact, to.tuple(id), st, forbid) {
            if search(facts, done, to, st, forbid, obs) {
                done[i] = false;
                return true;
            }
            st.undo_to(mark);
        }
    }
    obs.backtrack();
    done[i] = false;
    false
}

/// The value a fact position is bound to, if any: constants are rigid and
/// assigned nulls are pinned.
#[inline]
fn bound_value(arg: Value, st: &Trail) -> Option<Value> {
    match arg {
        Value::Const(_) => Some(arg),
        Value::Null(n) => st.get(n),
    }
}

/// Upper bound on the number of candidate target tuples for `fact`: the
/// shortest posting list over its bound positions (dead ids counted), or
/// the relation's live size when nothing is bound.
fn candidate_count<T: Target>(fact: FactRef<'_>, to: &T, st: &Trail) -> usize {
    let mut best = usize::MAX;
    for (pos, &arg) in fact.args.iter().enumerate() {
        if let Some(v) = bound_value(arg, st) {
            best = best.min(to.posting(fact.rel, pos as u32, v).len());
            if best == 0 {
                return 0;
            }
        }
    }
    if best == usize::MAX {
        to.rel_len(fact.rel)
    } else {
        best
    }
}

/// The tightest candidate id list for `fact`: the shortest posting list
/// over its bound positions, or the whole relation when nothing is bound.
/// Ids come back in deterministic `(rel, tuple)` order and may include
/// dead entries (filtered by the caller).
fn candidates<'a, T: Target>(fact: FactRef<'_>, to: &'a T, st: &Trail) -> &'a [TupleId] {
    let mut best: Option<&'a [TupleId]> = None;
    for (pos, &arg) in fact.args.iter().enumerate() {
        if let Some(v) = bound_value(arg, st) {
            let posting = to.posting(fact.rel, pos as u32, v);
            if posting.is_empty() {
                return &[];
            }
            if best.is_none_or(|b| posting.len() < b.len()) {
                best = Some(posting);
            }
        }
    }
    best.unwrap_or_else(|| to.rel_ids(fact.rel))
}

/// Tries to map `fact` onto `tuple`; on success extends the assignment (new
/// bindings logged on the trail), on failure leaves it untouched.
fn try_map(fact: FactRef<'_>, tuple: &[Value], st: &mut Trail, forbid: Forbid<'_>) -> bool {
    debug_assert_eq!(fact.args.len(), tuple.len());
    let mark = st.log.len();
    for (&src, &dst) in fact.args.iter().zip(tuple.iter()) {
        let ok = match src {
            Value::Const(_) => src == dst,
            Value::Null(n) => match st.get(n) {
                Some(bound) => bound == dst,
                None => {
                    if forbid(n, dst) {
                        false
                    } else {
                        st.bind(n, dst);
                        true
                    }
                }
            },
        };
        if !ok {
            st.undo_to(mark);
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms_with_rel() -> (SymbolTable, RelId) {
        let mut syms = SymbolTable::new();
        let r = syms.rel("R");
        (syms, r)
    }

    fn null(i: u32) -> Value {
        Value::Null(NullId(i))
    }

    #[test]
    fn constants_are_rigid() {
        let (mut syms, r) = syms_with_rel();
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let from = Instance::from_facts([Fact::new(r, vec![a])]);
        let to = Instance::from_facts([Fact::new(r, vec![b])]);
        assert!(!homomorphic(&from, &to));
        let to2 = Instance::from_facts([Fact::new(r, vec![a]), Fact::new(r, vec![b])]);
        assert!(homomorphic(&from, &to2));
    }

    #[test]
    fn null_can_map_to_constant_or_null() {
        let (mut syms, r) = syms_with_rel();
        let a = Value::Const(syms.constant("a"));
        let from = Instance::from_facts([Fact::new(r, vec![null(0), null(0)])]);
        let to = Instance::from_facts([Fact::new(r, vec![a, a])]);
        let h = find_homomorphism(&from, &to).unwrap();
        assert_eq!(h[&NullId(0)], a);
        assert!(is_homomorphism(&h, &from, &to));
    }

    #[test]
    fn shared_nulls_propagate() {
        let (mut syms, r) = syms_with_rel();
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let c = Value::Const(syms.constant("c"));
        // R(n0, b), R(n0, c): n0 must work for both facts.
        let from = Instance::from_facts([
            Fact::new(r, vec![null(0), b]),
            Fact::new(r, vec![null(0), c]),
        ]);
        let to_good = Instance::from_facts([Fact::new(r, vec![a, b]), Fact::new(r, vec![a, c])]);
        let to_bad = Instance::from_facts([Fact::new(r, vec![a, b]), Fact::new(r, vec![b, c])]);
        assert!(homomorphic(&from, &to_good));
        assert!(!homomorphic(&from, &to_bad));
    }

    #[test]
    fn directed_path_does_not_fold() {
        // A directed 3-path of nulls has no hom into a directed 2-path.
        let (_syms, r) = syms_with_rel();
        let from = Instance::from_facts([
            Fact::new(r, vec![null(0), null(1)]),
            Fact::new(r, vec![null(1), null(2)]),
            Fact::new(r, vec![null(2), null(3)]),
        ]);
        let to = Instance::from_facts([
            Fact::new(r, vec![null(10), null(11)]),
            Fact::new(r, vec![null(11), null(12)]),
        ]);
        assert!(!homomorphic(&from, &to));
        // But it maps into a self-loop.
        let lp = Instance::from_facts([Fact::new(r, vec![null(20), null(20)])]);
        assert!(homomorphic(&from, &lp));
    }

    #[test]
    fn odd_cycle_does_not_map_to_shorter_odd_cycle_edge() {
        // Undirected 5-cycle (as symmetric directed edges) has no hom into
        // a single undirected edge (= 2-coloring would be required... it is
        // bipartite! A 5-cycle is NOT 2-colorable, so no hom to an edge).
        let (_syms, r) = syms_with_rel();
        let mut from = Instance::new();
        for i in 0..5u32 {
            let j = (i + 1) % 5;
            from.insert(Fact::new(r, vec![null(i), null(j)]));
            from.insert(Fact::new(r, vec![null(j), null(i)]));
        }
        let edge = Instance::from_facts([
            Fact::new(r, vec![null(10), null(11)]),
            Fact::new(r, vec![null(11), null(10)]),
        ]);
        assert!(!homomorphic(&from, &edge));
        // An even cycle does map to an edge.
        let mut even = Instance::new();
        for i in 0..4u32 {
            let j = (i + 1) % 4;
            even.insert(Fact::new(r, vec![null(i), null(j)]));
            even.insert(Fact::new(r, vec![null(j), null(i)]));
        }
        assert!(homomorphic(&even, &edge));
    }

    #[test]
    fn constrained_search_respects_forbid() {
        let (_syms, r) = syms_with_rel();
        let inst = Instance::from_facts([
            Fact::new(r, vec![null(0), null(1)]),
            Fact::new(r, vec![null(1), null(1)]),
        ]);
        // Endomorphism avoiding null 0 exists: 0 ↦ 1.
        let h = find_homomorphism_constrained(&inst, &inst, &HomMap::new(), &|_, v| v == null(0))
            .unwrap();
        assert_eq!(h[&NullId(0)], null(1));
        // Avoiding null 1 is impossible (the loop must map to a loop).
        assert!(
            find_homomorphism_constrained(&inst, &inst, &HomMap::new(), &|_, v| { v == null(1) })
                .is_none()
        );
    }

    #[test]
    fn fixed_assignments_are_honored() {
        let (mut syms, r) = syms_with_rel();
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let from = Instance::from_facts([Fact::new(r, vec![null(0)])]);
        let to = Instance::from_facts([Fact::new(r, vec![a]), Fact::new(r, vec![b])]);
        let mut fixed = HomMap::new();
        fixed.insert(NullId(0), b);
        let h = find_homomorphism_constrained(&from, &to, &fixed, &|_, _| false).unwrap();
        assert_eq!(h[&NullId(0)], b);
    }

    #[test]
    fn ground_facts_require_containment() {
        let (mut syms, r) = syms_with_rel();
        let a = Value::Const(syms.constant("a"));
        let from = Instance::from_facts([Fact::new(r, vec![a, a])]);
        let to = Instance::new();
        assert!(!homomorphic(&from, &to));
        assert!(homomorphic(&from, &from));
    }

    #[test]
    fn hom_equivalence_of_loop_and_long_path_with_loop() {
        let (_syms, r) = syms_with_rel();
        let lp = Instance::from_facts([Fact::new(r, vec![null(0), null(0)])]);
        let path_loop = Instance::from_facts([
            Fact::new(r, vec![null(1), null(2)]),
            Fact::new(r, vec![null(2), null(2)]),
        ]);
        assert!(hom_equivalent(&lp, &path_loop));
    }

    #[test]
    fn indexed_entry_point_reuses_one_index() {
        let (mut syms, r) = syms_with_rel();
        let a = Value::Const(syms.constant("a"));
        let to = Instance::from_facts([Fact::new(r, vec![a, a])]);
        let index = TupleIndex::from_instance(&to);
        for i in 0..4u32 {
            let from = Instance::from_facts([Fact::new(r, vec![null(i), a])]);
            let h = find_homomorphism_into(&from, &index, &HomMap::new(), &|_, _| false).unwrap();
            assert_eq!(h[&NullId(i)], a);
        }
    }

    #[test]
    fn agrees_with_scan_engine_on_fixtures() {
        let (mut syms, r) = syms_with_rel();
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let shapes = [
            Instance::from_facts([Fact::new(r, vec![null(0), null(1)])]),
            Instance::from_facts([
                Fact::new(r, vec![null(0), null(1)]),
                Fact::new(r, vec![null(1), null(2)]),
                Fact::new(r, vec![null(2), null(0)]),
            ]),
            Instance::from_facts([Fact::new(r, vec![a, b]), Fact::new(r, vec![b, null(3)])]),
            Instance::from_facts([Fact::new(r, vec![a, a])]),
        ];
        for from in &shapes {
            for to in &shapes {
                assert_eq!(
                    homomorphic(from, to),
                    crate::scan::homomorphic_scan(from, to),
                    "from={from:?} to={to:?}"
                );
            }
        }
    }
}
