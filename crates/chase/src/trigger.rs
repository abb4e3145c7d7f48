//! Conjunctive-query matching: enumerate the assignments under which a
//! conjunction of atoms holds in an instance, extending a partial binding.
//!
//! This is the trigger-finding primitive shared by all chase engines and by
//! the model checkers in `ndl-reasoning`.

use ndl_core::prelude::*;
use std::fmt;
use std::ops::{ControlFlow, Index};

/// A (partial) variable assignment: one slot per variable, indexed by
/// [`VarId`], so a lookup is a bounds-checked load and binding or
/// unbinding a variable writes one slot — the matchers do this for every
/// candidate tuple they try. The slot vector grows to the largest
/// variable ever bound and never shrinks; a cleared slot is just unbound.
///
/// Observably it is the ordered map `VarId → Value` it replaces:
/// iteration is in `VarId` order over bound variables only, and equality
/// and ordering compare the bound `(VarId, Value)` pairs, whatever the
/// slot vector's length.
#[derive(Clone, Default)]
pub struct Binding {
    slots: Vec<Option<Value>>,
    len: usize,
}

impl Binding {
    /// The empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value bound to `var`, if any.
    #[inline]
    pub fn get(&self, var: &VarId) -> Option<&Value> {
        self.slots.get(var.index()).and_then(Option::as_ref)
    }

    /// Is `var` bound?
    #[inline]
    pub fn contains_key(&self, var: &VarId) -> bool {
        self.get(var).is_some()
    }

    /// Binds `var` to `val`, returning the value it was bound to before.
    #[inline]
    pub fn insert(&mut self, var: VarId, val: Value) -> Option<Value> {
        let i = var.index();
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        let old = self.slots[i].replace(val);
        self.len += usize::from(old.is_none());
        old
    }

    /// Unbinds `var`, returning the value it was bound to.
    #[inline]
    pub fn remove(&mut self, var: &VarId) -> Option<Value> {
        let old = self.slots.get_mut(var.index()).and_then(Option::take);
        self.len -= usize::from(old.is_some());
        old
    }

    /// Unbinds every variable, keeping the slot vector.
    pub fn clear(&mut self) {
        self.slots.fill(None);
        self.len = 0;
    }

    /// Number of bound variables.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is no variable bound?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bound `(variable, value)` pairs in `VarId` order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (VarId(u32::try_from(i).expect("VarId fits u32")), v)))
    }

    /// The bound values in `VarId` order.
    pub fn values(&self) -> impl Iterator<Item = &Value> + '_ {
        self.slots.iter().flatten()
    }
}

impl PartialEq for Binding {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Binding {}

impl PartialOrd for Binding {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Binding {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(VarId, Value)> for Binding {
    fn from_iter<I: IntoIterator<Item = (VarId, Value)>>(iter: I) -> Self {
        let mut b = Binding::new();
        b.extend(iter);
        b
    }
}

impl Extend<(VarId, Value)> for Binding {
    fn extend<I: IntoIterator<Item = (VarId, Value)>>(&mut self, iter: I) {
        for (var, val) in iter {
            self.insert(var, val);
        }
    }
}

impl Index<&VarId> for Binding {
    type Output = Value;

    /// The value bound to `var`; panics if it is unbound.
    fn index(&self, var: &VarId) -> &Value {
        self.get(var).expect("variable is not bound")
    }
}

/// An indexed matcher: a shared [`TupleIndex`]
/// (`(rel, pos, value) → tuples`) accelerates trigger enumeration when the
/// same instance is matched against many times (every chase engine does
/// this — one triggering per body match, thousands of matches per chase).
///
/// The matcher either owns its index ([`Matcher::new`] builds one from an
/// instance) or borrows one the caller maintains ([`Matcher::over`]) — the
/// fixpoint engine keeps a single growing index across rounds and borrows
/// it per round instead of moving it in and out.
///
/// One-shot callers can keep using the free functions, which scan.
pub struct Matcher<'a> {
    index: IndexSource<'a>,
}

// One `IndexSource` exists per Matcher (per chase invocation), so the
// size gap between the variants costs nothing; boxing `Owned` would add
// a pointer hop to every index probe on the match hot path.
#[allow(clippy::large_enum_variant)]
enum IndexSource<'a> {
    Owned(TupleIndex),
    Borrowed(&'a TupleIndex),
}

impl<'a> Matcher<'a> {
    /// Builds the index (O(total tuple cells)).
    pub fn new(instance: &Instance) -> Self {
        Matcher {
            index: IndexSource::Owned(TupleIndex::from_instance(instance)),
        }
    }

    /// Matches against an index the caller owns and keeps updating —
    /// no rebuild, no move. Read-only: the borrow ends when the matcher
    /// is dropped, so the caller can insert between rounds.
    pub fn over(index: &'a TupleIndex) -> Self {
        Matcher {
            index: IndexSource::Borrowed(index),
        }
    }

    fn idx(&self) -> &TupleIndex {
        match &self.index {
            IndexSource::Owned(i) => i,
            IndexSource::Borrowed(i) => i,
        }
    }

    /// Enumerates all extensions of `partial` satisfying every atom.
    pub fn all_matches(&self, atoms: &[Atom], partial: &Binding) -> Vec<Binding> {
        let mut results = Vec::new();
        self.for_each_match(atoms, partial, |b| results.push(b.clone()));
        results
    }

    /// Streams every match to `f` without materializing bindings — the
    /// match enumeration order is identical to [`Matcher::all_matches`],
    /// but nothing is cloned per match. The fixpoint engine's hot path:
    /// a chase examines every match once and keeps none of them.
    pub fn for_each_match(&self, atoms: &[Atom], partial: &Binding, mut f: impl FnMut(&Binding)) {
        let _ = self.try_for_each_match(atoms, partial, |b| {
            f(b);
            ControlFlow::Continue(())
        });
    }

    /// [`Matcher::for_each_match`] with early exit: enumeration stops as
    /// soon as `f` returns [`ControlFlow::Break`] (budget cutoffs,
    /// existence checks).
    pub fn try_for_each_match(
        &self,
        atoms: &[Atom],
        partial: &Binding,
        mut f: impl FnMut(&Binding) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut binding = partial.clone();
        let mut remaining: Vec<&Atom> = atoms.iter().collect();
        self.match_indexed(&mut remaining, &mut binding, &mut f)
    }

    /// Recursive join with dynamic atom selection: always match next the
    /// atom with the smallest candidate list under the current binding.
    fn match_indexed(
        &self,
        remaining: &mut Vec<&Atom>,
        binding: &mut Binding,
        f: &mut impl FnMut(&Binding) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if remaining.is_empty() {
            return f(binding);
        }
        // Pick the most selective atom, keeping its candidate list — the
        // selection scan already computed it.
        let mut best = 0;
        let mut best_ids: &[TupleId] = &[];
        let mut best_len = usize::MAX;
        for (i, atom) in remaining.iter().enumerate() {
            let ids = self.candidates(atom, binding);
            if ids.len() < best_len {
                best = i;
                best_ids = ids;
                best_len = ids.len();
                if best_len == 0 {
                    break;
                }
            }
        }
        // Positional remove + insert (not `swap_remove` + `push`): every
        // call restores `remaining` to exactly its entry state, so the
        // order of `remaining` at any node depends only on which ancestors
        // were matched, never on how sibling subtrees ran. The semi-naive
        // matcher relies on this to *skip* subtrees (all-old matches)
        // while enumerating the rest in identical order — see
        // [`Matcher::try_for_each_delta_match`].
        let atom = remaining.remove(best);
        let index = self.idx();
        // Rollback scratch, reused across every candidate at this level.
        let mut newly: Vec<VarId> = Vec::new();
        for &id in best_ids {
            if !index.is_live(id) {
                continue;
            }
            newly.clear();
            if try_extend(atom, index.tuple(id), binding, &mut newly) {
                let flow = self.match_indexed(remaining, binding, f);
                for v in &newly {
                    binding.remove(v);
                }
                if flow.is_break() {
                    remaining.insert(best, atom);
                    return flow;
                }
            }
        }
        remaining.insert(best, atom);
        ControlFlow::Continue(())
    }

    /// Streams exactly the **delta-touching subsequence** of
    /// [`Matcher::try_for_each_match`]'s enumeration: the matches in which
    /// at least one body atom binds a tuple in the index's current
    /// frontier (see `TupleIndex::mark_frontier`), in the same relative
    /// order and with identical bindings. This is the semi-naive rewrite
    /// of the join, generalized to nested-tgd bodies: instead of rewriting
    /// the body into per-atom delta rules (which would permute the match
    /// order and hence null interning), the recursive join itself prunes
    /// subtrees that provably contain only all-old matches.
    ///
    /// When the watermark is 0 (nothing marked yet) every tuple is delta
    /// and this is the full enumeration — including the empty body's
    /// single match.
    ///
    /// `touched` accumulates candidate tuples iterated: the delta engine's
    /// work measure (an empty frontier costs `O(atoms·log)` here, not a
    /// rescan).
    pub fn try_for_each_delta_match(
        &self,
        atoms: &[Atom],
        partial: &Binding,
        touched: &mut u64,
        mut f: impl FnMut(&Binding) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if atoms.is_empty() {
            // The empty conjunction matches once and touches no tuple: it
            // is a delta match only when everything is (round one).
            return if self.idx().frontier_start() == 0 {
                f(partial)
            } else {
                ControlFlow::Continue(())
            };
        }
        match self.delta_root(atoms, partial) {
            None => ControlFlow::Continue(()),
            Some((root, ids)) => self.run_delta_root(atoms, partial, root, ids, touched, &mut f),
        }
    }

    /// Depth-0 planning for the semi-naive join: the root atom the
    /// recursive join selects first (the same most-selective rule as the
    /// full matcher, over *full* candidate lists — selection must not
    /// depend on the frontier or the enumeration order would diverge) and
    /// the candidate slice the root loop iterates. `None` means the delta
    /// enumeration is provably empty: some atom has no candidates, or no
    /// atom can bind a frontier tuple — the empty-delta fast path.
    fn delta_root<'s>(
        &'s self,
        atoms: &[Atom],
        partial: &Binding,
    ) -> Option<(usize, &'s [TupleId])> {
        debug_assert!(!atoms.is_empty());
        let index = self.idx();
        let all = index.frontier_start() == 0;
        let mut best = 0;
        let mut best_ids: &[TupleId] = &[];
        let mut best_len = usize::MAX;
        let mut any_delta = all;
        for (i, atom) in atoms.iter().enumerate() {
            let ids = self.candidates(atom, partial);
            if !any_delta {
                let cut = ids.partition_point(|id| !index.in_frontier(*id));
                any_delta = cut < ids.len();
            }
            if ids.len() < best_len {
                best = i;
                best_ids = ids;
                best_len = ids.len();
                if best_len == 0 {
                    return None;
                }
            }
        }
        if !any_delta {
            return None;
        }
        if !all && atoms.len() == 1 {
            // A single-atom body must bind its one atom into the frontier:
            // only the frontier suffix of the candidates can match.
            let cut = best_ids.partition_point(|id| !index.in_frontier(*id));
            best_ids = &best_ids[cut..];
        }
        Some((best, best_ids))
    }

    /// Runs the semi-naive join over the root candidates `ids` of atom
    /// `root`, as planned by [`Matcher::delta_root`].
    fn run_delta_root(
        &self,
        atoms: &[Atom],
        partial: &Binding,
        root: usize,
        ids: &[TupleId],
        touched: &mut u64,
        f: &mut impl FnMut(&Binding) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let index = self.idx();
        let all = index.frontier_start() == 0;
        let mut binding = partial.clone();
        let mut remaining: Vec<&Atom> = atoms
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != root)
            .map(|(_, a)| a)
            .collect();
        let atom = &atoms[root];
        // One rollback trail for the whole join: each level remembers its
        // length and unbinds back to it, so no level allocates.
        let mut trail: Vec<VarId> = Vec::new();
        for &id in ids {
            *touched += 1;
            if !index.is_live(id) {
                continue;
            }
            if try_extend(atom, index.tuple(id), &mut binding, &mut trail) {
                let flow = self.match_delta(
                    &mut remaining,
                    &mut binding,
                    &mut trail,
                    all || index.in_frontier(id),
                    touched,
                    f,
                );
                unbind(&mut binding, &mut trail, 0);
                if flow.is_break() {
                    return flow;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The delta twin of [`Matcher::match_indexed`]: identical atom
    /// selection and candidate iteration, plus a `delta_bound` flag
    /// tracking whether an ancestor already bound a frontier tuple.
    /// Completed matches fire only when `delta_bound`; subtrees in which
    /// no remaining atom can reach the frontier are pruned (safe because
    /// the full matcher restores `remaining` around every node, so
    /// skipping a subtree leaves siblings' state untouched); and a
    /// not-yet-bound final atom iterates only the frontier suffix of its
    /// candidates.
    fn match_delta(
        &self,
        remaining: &mut Vec<&Atom>,
        binding: &mut Binding,
        trail: &mut Vec<VarId>,
        delta_bound: bool,
        touched: &mut u64,
        f: &mut impl FnMut(&Binding) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if remaining.is_empty() {
            return if delta_bound {
                f(binding)
            } else {
                ControlFlow::Continue(())
            };
        }
        let index = self.idx();
        let mut best = 0;
        let mut best_ids: &[TupleId] = &[];
        let mut best_len = usize::MAX;
        let mut any_delta = delta_bound;
        for (i, atom) in remaining.iter().enumerate() {
            let ids = self.candidates(atom, binding);
            if !any_delta {
                let cut = ids.partition_point(|id| !index.in_frontier(*id));
                any_delta = cut < ids.len();
            }
            if ids.len() < best_len {
                best = i;
                best_ids = ids;
                best_len = ids.len();
                if best_len == 0 {
                    break;
                }
            }
        }
        if best_len == 0 || !any_delta {
            // Either some atom matches nothing, or every remaining atom's
            // candidates lie entirely below the watermark — a match here
            // could only be all-old, and all-old matches already fired in
            // an earlier round (equality gates and head grounding are
            // factory-state independent, so re-firing them is pure dedup).
            return ControlFlow::Continue(());
        }
        if !delta_bound && remaining.len() == 1 {
            // Last chance to touch the frontier: only the frontier suffix
            // of the final atom's candidates can complete a delta match.
            let cut = best_ids.partition_point(|id| !index.in_frontier(*id));
            best_ids = &best_ids[cut..];
        }
        let atom = remaining.remove(best);
        let mark = trail.len();
        let mut flow = ControlFlow::Continue(());
        for &id in best_ids {
            *touched += 1;
            if !index.is_live(id) {
                continue;
            }
            if try_extend(atom, index.tuple(id), binding, trail) {
                let fl = self.match_delta(
                    remaining,
                    binding,
                    trail,
                    delta_bound || index.in_frontier(id),
                    touched,
                    f,
                );
                unbind(binding, trail, mark);
                if fl.is_break() {
                    flow = fl;
                    break;
                }
            }
        }
        remaining.insert(best, atom);
        flow
    }

    /// The tightest available candidate list: the shortest posting list
    /// over the atom's bound positions, or the whole relation if none is
    /// bound.
    fn candidates(&self, atom: &Atom, binding: &Binding) -> &[TupleId] {
        let index = self.idx();
        let mut best: Option<&[TupleId]> = None;
        for (pos, var) in atom.args.iter().enumerate() {
            if let Some(&val) = binding.get(var) {
                let ts = index.posting(atom.rel, pos as u32, val);
                if ts.is_empty() {
                    return &[]; // no tuple matches
                }
                if best.is_none_or(|b: &[TupleId]| ts.len() < b.len()) {
                    best = Some(ts);
                }
            }
        }
        best.unwrap_or_else(|| index.rel_ids(atom.rel))
    }
}

/// The `(rel, pos)` pairs a [`Matcher`] can probe posting lists for while
/// it joins any of `bodies` from the empty binding: the positions whose
/// variable also occurs in another atom of the same body. A position is
/// probed only once its variable is bound, and from the empty binding
/// only an atom matched earlier can bind it — so an index keeping
/// posting lists for just these pairs
/// ([`TupleIndex::from_instance_probing`]) answers every probe the join
/// makes. Matching from a non-empty partial binding can probe more.
pub(crate) fn probe_set<'a>(bodies: impl IntoIterator<Item = &'a [Atom]>) -> ProbeSet {
    let mut probes = ProbeSet::new();
    for body in bodies {
        for (i, atom) in body.iter().enumerate() {
            for (pos, var) in atom.args.iter().enumerate() {
                let shared = body
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && other.args.contains(var));
                if shared {
                    probes.insert(atom.rel, pos as u32);
                }
            }
        }
    }
    probes
}

/// Enumerates all extensions of `partial` under which every atom of `atoms`
/// holds in `instance`. Atoms are matched in an order that prefers atoms
/// with many already-bound variables (cheap greedy join ordering).
pub fn all_matches(instance: &Instance, atoms: &[Atom], partial: &Binding) -> Vec<Binding> {
    let mut order: Vec<&Atom> = atoms.iter().collect();
    let mut results = Vec::new();
    let mut binding = partial.clone();
    // Greedy static order: most constants-bound-first is dynamic; a simple
    // heuristic is to sort by (unbound var count under the initial binding,
    // relation size), which already avoids the worst cartesian blowups.
    order.sort_by_key(|a| {
        let unbound = a
            .args
            .iter()
            .filter(|v| !partial.contains_key(v))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        (unbound, instance.rel_len(a.rel))
    });
    match_rec(instance, &order, 0, &mut binding, &mut results);
    results
}

/// Does at least one extension of `partial` satisfy all atoms?
pub fn has_match(instance: &Instance, atoms: &[Atom], partial: &Binding) -> bool {
    // Cheap short-circuiting variant.
    let mut order: Vec<&Atom> = atoms.iter().collect();
    order.sort_by_key(|a| instance.rel_len(a.rel));
    let mut binding = partial.clone();
    exists_rec(instance, &order, 0, &mut binding)
}

fn match_rec(
    instance: &Instance,
    atoms: &[&Atom],
    i: usize,
    binding: &mut Binding,
    out: &mut Vec<Binding>,
) {
    if i == atoms.len() {
        out.push(binding.clone());
        return;
    }
    let atom = atoms[i];
    let mut newly: Vec<VarId> = Vec::new();
    for tuple in instance.tuples(atom.rel) {
        newly.clear();
        if try_extend(atom, tuple, binding, &mut newly) {
            match_rec(instance, atoms, i + 1, binding, out);
            for v in &newly {
                binding.remove(v);
            }
        }
    }
}

fn exists_rec(instance: &Instance, atoms: &[&Atom], i: usize, binding: &mut Binding) -> bool {
    if i == atoms.len() {
        return true;
    }
    let atom = atoms[i];
    let mut newly: Vec<VarId> = Vec::new();
    for tuple in instance.tuples(atom.rel) {
        newly.clear();
        if try_extend(atom, tuple, binding, &mut newly) {
            let found = exists_rec(instance, atoms, i + 1, binding);
            for v in &newly {
                binding.remove(v);
            }
            if found {
                return true;
            }
        }
    }
    false
}

/// Tries to unify `atom` with `tuple` under `binding`. On success, extends
/// `binding` in place, appends the newly bound variables to `newly` (for
/// rollback) and returns `true`; on failure, leaves `binding` and `newly`
/// as they were.
fn try_extend(atom: &Atom, tuple: &[Value], binding: &mut Binding, newly: &mut Vec<VarId>) -> bool {
    debug_assert_eq!(atom.args.len(), tuple.len());
    let mark = newly.len();
    for (&var, &val) in atom.args.iter().zip(tuple.iter()) {
        match binding.get(&var) {
            Some(&bound) => {
                if bound != val {
                    unbind(binding, newly, mark);
                    return false;
                }
            }
            None => {
                binding.insert(var, val);
                newly.push(var);
            }
        }
    }
    true
}

/// Unbinds the variables `trail` recorded past `mark` and truncates it.
#[inline]
fn unbind(binding: &mut Binding, trail: &mut Vec<VarId>, mark: usize) {
    for v in trail.drain(mark..) {
        binding.remove(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (SymbolTable, Instance) {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let c = Value::Const(syms.constant("c"));
        let inst = Instance::from_facts([
            Fact::new(s, vec![a, b]),
            Fact::new(s, vec![b, c]),
            Fact::new(s, vec![a, c]),
        ]);
        (syms, inst)
    }

    #[test]
    fn single_atom_matches() {
        let (mut syms, inst) = tiny();
        let s = syms.rel("S");
        let x = syms.var("x");
        let y = syms.var("y");
        let ms = all_matches(&inst, &[Atom::new(s, vec![x, y])], &Binding::new());
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn join_two_atoms() {
        let (mut syms, inst) = tiny();
        let s = syms.rel("S");
        let x = syms.var("x");
        let y = syms.var("y");
        let z = syms.var("z");
        // S(x,y) & S(y,z): only a->b->c.
        let ms = all_matches(
            &inst,
            &[Atom::new(s, vec![x, y]), Atom::new(s, vec![y, z])],
            &Binding::new(),
        );
        assert_eq!(ms.len(), 1);
        let a = Value::Const(syms.constant("a"));
        let c = Value::Const(syms.constant("c"));
        assert_eq!(ms[0][&x], a);
        assert_eq!(ms[0][&z], c);
    }

    #[test]
    fn repeated_variable_forces_equality() {
        let (mut syms, inst) = tiny();
        let s = syms.rel("S");
        let x = syms.var("x");
        let ms = all_matches(&inst, &[Atom::new(s, vec![x, x])], &Binding::new());
        assert!(ms.is_empty());
    }

    #[test]
    fn partial_binding_restricts() {
        let (mut syms, inst) = tiny();
        let s = syms.rel("S");
        let x = syms.var("x");
        let y = syms.var("y");
        let mut partial = Binding::new();
        partial.insert(x, Value::Const(syms.constant("a")));
        let ms = all_matches(&inst, &[Atom::new(s, vec![x, y])], &partial);
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m[&x] == Value::Const(syms.constant("a"))));
    }

    #[test]
    fn has_match_short_circuits() {
        let (mut syms, inst) = tiny();
        let s = syms.rel("S");
        let q = syms.rel("Q");
        let x = syms.var("x");
        let y = syms.var("y");
        assert!(has_match(
            &inst,
            &[Atom::new(s, vec![x, y])],
            &Binding::new()
        ));
        assert!(!has_match(&inst, &[Atom::new(q, vec![x])], &Binding::new()));
    }

    #[test]
    fn empty_conjunction_has_the_empty_match() {
        let (_syms, inst) = tiny();
        let ms = all_matches(&inst, &[], &Binding::new());
        assert_eq!(ms.len(), 1);
        assert!(ms[0].is_empty());
        assert_eq!(
            Matcher::new(&inst).all_matches(&[], &Binding::new()).len(),
            1
        );
    }

    #[test]
    fn matcher_agrees_with_scan() {
        let (mut syms, inst) = tiny();
        let s = syms.rel("S");
        let x = syms.var("x");
        let y = syms.var("y");
        let z = syms.var("z");
        let matcher = Matcher::new(&inst);
        let queries: Vec<Vec<Atom>> = vec![
            vec![Atom::new(s, vec![x, y])],
            vec![Atom::new(s, vec![x, y]), Atom::new(s, vec![y, z])],
            vec![Atom::new(s, vec![x, x])],
            vec![Atom::new(s, vec![x, y]), Atom::new(s, vec![x, z])],
        ];
        for q in &queries {
            let mut scan: Vec<Binding> = all_matches(&inst, q, &Binding::new());
            let mut indexed: Vec<Binding> = matcher.all_matches(q, &Binding::new());
            scan.sort();
            indexed.sort();
            assert_eq!(scan, indexed, "query {q:?}");
        }
        // With a partial binding.
        let mut partial = Binding::new();
        partial.insert(x, Value::Const(syms.constant("a")));
        let q = vec![Atom::new(s, vec![x, y])];
        let mut scan = all_matches(&inst, &q, &partial);
        let mut indexed = matcher.all_matches(&q, &partial);
        scan.sort();
        indexed.sort();
        assert_eq!(scan, indexed);
    }

    /// Collects the delta enumeration of `matcher` for `atoms`.
    fn delta_matches(matcher: &Matcher, atoms: &[Atom]) -> (Vec<Binding>, u64) {
        let mut out = Vec::new();
        let mut touched = 0u64;
        let _ = matcher.try_for_each_delta_match(atoms, &Binding::new(), &mut touched, |b| {
            out.push(b.clone());
            ControlFlow::Continue(())
        });
        (out, touched)
    }

    #[test]
    fn delta_enumeration_is_the_new_minus_old_subsequence() {
        // Build a growing index the way the chase does: insert a base,
        // mark the frontier, insert a delta. The delta enumeration must be
        // exactly the full enumeration minus the old-index enumeration —
        // as a *subsequence*, in the full enumeration's order.
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let x = syms.var("x");
        let y = syms.var("y");
        let z = syms.var("z");
        let v: Vec<Value> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|n| Value::Const(syms.constant(n)))
            .collect();
        let mut idx = TupleIndex::new();
        for (i, j) in [(0, 1), (1, 2), (2, 3)] {
            idx.insert(s, vec![v[i], v[j]]);
        }
        let queries: Vec<Vec<Atom>> = vec![
            vec![Atom::new(s, vec![x, y])],
            vec![Atom::new(s, vec![x, y]), Atom::new(s, vec![y, z])],
            vec![Atom::new(s, vec![x, y]), Atom::new(s, vec![x, z])],
            vec![
                Atom::new(s, vec![x, y]),
                Atom::new(s, vec![y, z]),
                Atom::new(s, vec![z, x]),
            ],
        ];
        let old: Vec<Vec<Binding>> = queries
            .iter()
            .map(|q| Matcher::over(&idx).all_matches(q, &Binding::new()))
            .collect();
        idx.mark_frontier();
        for (i, j) in [(3, 4), (4, 0), (1, 4)] {
            idx.insert(s, vec![v[i], v[j]]);
        }
        let matcher = Matcher::over(&idx);
        for (q, old) in queries.iter().zip(&old) {
            let full = matcher.all_matches(q, &Binding::new());
            let (delta, _) = delta_matches(&matcher, q);
            // Subsequence of the full enumeration...
            let mut it = full.iter();
            for d in &delta {
                assert!(
                    it.any(|m| m == d),
                    "delta match {d:?} out of order for {q:?}"
                );
            }
            // ...and exactly the set difference against the old matches.
            let mut expect: Vec<&Binding> = full.iter().filter(|m| !old.contains(m)).collect();
            let mut got: Vec<&Binding> = delta.iter().collect();
            expect.sort();
            got.sort();
            assert_eq!(expect, got, "wrong delta set for {q:?}");
        }
    }

    #[test]
    fn zero_watermark_delta_equals_full_enumeration() {
        let (mut syms, inst) = tiny();
        let s = syms.rel("S");
        let x = syms.var("x");
        let y = syms.var("y");
        let z = syms.var("z");
        let matcher = Matcher::new(&inst);
        let q = vec![Atom::new(s, vec![x, y]), Atom::new(s, vec![y, z])];
        let full = matcher.all_matches(&q, &Binding::new());
        let (delta, touched) = delta_matches(&matcher, &q);
        assert_eq!(full, delta, "watermark 0 must enumerate everything");
        assert!(touched > 0);
        // Empty bodies match once under watermark 0.
        let (empty, _) = delta_matches(&matcher, &[]);
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn empty_frontier_is_pruned_without_a_rescan() {
        // A cross-product body over two 64-tuple relations has 4096 full
        // matches; with an empty frontier the delta matcher must prune at
        // the root, touching not a single candidate tuple.
        let mut syms = SymbolTable::new();
        let p = syms.rel("P");
        let q = syms.rel("Q");
        let x = syms.var("x");
        let y = syms.var("y");
        let mut idx = TupleIndex::new();
        for i in 0..64 {
            let c = Value::Const(syms.constant(&format!("c{i}")));
            idx.insert(p, vec![c]);
            idx.insert(q, vec![c]);
        }
        idx.mark_frontier();
        let matcher = Matcher::over(&idx);
        let body = vec![Atom::new(p, vec![x]), Atom::new(q, vec![y])];
        let (delta, touched) = delta_matches(&matcher, &body);
        assert!(delta.is_empty());
        assert_eq!(touched, 0, "empty delta must not rescan the instance");
        // Empty bodies no longer match once the watermark has moved.
        let (empty, _) = delta_matches(&matcher, &[]);
        assert!(empty.is_empty());
    }

    /// A splitmix64 stream: the model test depends only on the seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    type Model = std::collections::BTreeMap<VarId, Value>;

    /// Applies `ops` random inserts/removes to both a [`Binding`] and its
    /// `BTreeMap` model, checking every answer on the way.
    fn drive(g: &mut Gen, ops: usize, vals: &[Value]) -> (Binding, Model) {
        let (mut b, mut m) = (Binding::new(), Model::new());
        for _ in 0..ops {
            let var = VarId(g.below(24) as u32);
            match g.below(3) {
                0 | 1 => {
                    let val = vals[g.below(vals.len())];
                    assert_eq!(b.insert(var, val), m.insert(var, val));
                }
                _ => assert_eq!(b.remove(&var), m.remove(&var)),
            }
            let probe = VarId(g.below(32) as u32);
            assert_eq!(b.get(&probe), m.get(&probe));
            assert_eq!(b.contains_key(&probe), m.contains_key(&probe));
        }
        (b, m)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        /// The flat binding behaves like the ordered map it replaced.
        #[test]
        fn binding_matches_its_btreemap_model(seed in 0u64..u64::MAX, ops in 0usize..60) {
            let mut g = Gen(seed);
            let mut vals: Vec<Value> = (0..3).map(|i| Value::Const(ConstId(i))).collect();
            vals.extend((0..2).map(|i| Value::Null(NullId(i))));
            let (a, ma) = drive(&mut g, ops, &vals);
            let ops_b = g.below(12);
            let (b, mb) = drive(&mut g, ops_b, &vals);
            // Iteration, lengths and lookups.
            let pairs: Vec<(VarId, Value)> = ma.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(a.iter().collect::<Vec<_>>(), pairs);
            assert_eq!(a.values().collect::<Vec<_>>(), ma.values().collect::<Vec<_>>());
            assert_eq!((a.len(), a.is_empty()), (ma.len(), ma.is_empty()));
            for (k, v) in &ma {
                assert_eq!(&a[k], v);
            }
            // Equality and order over bound pairs, whatever the slots hold.
            assert_eq!(a == b, ma == mb);
            assert_eq!(a.cmp(&b), ma.cmp(&mb));
            assert_eq!(b.cmp(&a), mb.cmp(&ma));
            // Clone, collect and a rebuilt binding compare equal.
            let rebuilt: Binding = pairs.iter().copied().collect();
            assert_eq!(rebuilt, a);
            assert_eq!(rebuilt.cmp(&a), std::cmp::Ordering::Equal);
            let mut copy = a.clone();
            assert_eq!(copy, a);
            assert_eq!(format!("{copy:?}"), format!("{ma:?}"));
            copy.clear();
            assert!(copy.is_empty() && copy.iter().next().is_none());
            assert_eq!(copy, Binding::new());
        }
    }

    #[test]
    fn probe_set_is_the_shared_variable_positions() {
        let mut syms = SymbolTable::new();
        let (r, s) = (syms.rel("R"), syms.rel("S"));
        let [x, y, z] = ["x", "y", "z"].map(|v| syms.var(v));
        let chain = [Atom::new(r, vec![x, y]), Atom::new(s, vec![y, z, y])];
        let single = [Atom::new(r, vec![x, x])];
        let probes = probe_set([&chain[..], &single[..]]);
        assert_eq!(probes.positions(r), &[1]);
        assert_eq!(probes.positions(s), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "outside the index's probe set")]
    fn matching_outside_the_probe_set_panics() {
        // The probe set of `R(x,y) & S(y)` has no `(R,0)`; a partial
        // binding of `x` makes the join probe it anyway.
        let mut syms = SymbolTable::new();
        let (r, s) = (syms.rel("R"), syms.rel("S"));
        let (x, y) = (syms.var("x"), syms.var("y"));
        let a = Value::Const(syms.constant("a"));
        let body = [Atom::new(r, vec![x, y]), Atom::new(s, vec![y])];
        let inst = Instance::from_facts([Fact::new(r, vec![a, a]), Fact::new(s, vec![a])]);
        let idx = TupleIndex::from_instance_probing(&inst, probe_set([&body[..]]));
        let matcher = Matcher::over(&idx);
        assert_eq!(matcher.all_matches(&body, &Binding::new()).len(), 1);
        let partial: Binding = [(x, a)].into_iter().collect();
        matcher.all_matches(&body, &partial);
    }

    #[test]
    fn matcher_handles_unmatchable_values() {
        let (mut syms, inst) = tiny();
        let s = syms.rel("S");
        let x = syms.var("x");
        let y = syms.var("y");
        let mut partial = Binding::new();
        partial.insert(x, Value::Const(syms.constant("zzz")));
        let matcher = Matcher::new(&inst);
        assert!(matcher
            .all_matches(&[Atom::new(s, vec![x, y])], &partial)
            .is_empty());
    }
}
