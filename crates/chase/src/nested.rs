//! The chase for nested tgds as a sequence of **recursive triggerings**
//! building the **chase forest** (paper, Section 3).
//!
//! Each triggering is associated with a part σᵢ and an assignment to its
//! own universal variables; its parent triggering bound the ancestor
//! variables. Root triggerings belong to top-level parts; the triggerings
//! recursively reached from one root triggering form a **chase tree**.
//! Facts produced in distinct chase trees share no nulls.

use crate::null::NullFactory;
use crate::so::ground_term;
use crate::trigger::{Binding, Matcher};
use ndl_core::prelude::*;

/// A nested tgd paired with its Skolem assignment, ready to be chased.
/// Preparing with the same [`SymbolTable`] guarantees distinct Skolem
/// function symbols across tgds, so nulls never collide.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The nested tgd.
    pub tgd: NestedTgd,
    /// Its Skolem assignment (existential variable ↦ function + args).
    pub info: SkolemInfo,
}

impl Prepared {
    /// Prepares a nested tgd for chasing.
    pub fn new(tgd: NestedTgd, syms: &mut SymbolTable) -> Self {
        let info = SkolemInfo::for_nested(&tgd, syms);
        Prepared { tgd, info }
    }

    /// Prepares a whole mapping.
    pub fn mapping(m: &NestedMapping, syms: &mut SymbolTable) -> Vec<Prepared> {
        m.tgds
            .iter()
            .map(|t| Prepared::new(t.clone(), syms))
            .collect()
    }
}

/// Index of a triggering in the chase forest.
pub type TrigId = usize;

/// One triggering of a part (paper, Section 3, "Chase Forest").
#[derive(Clone, Debug)]
pub struct Triggering {
    /// Which tgd of the chased set this triggering belongs to.
    pub tgd_idx: usize,
    /// The triggered part σᵢ.
    pub part: PartId,
    /// The parent triggering (None for root triggerings).
    pub parent: Option<TrigId>,
    /// The full assignment of the part's visible universal variables
    /// (input assignment ∪ own assignment).
    pub binding: Binding,
    /// The facts produced by this triggering (instantiated head atoms).
    pub facts: Vec<Fact>,
    /// Triggerings of child parts recursively activated from this one.
    pub children: Vec<TrigId>,
}

/// The chase forest: all triggerings, with `roots` indexing the root
/// triggerings (one chase tree per root).
#[derive(Clone, Debug, Default)]
pub struct ChaseForest {
    /// All triggerings, parents before children.
    pub nodes: Vec<Triggering>,
    /// Root triggerings.
    pub roots: Vec<TrigId>,
}

impl ChaseForest {
    /// `rec(t)`: the triggerings recursively called from `t`, including `t`.
    pub fn subtree(&self, t: TrigId) -> Vec<TrigId> {
        let mut out = vec![t];
        let mut stack = self.nodes[t].children.clone();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.nodes[n].children.iter().copied());
        }
        out
    }

    /// All facts produced within the chase tree rooted at `t`.
    pub fn tree_facts(&self, t: TrigId) -> Instance {
        Instance::from_facts(
            self.subtree(t)
                .into_iter()
                .flat_map(|n| self.nodes[n].facts.iter().cloned()),
        )
    }
}

/// Result of chasing a source instance with nested tgds.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The canonical universal solution `chase(I, Σ)`.
    pub target: Instance,
    /// The chase forest recording every triggering.
    pub forest: ChaseForest,
}

/// Chases a ground source instance with a set of prepared nested tgds,
/// allocating nulls in `nulls`.
pub fn chase_nested(source: &Instance, tgds: &[Prepared], nulls: &mut NullFactory) -> ChaseResult {
    assert!(source.is_ground(), "source instance must be ground");
    let matcher = Matcher::new(source);
    let mut forest = ChaseForest::default();
    let mut target = Instance::new();
    for (idx, prep) in tgds.iter().enumerate() {
        let root = prep.tgd.root();
        for binding in matcher.all_matches(&prep.tgd.part(root).body, &Binding::new()) {
            let t = fire(
                &matcher,
                prep,
                idx,
                root,
                binding,
                None,
                nulls,
                &mut forest,
                &mut target,
            );
            forest.roots.push(t);
        }
    }
    ChaseResult { target, forest }
}

/// Chases with a [`ChasePlan`](crate::plan::ChasePlan): statements fire in
/// the planned order (TrigId numbering and the forest follow that order;
/// `tgd_idx` still refers to positions in `tgds`), and the trigger index
/// over the source is sized to the source.
///
/// The single-pass nested chase always terminates, so — unlike the
/// fixpoint engine — this never refuses a plan; the plan's termination
/// verdict concerns the recursive/fixpoint semantics only.
pub fn chase_nested_planned(
    source: &Instance,
    tgds: &[Prepared],
    plan: &crate::plan::ChasePlan,
    nulls: &mut NullFactory,
) -> ChaseResult {
    assert!(source.is_ground(), "source instance must be ground");
    let cells: usize = source.facts_unordered().map(|f| f.args.len()).sum();
    let mut index = TupleIndex::with_capacity(source.len(), cells);
    for f in source.facts() {
        index.insert(f.rel, f.args);
    }
    let matcher = Matcher::over(&index);
    let mut forest = ChaseForest::default();
    let mut target = Instance::new();
    for idx in plan.firing_order(tgds.len()) {
        let prep = &tgds[idx];
        let root = prep.tgd.root();
        for binding in matcher.all_matches(&prep.tgd.part(root).body, &Binding::new()) {
            let t = fire(
                &matcher,
                prep,
                idx,
                root,
                binding,
                None,
                nulls,
                &mut forest,
                &mut target,
            );
            forest.roots.push(t);
        }
    }
    ChaseResult { target, forest }
}

/// Convenience: prepares and chases a whole nested GLAV mapping.
pub fn chase_mapping(
    source: &Instance,
    mapping: &NestedMapping,
    syms: &mut SymbolTable,
) -> (ChaseResult, NullFactory) {
    let prepared = Prepared::mapping(mapping, syms);
    let mut nulls = NullFactory::new();
    let result = chase_nested(source, &prepared, &mut nulls);
    (result, nulls)
}

#[allow(clippy::too_many_arguments)]
fn fire(
    matcher: &Matcher<'_>,
    prep: &Prepared,
    tgd_idx: usize,
    part: PartId,
    binding: Binding,
    parent: Option<TrigId>,
    nulls: &mut NullFactory,
    forest: &mut ChaseForest,
    target: &mut Instance,
) -> TrigId {
    // Instantiate the head atoms: universal variables from the binding,
    // existential variables as Skolem-term nulls.
    let facts: Vec<Fact> = prep
        .tgd
        .part(part)
        .head
        .iter()
        .map(|atom| {
            let args: Vec<Value> = atom
                .args
                .iter()
                .map(|v| match binding.get(v) {
                    Some(&val) => val,
                    None => {
                        let term = prep
                            .info
                            .term_for(*v)
                            .expect("head variable neither universal nor existential");
                        nulls.value_of(&ground_term(&term, &binding))
                    }
                })
                .collect();
            Fact::new(atom.rel, args)
        })
        .collect();
    for f in &facts {
        target.insert(f.clone());
    }
    let id = forest.nodes.len();
    forest.nodes.push(Triggering {
        tgd_idx,
        part,
        parent,
        binding: binding.clone(),
        facts,
        children: vec![],
    });
    // Recursively trigger child parts under the extended assignment.
    for &child in prep.tgd.children(part) {
        for child_binding in matcher.all_matches(&prep.tgd.part(child).body, &binding) {
            let c = fire(
                matcher,
                prep,
                tgd_idx,
                child,
                child_binding,
                Some(id),
                nulls,
                forest,
                target,
            );
            forest.nodes[id].children.push(c);
        }
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The intro nested tgd: ∀x1x2 (S(x1,x2) → ∃y (R(y,x2) ∧ ∀x3 (S(x1,x3) → R(y,x3)))).
    fn intro_tgd(syms: &mut SymbolTable) -> NestedTgd {
        parse_nested_tgd(
            syms,
            "forall x1,x2 (S(x1,x2) -> exists y (R(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))",
        )
        .unwrap()
    }

    #[test]
    fn chase_builds_forest_with_nested_triggerings() {
        let mut syms = SymbolTable::new();
        let tgd = intro_tgd(&mut syms);
        let prep = Prepared::new(tgd, &mut syms);
        let s = syms.rel("S");
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let c = Value::Const(syms.constant("c"));
        // S(a,b), S(a,c): two root triggerings, each with two nested ones.
        let source = Instance::from_facts([Fact::new(s, vec![a, b]), Fact::new(s, vec![a, c])]);
        let mut nulls = NullFactory::new();
        let res = chase_nested(&source, &[prep], &mut nulls);
        assert_eq!(res.forest.roots.len(), 2);
        for &r in &res.forest.roots {
            assert_eq!(res.forest.nodes[r].children.len(), 2);
        }
        // Nulls: one per root triggering, shared with nested triggerings:
        // f(a,b) and f(a,c).
        assert_eq!(nulls.len(), 2);
        // Facts: R(f(a,b),b), R(f(a,b),c), R(f(a,c),b), R(f(a,c),c).
        let r = syms.rel("R");
        assert_eq!(res.target.rel_len(r), 4);
    }

    #[test]
    fn distinct_chase_trees_share_no_nulls() {
        let mut syms = SymbolTable::new();
        let tgd = intro_tgd(&mut syms);
        let prep = Prepared::new(tgd, &mut syms);
        let s = syms.rel("S");
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let source = Instance::from_facts([Fact::new(s, vec![a, a]), Fact::new(s, vec![b, b])]);
        let mut nulls = NullFactory::new();
        let res = chase_nested(&source, &[prep], &mut nulls);
        assert_eq!(res.forest.roots.len(), 2);
        let t0 = res.forest.tree_facts(res.forest.roots[0]);
        let t1 = res.forest.tree_facts(res.forest.roots[1]);
        assert!(t0.nulls().is_disjoint(&t1.nulls()));
    }

    #[test]
    fn unquantified_nested_part_fires_once() {
        // Example 3.4: ∀x1 S1(x1) → ((S2(x1) → T2(x1))): the nested part's
        // variable is bound by the root triggering, so at most one nested
        // triggering per root.
        let mut syms = SymbolTable::new();
        let tgd =
            parse_nested_tgd(&mut syms, "forall x1 (S1(x1) -> ((S2(x1) -> T2(x1))))").unwrap();
        let prep = Prepared::new(tgd, &mut syms);
        let s1 = syms.rel("S1");
        let s2 = syms.rel("S2");
        let t2 = syms.rel("T2");
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let source = Instance::from_facts([
            Fact::new(s1, vec![a]),
            Fact::new(s2, vec![a]),
            Fact::new(s2, vec![b]),
        ]);
        let mut nulls = NullFactory::new();
        let res = chase_nested(&source, &[prep], &mut nulls);
        assert_eq!(res.forest.roots.len(), 1);
        assert_eq!(res.forest.nodes[res.forest.roots[0]].children.len(), 1);
        assert!(res.target.contains_tuple(t2, &[a]));
        assert_eq!(res.target.len(), 1);
    }

    #[test]
    fn chase_agrees_with_skolemized_so_chase() {
        // chase(I, σ) and chase(I, Skolemize(σ)) coincide up to null
        // renaming; with a shared SkolemInfo they coincide exactly.
        let mut syms = SymbolTable::new();
        let tgd = intro_tgd(&mut syms);
        let prep = Prepared::new(tgd.clone(), &mut syms);
        let so = skolemize_with(&tgd, &prep.info);
        let s = syms.rel("S");
        let a = Value::Const(syms.constant("a"));
        let b = Value::Const(syms.constant("b"));
        let source = Instance::from_facts([
            Fact::new(s, vec![a, b]),
            Fact::new(s, vec![b, a]),
            Fact::new(s, vec![a, a]),
        ]);
        let mut n1 = NullFactory::new();
        let nested_result = chase_nested(&source, &[prep], &mut n1);
        let mut n2 = NullFactory::new();
        let so_result = crate::so::chase_so(&source, &so, &mut n2);
        assert_eq!(nested_result.target, so_result);
    }

    #[test]
    fn empty_source_chases_to_empty_target() {
        let mut syms = SymbolTable::new();
        let tgd = intro_tgd(&mut syms);
        let prep = Prepared::new(tgd, &mut syms);
        let mut nulls = NullFactory::new();
        let res = chase_nested(&Instance::new(), &[prep], &mut nulls);
        assert!(res.target.is_empty());
        assert!(res.forest.roots.is_empty());
    }
}
