//! Observational equivalence of the columnar [`Instance`] (arena-backed
//! [`FactStore`]) and a plain `BTreeSet<Fact>` model of a set of facts,
//! driven by seeded random operation sequences.
//!
//! The columnar store is free to differ in representation (stable ids,
//! tombstones, revival) but must be indistinguishable through the
//! instance API: same insert/remove/contains answers, same `len`, same
//! sorted fact enumeration, same `Display`, and no dependence on
//! insertion order.

use ndl_core::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The model: the set of facts, in `(rel, args)` order.
type Model = BTreeSet<Fact>;

/// The model's rendering: its facts in order, comma-separated.
fn model_display(model: &Model, syms: &SymbolTable) -> String {
    let facts: Vec<String> = model.iter().map(|f| f.display(syms).to_string()).collect();
    facts.join(", ")
}

/// The model's tuples of `rel`, in order.
fn model_tuples(model: &Model, rel: RelId) -> Vec<Vec<Value>> {
    model
        .iter()
        .filter(|f| f.rel == rel)
        .map(|f| f.args.clone())
        .collect()
}

/// A tiny deterministic generator (splitmix64) so the test depends only
/// on the seed proptest picks, not on a rand crate.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A small universe of relations (arities 1–3) and values (constants and
/// nulls) from which operation sequences draw, dense enough that inserts,
/// duplicate inserts and removes of present facts all actually happen.
fn universe(syms: &mut SymbolTable) -> (Vec<(RelId, usize)>, Vec<Value>) {
    let rels = vec![(syms.rel("R"), 2), (syms.rel("S"), 1), (syms.rel("T"), 3)];
    let mut vals: Vec<Value> = (0..4)
        .map(|i| Value::Const(syms.constant(&format!("c{i}"))))
        .collect();
    vals.push(Value::Null(NullId(0)));
    vals.push(Value::Null(NullId(1)));
    (rels, vals)
}

fn random_fact(g: &mut Gen, rels: &[(RelId, usize)], vals: &[Value]) -> Fact {
    let (rel, arity) = rels[g.below(rels.len())];
    let args: Vec<Value> = (0..arity).map(|_| vals[g.below(vals.len())]).collect();
    Fact::new(rel, args)
}

/// The instance and the model listed through their deterministic sorted
/// iteration, for exact comparison; their renderings must agree too.
fn observed(new: &Instance, model: &Model, syms: &SymbolTable) -> (Vec<Fact>, Vec<Fact>) {
    let new_facts: Vec<Fact> = new.facts().map(|f| f.to_fact()).collect();
    let model_facts: Vec<Fact> = model.iter().cloned().collect();
    assert_eq!(new.display(syms), model_display(model, syms));
    (new_facts, model_facts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert/remove/contains sequences observe identically on the
    /// columnar store and the model — including re-insertion after
    /// removal (tombstone revival on the columnar side).
    #[test]
    fn op_sequences_are_observationally_equivalent(seed in 0u64..100_000, ops in 1usize..120) {
        let mut syms = SymbolTable::new();
        let (rels, vals) = universe(&mut syms);
        let mut g = Gen(seed);
        let mut new = Instance::new();
        let mut old = Model::new();
        for _ in 0..ops {
            let f = random_fact(&mut g, &rels, &vals);
            match g.below(4) {
                // Insert twice as often as remove so instances grow.
                0 | 1 => {
                    prop_assert_eq!(new.insert(f.clone()), old.insert(f));
                }
                2 => {
                    prop_assert_eq!(new.remove(&f), old.remove(&f));
                }
                _ => {
                    prop_assert_eq!(new.contains(&f), old.contains(&f));
                    prop_assert_eq!(new.contains_tuple(f.rel, &f.args), old.contains(&f));
                }
            }
            prop_assert_eq!(new.len(), old.len());
            prop_assert_eq!(new.is_empty(), old.is_empty());
        }
        let (new_facts, old_facts) = observed(&new, &old, &syms);
        prop_assert_eq!(new_facts, old_facts);
        let adom: BTreeSet<Value> = old.iter().flat_map(|f| f.args.iter().copied()).collect();
        prop_assert_eq!(new.adom(), adom);
        let nulls: BTreeSet<NullId> = old.iter().flat_map(Fact::nulls).collect();
        prop_assert_eq!(new.nulls(), nulls);
        for &(rel, _) in &rels {
            let new_tuples: Vec<Vec<Value>> =
                new.tuples(rel).map(<[Value]>::to_vec).collect();
            let old_tuples = model_tuples(&old, rel);
            prop_assert_eq!(new.rel_len(rel), old_tuples.len());
            prop_assert_eq!(new_tuples, old_tuples);
        }
    }

    /// The columnar instance is a value: any insertion order of the same
    /// fact multiset yields equal instances, the same sorted enumeration
    /// and the same `Display` — duplicates deduplicate on the way in.
    #[test]
    fn insertion_order_does_not_matter(seed in 0u64..100_000, n in 0usize..60) {
        let mut syms = SymbolTable::new();
        let (rels, vals) = universe(&mut syms);
        let mut g = Gen(seed);
        // Draw with duplicates, then shuffle into a second order.
        let facts: Vec<Fact> = (0..n).map(|_| random_fact(&mut g, &rels, &vals)).collect();
        let mut shuffled = facts.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, g.below(i + 1));
        }
        let a = Instance::from_facts(facts.iter().cloned());
        let b = Instance::from_facts(shuffled);
        prop_assert_eq!(&a, &b);
        let a_order: Vec<Fact> = a.facts().map(|f| f.to_fact()).collect();
        let b_order: Vec<Fact> = b.facts().map(|f| f.to_fact()).collect();
        prop_assert_eq!(a_order, b_order);
        prop_assert_eq!(a.display(&syms), b.display(&syms));
        // Dedup: size equals the number of distinct facts drawn.
        let distinct: BTreeSet<&Fact> = facts.iter().collect();
        prop_assert_eq!(a.len(), distinct.len());
    }

    /// Removal composes with the equivalence: deleting a random subset
    /// from the instance and the model leaves them observing identically, and
    /// re-inserting a removed fact restores it (revived tombstones behave
    /// like fresh facts).
    #[test]
    fn removal_and_revival_preserve_equivalence(seed in 0u64..100_000, n in 1usize..50) {
        let mut syms = SymbolTable::new();
        let (rels, vals) = universe(&mut syms);
        let mut g = Gen(seed);
        let facts: Vec<Fact> = (0..n).map(|_| random_fact(&mut g, &rels, &vals)).collect();
        let mut new = Instance::from_facts(facts.iter().cloned());
        let mut old: Model = facts.iter().cloned().collect();
        let removed: Vec<Fact> = facts
            .iter()
            .filter(|_| g.below(2) == 0)
            .cloned()
            .collect();
        for f in &removed {
            prop_assert_eq!(new.remove(f), old.remove(f));
        }
        let (new_facts, old_facts) = observed(&new, &old, &syms);
        prop_assert_eq!(new_facts, old_facts);
        for f in &removed {
            prop_assert_eq!(new.insert(f.clone()), old.insert(f.clone()));
        }
        let (new_facts, old_facts) = observed(&new, &old, &syms);
        prop_assert_eq!(new_facts, old_facts);
    }
}
