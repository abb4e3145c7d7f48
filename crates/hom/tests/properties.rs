//! Property tests pinning the indexed/incremental engine to its spec and to
//! the preserved scan engine (`ndl_hom::scan`) on seed-generated random
//! instances with nulls.
//!
//! Cores are unique only up to isomorphism, so the two `core_of`
//! implementations are compared structurally (size, null count, and the
//! defining retract property against the input), not for equality.

use ndl_core::prelude::*;
use ndl_hom::scan::{core_of_scan, homomorphic_scan, is_core_scan};
use ndl_hom::{
    core_f_block_size, core_of, core_with_f_block_size, f_block_size, hom_equivalent, homomorphic,
    is_core, verify_core,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// A random instance over a binary and a ternary relation, mixing
/// constants and nulls; small enough that the scan engine stays fast.
fn random_instance(seed: u64, facts: usize, domain: usize, nulls: usize) -> Instance {
    let mut syms = SymbolTable::new();
    let r = syms.rel("R");
    let q = syms.rel("Q");
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Value> = (0..domain.max(1))
        .map(|i| Value::Const(syms.constant(&format!("c{i}"))))
        .chain((0..nulls).map(|i| Value::Null(NullId(i as u32))))
        .collect();
    let mut inst = Instance::new();
    for _ in 0..facts {
        let (rel, arity) = if rng.gen_range(0..3usize) < 2 {
            (r, 2)
        } else {
            (q, 3)
        };
        let args: Vec<Value> = (0..arity)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        inst.insert(Fact::new(rel, args));
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn core_is_idempotent(seed in 0u64..1_000_000, facts in 1usize..14, nulls in 0usize..6) {
        let j = random_instance(seed, facts, 5, nulls);
        let c = core_of(&j);
        prop_assert_eq!(core_of(&c), c);
    }

    #[test]
    fn core_verifies_against_input(seed in 0u64..1_000_000, facts in 1usize..14, nulls in 0usize..6) {
        let j = random_instance(seed, facts, 5, nulls);
        let c = core_of(&j);
        prop_assert!(verify_core(&c, &j));
    }

    #[test]
    fn indexed_homomorphic_agrees_with_scan(
        seed in 0u64..1_000_000,
        f1 in 1usize..10,
        f2 in 1usize..14,
        nulls in 0usize..6,
    ) {
        let j1 = random_instance(seed, f1, 4, nulls);
        let j2 = random_instance(seed.wrapping_add(1), f2, 4, nulls);
        prop_assert_eq!(homomorphic(&j1, &j2), homomorphic_scan(&j1, &j2));
        prop_assert_eq!(homomorphic(&j2, &j1), homomorphic_scan(&j2, &j1));
    }

    #[test]
    fn core_engines_agree_structurally(seed in 0u64..1_000_000, facts in 1usize..12, nulls in 0usize..6) {
        let j = random_instance(seed, facts, 5, nulls);
        let a = core_of(&j);
        let b = core_of_scan(&j);
        // Cores are unique up to isomorphism.
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.nulls().len(), b.nulls().len());
        prop_assert!(hom_equivalent(&a, &b));
        prop_assert!(verify_core(&a, &j));
        prop_assert!(verify_core(&b, &j));
    }

    #[test]
    fn core_block_size_matches_the_core_fact_graph(
        seed in 0u64..1_000_000,
        facts in 0usize..14,
        nulls in 0usize..6,
    ) {
        // From all-null to all-ground instances: the block size read off
        // the core engine equals the fact graph's of the same core.
        let j = random_instance(seed, facts, 5, nulls * 2);
        let (core, size) = core_with_f_block_size(&j);
        prop_assert_eq!(&core, &core_of(&j));
        prop_assert_eq!(size, f_block_size(&core));
        prop_assert_eq!(core_f_block_size(&j), size);
    }

    #[test]
    fn is_core_agrees_with_scan(seed in 0u64..1_000_000, facts in 1usize..12, nulls in 0usize..6) {
        let j = random_instance(seed, facts, 5, nulls);
        prop_assert_eq!(is_core(&j), is_core_scan(&j));
        prop_assert!(is_core(&core_of(&j)));
    }
}
