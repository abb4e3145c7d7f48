//! The core engine's parallel retraction probes must give exactly the
//! sequential engine's core: both apply retractions smallest-null-first.
//!
//! This file holds a single test because it switches `NDL_HOM_THREADS`
//! and `NDL_HOM_SEQUENTIAL_CUTOFF` in the process environment, which is
//! only safe while no other test thread reads it.

use ndl_core::prelude::*;
use ndl_hom::{core_of, core_of_observed};
use ndl_obs::HomStats;
use rand::{Rng, SeedableRng, StdRng};

/// A random instance over a binary and a ternary relation with many
/// nulls and few constants, so that most cores retract several times.
fn random_instance(seed: u64) -> Instance {
    let mut syms = SymbolTable::new();
    let r = syms.rel("R");
    let q = syms.rel("Q");
    let mut rng = StdRng::seed_from_u64(seed);
    let nulls = rng.gen_range(4..24usize);
    let pool: Vec<Value> = (0..3)
        .map(|i| Value::Const(syms.constant(&format!("c{i}"))))
        .chain((0..nulls).map(|i| Value::Null(NullId(i as u32))))
        .collect();
    let mut inst = Instance::new();
    for _ in 0..rng.gen_range(8..60usize) {
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

#[test]
fn parallel_probes_give_the_sequential_core() {
    let instances: Vec<Instance> = (0..300).map(random_instance).collect();
    std::env::set_var("NDL_HOM_THREADS", "1");
    let sequential: Vec<Instance> = instances.iter().map(core_of).collect();

    std::env::set_var("NDL_HOM_THREADS", "3");
    std::env::set_var("NDL_HOM_SEQUENTIAL_CUTOFF", "1");
    let stats = HomStats::new();
    let mut retracted = 0;
    for (seed, (inst, want)) in instances.iter().zip(&sequential).enumerate() {
        let got = core_of_observed(inst, &stats);
        assert_eq!(&got, want, "parallel core differs on instance {seed}");
        retracted += usize::from(got.len() < inst.len());
    }
    std::env::remove_var("NDL_HOM_THREADS");
    std::env::remove_var("NDL_HOM_SEQUENTIAL_CUTOFF");

    let snap = stats.snapshot();
    assert!(snap.threads_dispatched > 0, "the parallel path never ran");
    assert!(snap.retractions > 0);
    assert!(retracted > 30, "too few instances shrank ({retracted})");
}
