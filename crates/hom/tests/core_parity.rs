//! The core engine against a compact restatement of the incremental
//! retraction loop it implements: smallest dirty null first, each probe
//! a block-local search into one index of the input that keeps retracted
//! facts as dead ids, blocks re-derived from the survivors of every
//! retraction. The engine must give the same core, the same rendered
//! listing, the same f-block size and the same [`HomStats`] counts on
//! retracting random instances, generated target instances, chases of
//! generated programs and Clio chases.

use ndl_analyze::ProgramArtifacts;
use ndl_chase::NullFactory;
use ndl_core::prelude::*;
use ndl_gen::{random_program, random_target_instance, ProgramGenOptions, TargetGenOptions};
use ndl_hom::{
    apply, core_of_observed, core_with_f_block_size, f_block_size, find_homomorphism_into_observed,
    null_blocks, HomMap,
};
use ndl_obs::stats::HomStatsSnapshot;
use ndl_obs::{HomObserver, HomStats};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::{BTreeMap, BTreeSet};

/// A random instance over a binary and a ternary relation with many
/// nulls and few constants, so that most cores retract several times.
fn retracting_instance(seed: u64) -> (Instance, SymbolTable) {
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
    (inst, syms)
}

/// The retraction loop, restated over public building blocks: one
/// [`TupleIndex`] of the input with retracted facts removed (their ids
/// stay in the posting lists), blocks as instances, a sorted dirty set.
fn reference_core<O: HomObserver>(inst: &Instance, obs: &O) -> Instance {
    fn add(
        block: Instance,
        blocks: &mut Vec<Instance>,
        block_of: &mut BTreeMap<NullId, usize>,
        dirty: &mut BTreeSet<NullId>,
    ) {
        for n in block.nulls() {
            block_of.insert(n, blocks.len());
            dirty.insert(n);
        }
        blocks.push(block);
    }
    let mut index = TupleIndex::from_instance(inst);
    let (mut blocks, mut block_of, mut dirty) = (Vec::new(), BTreeMap::new(), BTreeSet::new());
    for block in null_blocks(inst) {
        add(block, &mut blocks, &mut block_of, &mut dirty);
    }
    let mut current = inst.clone();
    while let Some(n) = dirty.pop_first() {
        let b = block_of[&n];
        let forbid = |_: NullId, v: Value| v == Value::Null(n);
        let found =
            find_homomorphism_into_observed(&blocks[b], &index, &HomMap::new(), &forbid, obs);
        obs.retraction_probe(found.is_some());
        let Some(h) = found else { continue };
        let block = std::mem::take(&mut blocks[b]);
        let image = apply(&h, &block);
        let mut survivors = Instance::new();
        for f in block.facts() {
            if image.contains_tuple(f.rel, f.args) {
                survivors.insert_tuple(f.rel, f.args);
            } else {
                index.remove_tuple(f.rel, f.args);
                current.remove(&f.to_fact());
            }
        }
        for m in block.nulls() {
            block_of.remove(&m);
            dirty.remove(&m);
        }
        for sub in null_blocks(&survivors) {
            add(sub, &mut blocks, &mut block_of, &mut dirty);
        }
    }
    current
}

/// The chase of a program text, if it reaches a fixpoint within `budget`
/// derived facts, with the symbols and nulls that render it.
fn chased(src: &str, budget: usize) -> Option<(Instance, SymbolTable, NullFactory)> {
    let art = ProgramArtifacts::build(src);
    if art.chase_refusal("p").is_some() {
        return None;
    }
    let plan = art.analysis.tgd_plan(Some(budget));
    let mut nulls = NullFactory::new();
    let res = ndl_chase::chase_fixpoint_delta(&art.source, &art.tgds, &plan, &mut nulls).ok()?;
    Some((res.instance, art.syms, nulls))
}

fn snapshot(stats: &HomStats) -> HomStatsSnapshot {
    HomStatsSnapshot {
        threads_dispatched: 0,
        ..stats.snapshot()
    }
}

/// Asserts the engine's core, listing, f-block size and counters equal
/// the reference's.
fn assert_parity(inst: &Instance, syms: &SymbolTable, nulls: &NullFactory, what: &str) -> bool {
    let (want_stats, got_stats) = (HomStats::new(), HomStats::new());
    let want = reference_core(inst, &want_stats);
    let got = core_of_observed(inst, &got_stats);
    let (plain, size) = core_with_f_block_size(inst);
    assert_eq!(got, want, "{what}: core");
    assert_eq!(plain, got, "{what}: core_with_f_block_size");
    let render = |i: &Instance| {
        let mut s = String::new();
        nulls.write_fact_lines(i.facts(), syms, "  ", &mut s);
        s
    };
    assert_eq!(render(&got), render(&want), "{what}: listing");
    assert_eq!(size, f_block_size(&want), "{what}: f-block size");
    assert_eq!(
        snapshot(&got_stats),
        snapshot(&want_stats),
        "{what}: counters"
    );
    got.len() < inst.len()
}

fn clio(depts: usize, seed: u64, flat: bool) -> (Instance, SymbolTable, NullFactory) {
    chased(&ndl_bench::clio_program(depts, seed, flat), usize::MAX).expect("Clio chases")
}

#[test]
fn retracting_instances_match_the_reference() {
    let nulls = NullFactory::new();
    let mut retracted = 0;
    for seed in 0..300 {
        let (inst, syms) = retracting_instance(seed);
        retracted += usize::from(assert_parity(&inst, &syms, &nulls, &format!("seed {seed}")));
    }
    assert!(retracted > 30, "too few instances shrank ({retracted})");
}

#[test]
fn clio_chases_match_the_reference_at_both_ends() {
    for flat in [false, true] {
        for depts in [50, 1000] {
            let (inst, syms, nulls) = clio(depts, 1, flat);
            let shrank = assert_parity(&inst, &syms, &nulls, &format!("clio {depts} flat={flat}"));
            assert_eq!(shrank, flat, "only the flat Clio chase retracts");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_targets_match_the_reference(
        seed in 0u64..1_000_000,
        facts in 10usize..400,
        redundant in 0usize..40,
    ) {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let q = syms.rel("Q");
        let inst = random_target_instance(
            &mut syms,
            &[(s, 2), (q, 3)],
            &TargetGenOptions { facts, domain: (facts / 5).max(4), redundant_nulls: redundant, seed },
        );
        assert_parity(&inst, &syms, &NullFactory::new(), &format!("target seed {seed}"));
    }

    #[test]
    fn generated_program_chases_match_the_reference(
        seed in 0u64..1_000_000,
        statements in 4usize..24,
        recursion in 0u32..4,
    ) {
        let src = random_program(&ProgramGenOptions {
            statements,
            relations: 5,
            recursion_prob: f64::from(recursion) / 10.0,
            comment_prob: 0.0,
            fact_prob: 0.4,
            seed,
        });
        if let Some((inst, syms, nulls)) = chased(&src, 400) {
            assert_parity(&inst, &syms, &nulls, &format!("program seed {seed}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn clio_chases_match_the_reference(depts in 50usize..1001, seed in 0u64..1000, flat in 0u32..2) {
        let flat = flat == 1;
        let (inst, syms, nulls) = clio(depts, seed, flat);
        assert_parity(&inst, &syms, &nulls, &format!("clio {depts} seed {seed} flat={flat}"));
    }
}
