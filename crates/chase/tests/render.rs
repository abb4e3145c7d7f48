//! The one-pass fact writer against the structural rendering it replaced:
//! rebuild each null's [`GroundTerm`] with [`NullFactory::term`], print it,
//! and fall back to `_Nk` when the term is unknown. Random factories mix
//! shared and deeply nested Skolem subterms, offset (`starting_at`) id
//! ranges, nulls of other factories and out-of-range ids.

use ndl_chase::NullFactory;
use ndl_core::prelude::*;
use proptest::prelude::*;
use proptest::{Rng, TestRng};

/// The reference rendering of one value: the rebuilt ground term, or
/// `_Nk` for a null this factory cannot spell out.
fn oracle_value(nulls: &NullFactory, v: Value, syms: &SymbolTable) -> String {
    match v {
        Value::Const(c) => syms.const_name(c).to_string(),
        Value::Null(n) => match nulls.term(n) {
            Some(t) => t.display(syms).to_string(),
            None => format!("_N{}", n.0),
        },
    }
}

fn oracle_fact(nulls: &NullFactory, fact: FactRef<'_>, syms: &SymbolTable) -> String {
    let args: Vec<String> = fact
        .args
        .iter()
        .map(|&v| oracle_value(nulls, v, syms))
        .collect();
    format!("{}({})", syms.rel_name(fact.rel), args.join(","))
}

fn oracle_lines(nulls: &NullFactory, inst: &Instance, syms: &SymbolTable, indent: &str) -> String {
    inst.facts()
        .map(|f| format!("{indent}{}\n", oracle_fact(nulls, f, syms)))
        .collect()
}

/// A random factory and instance over it, with the values it drew from.
struct Case {
    syms: SymbolTable,
    nulls: NullFactory,
    inst: Instance,
    values: Vec<Value>,
}

/// A null id no factory of `case` allocates: below its offset, or far
/// past its range.
fn foreign_id(rng: &mut TestRng, offset: u32) -> NullId {
    if offset > 0 && rng.gen_bool(0.5) {
        NullId(rng.gen_range(0..offset))
    } else {
        NullId(1_000_000 + rng.gen_range(0u32..1000))
    }
}

/// Builds a factory starting at a random offset: a Fibonacci-shaped chain
/// `g(n_{k-1}, n_{k-2})` nested `depth` levels (the shape a deep
/// existential pipeline produces), random applications over constants
/// and earlier nulls (interning makes repeated applications shared
/// subterms), and, when `foreign` is set, some arguments that are nulls
/// outside the factory's range. Facts draw their values from all of these.
fn random_case(seed: u64, depth: usize, foreign: bool) -> Case {
    let mut rng = TestRng::for_case(seed);
    let mut syms = SymbolTable::new();
    let consts: Vec<ConstId> = (0..4).map(|i| syms.constant(&format!("a_{i}"))).collect();
    let funcs: Vec<FuncId> = (0..4).map(|i| syms.func(&format!("f_{i}"))).collect();
    let g = syms.func("g");
    let offset = if rng.gen_bool(0.5) {
        rng.gen_range(1u32..40)
    } else {
        0
    };
    let mut nulls = NullFactory::starting_at(offset);
    let mut made: Vec<NullId> = Vec::new();

    let mut prev = nulls.null_for_app(funcs[0], vec![Value::Const(consts[0])]);
    let mut cur = nulls.null_for_app(funcs[1], vec![Value::Const(consts[1]), Value::Null(prev)]);
    made.extend([prev, cur]);
    for _ in 2..depth {
        let next = nulls.null_for_app(g, vec![Value::Null(cur), Value::Null(prev)]);
        made.push(next);
        (prev, cur) = (cur, next);
    }

    let apps = rng.gen_range(0usize..40);
    for _ in 0..apps {
        let f = funcs[rng.gen_range(0..funcs.len())];
        let arity = rng.gen_range(0usize..4);
        let args: Vec<Value> = (0..arity)
            .map(|_| match rng.gen_range(0u32..10) {
                0..=3 => Value::Const(consts[rng.gen_range(0..consts.len())]),
                4 if foreign => Value::Null(foreign_id(&mut rng, offset)),
                _ => Value::Null(made[rng.gen_range(0..made.len())]),
            })
            .collect();
        let id = nulls.null_for_app_slice(f, &args);
        if !made.contains(&id) {
            made.push(id);
        }
    }

    let mut values: Vec<Value> = consts.iter().map(|&c| Value::Const(c)).collect();
    values.extend(made.iter().map(|&n| Value::Null(n)));
    if foreign {
        values.push(Value::Null(foreign_id(&mut rng, offset)));
        values.push(Value::Null(NullId(nulls.next_id())));
    }

    let mut inst = Instance::new();
    let rels: Vec<(RelId, usize)> = (0..3).map(|i| (syms.rel(&format!("R{i}")), i)).collect();
    let facts = rng.gen_range(0usize..30);
    for _ in 0..facts {
        let (rel, arity) = rels[rng.gen_range(0..rels.len())];
        let args: Vec<Value> = (0..arity)
            .map(|_| values[rng.gen_range(0..values.len())])
            .collect();
        inst.insert(Fact::new(rel, args));
    }
    Case {
        syms,
        nulls,
        inst,
        values,
    }
}

/// Every rendering entry point agrees with the oracle on `case`.
fn assert_matches_oracle(case: &Case) {
    let Case {
        syms,
        nulls,
        inst,
        values,
    } = case;
    let want = oracle_lines(nulls, inst, syms, "  ");

    let mut got = String::new();
    nulls.write_fact_lines(inst.facts(), syms, "  ", &mut got);
    assert_eq!(got, want);

    // Spans index the whole buffer, so text already in it changes nothing.
    let mut prefixed = String::from("fixpoint: header\n");
    nulls.write_fact_lines(inst.facts(), syms, "  ", &mut prefixed);
    assert_eq!(prefixed, format!("fixpoint: header\n{want}"));

    // One writer over two listings: the second copies every null's span
    // from the first.
    let mut w = nulls.fact_writer(syms, String::new());
    w.fact_lines(inst.facts(), "  ");
    w.fact_lines(inst.facts(), "    ");
    let twice = format!("{want}{}", oracle_lines(nulls, inst, syms, "    "));
    assert_eq!(w.into_string(), twice);

    let joined: Vec<String> = inst.facts().map(|f| oracle_fact(nulls, f, syms)).collect();
    assert_eq!(nulls.display_instance(inst, syms), joined.join(", "));
    for fact in inst.facts() {
        assert_eq!(
            nulls.display_fact_ref(fact, syms),
            oracle_fact(nulls, fact, syms)
        );
    }
    for &v in values {
        assert_eq!(nulls.display_value(v, syms), oracle_value(nulls, v, syms));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Factories whose every null is spelled out in full.
    #[test]
    fn writer_matches_term_rendering(seed in 0u64..100_000, depth in 12usize..18) {
        assert_matches_oracle(&random_case(seed, depth, false));
    }

    /// Factories where some terms reach nulls outside the range: those
    /// nulls, and every null whose term contains one, print as `_Nk`.
    #[test]
    fn foreign_nulls_fall_back_to_labels(seed in 0u64..100_000, depth in 12usize..18) {
        assert_matches_oracle(&random_case(seed, depth, true));
    }
}

#[test]
fn empty_instance_renders_nothing() {
    let syms = SymbolTable::new();
    let nulls = NullFactory::new();
    let inst = Instance::new();
    let mut out = String::from("fixpoint: 0 facts\n");
    nulls.write_fact_lines(inst.facts(), &syms, "  ", &mut out);
    assert_eq!(out, "fixpoint: 0 facts\n");
    assert_eq!(nulls.display_instance(&inst, &syms), "");
}

#[test]
fn a_memoized_null_above_a_foreign_one_still_falls_back() {
    // h(a) is written in full first; g(h(a), _N99) must then print as its
    // own label, and a later h(a) is copied from the first.
    let mut syms = SymbolTable::new();
    let a = syms.constant("a");
    let h = syms.func("h");
    let g = syms.func("g");
    let r = syms.rel("R");
    let mut nulls = NullFactory::starting_at(5);
    let ha = nulls.null_for_app(h, vec![Value::Const(a)]);
    let gx = nulls.null_for_app(g, vec![Value::Null(ha), Value::Null(NullId(99))]);
    let mut inst = Instance::new();
    inst.insert(Fact::new(r, vec![Value::Null(ha), Value::Null(gx)]));
    inst.insert(Fact::new(r, vec![Value::Null(gx), Value::Null(ha)]));
    let mut out = String::new();
    nulls.write_fact_lines(inst.facts(), &syms, "", &mut out);
    assert_eq!(out, "R(h(a),_N6)\nR(_N6,h(a))\n");
    assert_eq!(out, oracle_lines(&nulls, &inst, &syms, ""));
}
