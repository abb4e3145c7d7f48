//! Behavioral tests of the red-green engine: hits, red marks, green
//! marks, recomputes and early cutoffs, observed through `IncrStats`.

use ndl_incr::{parse_edit_script, IncrDb, IncrOptions, QueryKey};

const PROGRAM: &str = "\
forall x (S(x) -> exists y T(x,y))
forall x,y (T(x,y) -> U(x))
fact: S(a)
fact: S(b)
";

fn db(src: &str) -> IncrDb {
    IncrDb::new(src, IncrOptions::default()).unwrap()
}

#[test]
fn repeated_queries_hit_without_recompute() {
    let mut db = db(PROGRAM);
    let first = db.query(QueryKey::Chase);
    assert!(first.error.is_none(), "{first:?}");
    let second = db.query(QueryKey::Chase);
    assert_eq!(first, second);
    assert_eq!(db.stats().lookups, 2);
    assert_eq!(db.stats().hits, 1);
    assert_eq!(db.stats().recomputes, 1);
}

#[test]
fn fact_insert_reddens_chase_but_not_analysis() {
    let mut db = db(PROGRAM);
    db.query(QueryKey::Analysis);
    db.query(QueryKey::Chase);
    assert_eq!(db.stats().recomputes, 2);

    db.insert_fact("S(c)").unwrap();
    assert_eq!(db.stats().input_bumps, 1);
    // Chase (and only chase — core/blocks have no memos yet) went red.
    assert_eq!(db.stats().red_marks, 1);

    db.query(QueryKey::Chase);
    db.query(QueryKey::Analysis);
    // Chase recomputed; analysis re-verified via its statement
    // fingerprint without running (it was never red, so no green mark
    // is counted either).
    assert_eq!(db.stats().recomputes, 3);
    assert_eq!(db.stats().green_marks, 0);
}

#[test]
fn churn_batch_green_marks_instead_of_recomputing() {
    let mut db = db(PROGRAM);
    let before = db.query(QueryKey::Chase);
    db.retract_fact("S(a)").unwrap();
    db.insert_fact("S(a)").unwrap();
    assert_eq!(db.stats().input_bumps, 2);
    let after = db.query(QueryKey::Chase);
    assert_eq!(before, after);
    assert_eq!(db.stats().recomputes, 1, "churn must not recompute");
    assert_eq!(db.stats().green_marks, 1);
}

#[test]
fn noop_edits_bump_nothing() {
    let mut db = db(PROGRAM);
    db.query(QueryKey::Chase);
    assert!(!db.insert_fact("S(a)").unwrap(), "already present");
    assert!(!db.retract_fact("S(zzz)").unwrap(), "absent");
    db.compact();
    let stmt0 = db.statements()[0].clone();
    assert!(!db.set_stmt(0, &stmt0).unwrap(), "same text");
    assert_eq!(db.stats().input_bumps, 0);
    assert_eq!(db.stats().red_marks, 0);
    // And the memo still hits.
    db.query(QueryKey::Chase);
    assert_eq!(db.stats().hits, 1);
}

#[test]
fn compact_bumps_epoch_but_is_invisible_to_memos() {
    let mut db = db(PROGRAM);
    let before = db.query(QueryKey::Chase);
    let epoch = db.epoch();
    db.compact();
    assert_eq!(db.epoch(), epoch + 1);
    assert_eq!(db.query(QueryKey::Chase), before);
    assert_eq!(db.stats().recomputes, 1);
    assert_eq!(db.stats().hits, 1, "compact does not even unverify");
}

#[test]
fn inserting_an_already_derived_fact_cuts_off_core() {
    // The chase derives U(a); inserting U(a) as a *source* fact changes
    // the chase value (derivation count drops) but not the chased
    // instance — core must verify green off the instance hash alone.
    let mut db = db(PROGRAM);
    let chase_before = db.query(QueryKey::Chase);
    let core_before = db.query(QueryKey::Core);
    assert_eq!(db.stats().recomputes, 2);

    db.insert_fact("U(a)").unwrap();
    let chase_after = db.query(QueryKey::Chase);
    assert_ne!(
        chase_before.stdout, chase_after.stdout,
        "derived count changed"
    );
    let core_after = db.query(QueryKey::Core);
    assert_eq!(core_before, core_after);
    assert_eq!(db.stats().recomputes, 3, "chase reran, core did not");
    assert_eq!(db.stats().green_marks, 1, "core green via instance hash");
}

#[test]
fn set_stmt_invalidates_only_dependent_reasoning_memos() {
    let mut db = db(PROGRAM);
    db.query(QueryKey::Implies(0, 1));
    db.query(QueryKey::Implies(1, 1));
    assert_eq!(db.stats().recomputes, 2);

    db.set_stmt(0, "forall x (S(x) -> exists y,z T(y,z))")
        .unwrap();
    // implies(0,1) depends on statement 0, implies(1,1) does not.
    assert_eq!(db.stats().red_marks, 1);
    db.query(QueryKey::Implies(1, 1));
    assert_eq!(db.stats().recomputes, 2, "untouched pair stays green");
    db.query(QueryKey::Implies(0, 1));
    assert_eq!(db.stats().recomputes, 3);
}

#[test]
fn budget_exhaustion_is_memoized_and_propagates() {
    let cyclic = "forall x,y (R(x,y) -> exists z R(y,z))\nfact: R(a,b)\n";
    let mut db = IncrDb::new(
        cyclic,
        IncrOptions {
            budget: Some(3),
            ..IncrOptions::default()
        },
    )
    .unwrap();
    let chase = db.query(QueryKey::Chase);
    assert!(chase.error.is_none());
    assert!(chase.stdout.starts_with("budget exhausted:"), "{chase:?}");
    let core = db.query(QueryKey::Core);
    let err = core.error.expect("no instance to take a core of");
    assert!(
        err.starts_with("chase unavailable: budget exhausted:"),
        "{err}"
    );
    // Both memoized: a second round of queries is all hits.
    db.query(QueryKey::Chase);
    db.query(QueryKey::Core);
    assert_eq!(db.stats().hits, 2);
}

#[test]
fn cyclic_refusal_is_memoized_like_a_value() {
    let cyclic = "forall x,y (R(x,y) -> exists z R(y,z))\nfact: R(a,b)\n";
    let mut db = db(cyclic);
    let chase = db.query(QueryKey::Chase);
    let err = chase.error.expect("unbudgeted cyclic program refuses");
    assert!(err.contains("re-run with --budget N"), "{err}");
    // Churn an unrelated fact: the refusal re-verifies green.
    db.insert_fact("Q(a,a)").unwrap();
    db.retract_fact("Q(a,a)").unwrap();
    let again = db.query(QueryKey::Chase);
    assert_eq!(again.error.as_deref(), Some(err.as_str()));
    assert_eq!(db.stats().recomputes, 1);
}

#[test]
fn reasoning_errors_are_outputs_not_panics() {
    let mut db = db(PROGRAM);
    let out = db.query(QueryKey::Implies(0, 99));
    assert!(out.error.unwrap().contains("out of range"));
    let egd = "egd: R(x,y) & R(x,z) -> y = z\nR(x,y) -> R(y,x)\n";
    let mut db = db_from(egd);
    let out = db.query(QueryKey::Equiv(0, 1));
    assert!(out.error.unwrap().contains("not a nested tgd"));
}

fn db_from(src: &str) -> IncrDb {
    IncrDb::new(src, IncrOptions::default()).unwrap()
}

#[test]
fn apply_script_runs_end_to_end() {
    let script = parse_edit_script(
        r#"
{"op":"insert","fact":"S(c)"}
{"op":"query","q":"chase"}
{"op":"compact"}
{"op":"query","q":"core"}
{"op":"query","q":"blocks"}
{"op":"query","q":"analysis"}
"#,
    )
    .unwrap();
    let mut db = db(PROGRAM);
    let outputs = db.apply_script(&script).unwrap();
    assert_eq!(outputs.len(), 4);
    assert_eq!(outputs[0].0, QueryKey::Chase);
    assert!(outputs[0].1.stdout.starts_with("fixpoint:"));
    assert!(outputs[1].1.stdout.starts_with("core:"));
    assert!(outputs[2].1.stdout.starts_with("null blocks:"));
    assert!(outputs[3].1.stdout.starts_with('{'));
    assert!(outputs[3].1.stdout.contains("\"statements\""));
}

/// A source fact whose relation the statements use at another arity —
/// inserted, or left behind by a statement edit — makes the chase an
/// error naming the fact's statement in the canonical text, exactly as
/// the scratch text path (and `ndl chase` on that text) words it; undoing
/// the clash restores the chase.
#[test]
fn arity_clashes_are_chase_errors() {
    let src = "S(x) -> R(x)\nfact: S(a)\nfact: P(a)\n";
    let mut incr = db_from(src);
    let mut scratch = IncrDb::new(
        src,
        IncrOptions {
            scratch: true,
            ..IncrOptions::default()
        },
    )
    .unwrap();
    let clash = "<incr> statement 3: this R fact has arity 2, but an earlier statement uses R \
                 with arity 1";
    let script = parse_edit_script(
        r#"
{"op":"query","q":"chase"}
{"op":"insert","fact":"R(a,b)"}
{"op":"query","q":"chase"}
{"op":"query","q":"core"}
{"op":"retract","fact":"R(a,b)"}
{"op":"query","q":"chase"}
{"op":"set-stmt","index":0,"text":"S(x) -> R(x,x)"}
{"op":"insert","fact":"R(a,b)"}
{"op":"query","q":"chase"}
{"op":"set-stmt","index":0,"text":"S(x) -> R(x)"}
{"op":"query","q":"chase"}
"#,
    )
    .unwrap();
    let outputs = incr.apply_script(&script).unwrap();
    assert_eq!(outputs, scratch.apply_script(&script).unwrap());
    let errors: Vec<Option<&str>> = outputs.iter().map(|(_, o)| o.error.as_deref()).collect();
    let unavailable = format!("chase unavailable: {clash}");
    assert_eq!(
        errors,
        [
            None,
            Some(clash),
            Some(unavailable.as_str()),
            None,
            None,
            Some(clash)
        ]
    );
    assert_eq!(outputs[3].1, outputs[0].1);
    assert!(outputs[4].1.stdout.contains("R(a,b)"), "{:?}", outputs[4].1);
}
