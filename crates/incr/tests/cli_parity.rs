//! The incremental chase renders exactly what `ndl chase` renders. On the
//! canonical text of the live inputs, the `IncrDb` chase output equals
//! the CLI's chase byte for byte, under both the default delta engine
//! (`--delta`) and the naive oracle (`--no-delta`). Checked over the
//! committed example programs and seeded random programs from `ndl-gen`,
//! before and after random edit scripts.

use ndl_chase::ChaseConfig;
use ndl_gen::{random_edit_script, random_program, EditGenOptions, ProgramGenOptions};
use ndl_incr::{parse_edit_script, IncrDb, IncrOptions, QueryKey, QueryOutput};
use ndl_serve::eval::{chase_program, ProgramArtifacts};

/// `ndl chase <file> <engine> [--budget N]` on `src`, as a query output.
fn cli_chase(src: &str, path: &str, engine: &str, budget: Option<usize>) -> QueryOutput {
    let art = ProgramArtifacts::build(src);
    let mut args = vec![engine.to_string()];
    if let Some(b) = budget {
        args.extend(["--budget".to_string(), b.to_string()]);
    }
    match chase_program(&art, path, &args, &ChaseConfig::default(), None) {
        Ok(out) => QueryOutput {
            stdout: out.stdout,
            error: None,
        },
        Err(e) => QueryOutput::err(e),
    }
}

/// Asserts that `db`'s chase output equals both CLI engines' output on
/// the session's canonical text.
fn assert_matches_cli(db: &mut IncrDb, opts: &IncrOptions) {
    let incr = db.query(QueryKey::Chase);
    let canonical = db.canonical_src();
    for engine in ["--delta", "--no-delta"] {
        let cli = cli_chase(&canonical, &opts.path, engine, opts.budget);
        assert_eq!(incr, cli, "ndl chase {engine} diverged on\n{canonical}");
    }
}

/// Statement lines (non-blank, non-comment, non-fact) of a program text.
fn stmt_count(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with("fact:"))
        .count()
}

#[test]
fn example_programs_chase_like_the_cli() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "ndl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        // The recursive example refuses without a budget and chases
        // within one; both paths must match.
        for budget in [None, Some(64)] {
            let opts = IncrOptions {
                path: path.display().to_string(),
                budget,
                ..IncrOptions::default()
            };
            let mut db = IncrDb::new(&src, opts.clone()).unwrap();
            assert_matches_cli(&mut db, &opts);
        }
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} example programs found");
}

#[test]
fn random_programs_chase_like_the_cli_across_edits() {
    for seed in 0..24u64 {
        let recursive = seed % 2 == 1;
        let program = random_program(&ProgramGenOptions {
            statements: 8,
            relations: 4,
            recursion_prob: if recursive { 0.7 } else { 0.1 },
            fact_prob: 0.4,
            seed,
            ..ProgramGenOptions::default()
        });
        let script = random_edit_script(&EditGenOptions {
            ops: 12,
            relations: 4,
            statements: stmt_count(&program),
            seed,
            ..EditGenOptions::default()
        });
        let ops = parse_edit_script(&script).unwrap();
        // Budget exhaustion, cyclic refusal and plain fixpoints.
        for budget in [None, Some(5)] {
            let opts = IncrOptions {
                budget,
                ..IncrOptions::default()
            };
            let mut db = IncrDb::new(&program, opts.clone()).unwrap();
            assert_matches_cli(&mut db, &opts);
            for (_, op) in &ops {
                db.apply(op).unwrap();
                assert_matches_cli(&mut db, &opts);
            }
        }
    }
}

#[test]
fn unchanged_output_is_a_cutoff_and_green_marks_core() {
    let program = "\
forall x (S(x) -> exists y T(x,y))
forall x,y (T(x,y) -> U(x))
fact: S(a)
fact: S(b)
";
    let mut db = IncrDb::new(program, IncrOptions::default()).unwrap();
    let chase = db.query(QueryKey::Chase);
    let core = db.query(QueryKey::Core);
    assert_eq!(db.stats().recomputes, 2);

    // Renaming the variables changes the statement input, not what the
    // chase renders: the chase recomputes, lands on the same output
    // (a cutoff), and core re-verifies green without running.
    assert!(db.set_stmt(1, "forall u,v (T(u,v) -> U(u))").unwrap());
    assert_eq!(db.query(QueryKey::Chase), chase);
    assert_eq!(db.query(QueryKey::Core), core);
    assert_eq!(db.stats().recomputes, 3, "chase reran, core did not");
    assert_eq!(db.stats().cutoffs, 1);
    assert_eq!(db.stats().green_marks, 1, "core green via the listing");
}
