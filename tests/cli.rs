//! End-to-end tests of the `ndl` command-line front end.

use std::process::Command;

fn ndl(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
        .args(args)
        .output()
        .expect("ndl runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

#[test]
fn parse_nested() {
    let (ok, out) = ndl(&[
        "parse",
        "forall x1 (S1(x1) -> exists y (forall x2 (S2(x2) -> R(y,x2))))",
    ]);
    assert!(ok);
    assert!(out.contains("2 parts"));
    assert!(out.contains("S: S1/1, S2/1; T: R/2"));
}

#[test]
fn parse_so_and_egd() {
    let (ok, out) = ndl(&["parse", "--so", "exists f . S(x,y) -> R(f(x),f(y))"]);
    assert!(ok);
    assert!(out.contains("plain"));
    let (ok, out) = ndl(&["parse", "--egd", "S(x,y) & S(x2,y) -> x = x2"]);
    assert!(ok);
    assert!(out.contains("x = x2"));
}

#[test]
fn skolemize_matches_paper() {
    let (ok, out) = ndl(&[
        "skolemize",
        "forall x1,x2 (S(x1,x2) -> exists y (R(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))",
    ]);
    assert!(ok);
    assert!(out.contains("f(x1,x2)"));
}

#[test]
fn chase_with_core() {
    let (ok, out) = ndl(&[
        "chase",
        "--tgd",
        "S(x,y) -> exists z (R(x,z) & R(z,y))",
        "--fact",
        "S(a,b)",
        "--core",
    ]);
    assert!(ok);
    assert!(out.contains("2 facts"));
    assert!(out.contains("R(a,f(a,b))"));
}

#[test]
fn chase_rejects_egd_violation() {
    let (ok, _) = ndl(&[
        "chase",
        "--tgd",
        "S(x,y) -> R(x,y)",
        "--egd",
        "S(x,y) & S(x2,y) -> x = x2",
        "--fact",
        "S(a,c)",
        "--fact",
        "S(b,c)",
    ]);
    assert!(!ok);
}

#[test]
fn implies_example_310() {
    let (ok, out) = ndl(&[
        "implies",
        "--premise",
        "S1(x1) & S2(x2) -> R(x2,x1)",
        "--conclusion",
        "forall x1 (S1(x1) -> exists y (forall x2 S2(x2) -> R(x2,y)))",
    ]);
    assert!(ok);
    assert!(out.contains("true"));
    assert!(out.contains("k = 3"));
    let (ok, out) = ndl(&[
        "implies",
        "--premise",
        "S2(x2) -> exists z R(x2,z)",
        "--conclusion",
        "forall x1 (S1(x1) -> exists y (forall x2 S2(x2) -> R(x2,y)))",
    ]);
    assert!(ok);
    assert!(out.contains("false"));
    assert!(out.contains("counterexample"));
}

#[test]
fn classify_both_ways() {
    let (ok, out) = ndl(&[
        "classify",
        "--tgd",
        "forall x1 (S1(x1) -> exists y (forall x2 (S2(x2) -> R(y,x2))))",
    ]);
    assert!(ok);
    assert!(out.contains("GLAV-equivalent: no"));
    let (ok, out) = ndl(&[
        "classify",
        "--tgd",
        "forall x1 (P(x1) -> exists y (forall x2 (Q(x2) -> U(x2,x2))))",
    ]);
    assert!(ok);
    assert!(out.contains("GLAV-equivalent: yes"));
}

#[test]
fn equiv_splits() {
    let (ok, out) = ndl(&[
        "equiv",
        "--left",
        "S(x,y) -> R(x,y) & T(y,x)",
        "--right",
        "S(x,y) -> R(x,y)",
        "--right",
        "S(x,y) -> T(y,x)",
    ]);
    assert!(ok);
    assert!(out.contains("true"));
}

#[test]
fn compose_and_certain() {
    let (ok, out) = ndl(&[
        "compose",
        "--first",
        "P(x) -> exists u Q(x,u)",
        "--second",
        "Q(x,u) -> exists w T(u,w)",
    ]);
    assert!(ok);
    assert!(out.contains("full SO tgd"));
    let (ok, out) = ndl(&[
        "certain",
        "--tgd",
        "S(x,y) -> exists z (R(x,z) & R(z,y))",
        "--fact",
        "S(a,b)",
        "--query",
        "q(x,y) :- R(x,z) & R(z,y)",
    ]);
    assert!(ok);
    assert!(out.contains("(a, b)"));
}

#[test]
fn bad_input_fails_gracefully() {
    let (ok, _) = ndl(&["implies", "--conclusion", "S(x) -> R(x)"]);
    assert!(!ok);
    let (ok, _) = ndl(&["nonsense"]);
    assert!(!ok);
    let (ok, _) = ndl(&["parse", "S(x ->"]);
    assert!(!ok);
}

/// Runs `ndl` and returns (exit code, stdout).
fn ndl_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
        .args(args)
        .output()
        .expect("ndl runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().expect("exit code"), stdout)
}

#[test]
fn analyze_summarizes_a_program() {
    let dir = std::env::temp_dir().join("ndl_cli_analyze");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("copy.ndl");
    std::fs::write(
        &path,
        "S(x,y) -> exists z (R(x,z) & T(z,y))\nfact: S(a,b)\n",
    )
    .unwrap();
    let (code, out) = ndl_code(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(out.contains("termination: richly-acyclic"), "{out}");
    assert!(out.contains("chase size: O(n^2)"), "{out}");
    assert!(out.contains("fan-in 2, fan-out 2"), "{out}");

    let (code, json) = ndl_code(&["analyze", "--json", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(json.contains("\"class\": \"richly-acyclic\""), "{json}");

    let (code, dot) = ndl_code(&["analyze", "--dot", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(dot.starts_with("digraph analysis {"), "{dot}");
    assert!(dot.contains("cluster_positions"), "{dot}");
    assert!(dot.contains("cluster_skolem"), "{dot}");
}

#[test]
fn analyze_reports_cycles_with_their_witness() {
    let dir = std::env::temp_dir().join("ndl_cli_analyze");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cyclic.ndl");
    std::fs::write(&path, "E(x,y) -> exists z E(y,z)\n").unwrap();
    let (code, out) = ndl_code(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, 0, "analyze reports, lint gates");
    assert!(out.contains("termination: cyclic"), "{out}");
    assert!(out.contains("cycle: E.2 =f=> E.2 (statement 1)"), "{out}");
    assert!(out.contains("max rank: unbounded"), "{out}");
    assert!(out.contains("chase size: no polynomial bound"), "{out}");
}

/// I/O and usage failures exit with 101, above the lint findings range.
#[test]
fn io_and_usage_failures_exit_with_101() {
    for args in [
        &["lint", "/no/such/file.ndl"][..],
        &["analyze", "/no/such/file.ndl"],
        &["analyze"],
        &["nonsense"],
    ] {
        let (code, _) = ndl_code(args);
        assert_eq!(code, 101, "args {args:?}");
    }
}

/// The lint exit code counts findings but saturates at 100, so it can
/// never collide with the 101 failure code.
#[test]
fn lint_exit_code_caps_at_100() {
    let dir = std::env::temp_dir().join("ndl_cli_cap");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("many_errors.ndl");
    let mut src = String::new();
    for i in 0..120 {
        src.push_str(&format!("R{i}(x ->\n")); // 120 parse errors
    }
    std::fs::write(&path, src).unwrap();
    let (code, _) = ndl_code(&["lint", "--json", path.to_str().unwrap()]);
    assert_eq!(code, 100);
}

fn ndl_err(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
        .args(args)
        .output()
        .expect("ndl runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `ndl chase <file>` runs the planned fixpoint chase end to end.
#[test]
fn chase_file_reaches_fixpoint() {
    let (ok, out) = ndl(&["chase", "examples/programs/running.ndl"]);
    assert!(ok);
    assert!(out.contains("fixpoint: 3 facts (1 derived, 1 nulls) in 2 rounds"));
    assert!(out.contains("R3(f(a),b)"));
}

/// `--stats` replaces the fact listing with the collected chase statistics
/// as JSON on stdout; `--no-timings` zeroes the clock fields so the output
/// is deterministic.
#[test]
fn chase_file_stats_json_is_deterministic() {
    let (ok, out, _) = ndl_err(&[
        "chase",
        "examples/programs/running.ndl",
        "--stats",
        "--no-timings",
    ]);
    assert!(ok);
    assert!(out.contains("\"outcome\": \"fixpoint\""));
    assert!(out.contains("\"rounds\": 2"));
    assert!(out.contains("\"elapsed_ns\": 0"));
    let again = ndl_err(&[
        "chase",
        "examples/programs/running.ndl",
        "--stats",
        "--no-timings",
    ]);
    assert_eq!(out, again.1, "redacted stats output is reproducible");
}

/// `--trace` writes one JSONL event per lifecycle point.
#[test]
fn chase_file_trace_writes_jsonl() {
    let dir = std::env::temp_dir().join("ndl_cli_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("running.jsonl");
    let (ok, _) = ndl(&[
        "chase",
        "examples/programs/running.ndl",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(ok);
    let trace = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = trace.lines().collect();
    assert!(lines.first().unwrap().contains("\"event\":\"chase_start\""));
    assert!(lines.last().unwrap().contains("\"event\":\"chase_end\""));
    assert!(trace.contains("\"event\":\"statement\""));
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"event\":\"round_start\""))
            .count(),
        lines
            .iter()
            .filter(|l| l.contains("\"event\":\"round_end\""))
            .count(),
    );
}

/// A non-terminating program is refused with a diagnosis and a hint to
/// re-run with an explicit budget; with `--budget N` the bounded run is a
/// legitimate result and exits clean, reporting the partial progress.
#[test]
fn chase_file_refusal_and_budget() {
    let (ok, _, err) = ndl_err(&["chase", "examples/programs/recursive.ndl"]);
    assert!(!ok);
    assert!(err.contains("not guaranteed to terminate"));
    assert!(err.contains("--budget"));

    let (ok, out, _) = ndl_err(&[
        "chase",
        "examples/programs/recursive.ndl",
        "--budget",
        "10",
        "--stats",
        "--no-timings",
    ]);
    assert!(ok, "a budgeted cutoff is a legitimate bounded run");
    assert!(out.contains("\"outcome\": \"budget-exhausted\""));
    assert!(out.contains("\"derived\": 11"));
}

/// `lint --stats` and `analyze --stats` report run statistics on stderr,
/// keeping stdout identical to an unflagged run.
#[test]
fn lint_and_analyze_stats_go_to_stderr() {
    let (ok, out, err) = ndl_err(&["lint", "examples/programs/running.ndl", "--stats"]);
    assert!(ok);
    assert!(err.contains("\"command\":\"lint\""));
    // The running example reports the five info-level relation-role
    // findings (R2/R3/R4 write-only, S2/S4 read-only), no errors.
    assert!(err.contains("\"diagnostics\":5"));
    // The semantic analysis behind the NDL020+ lints reports its passes.
    assert!(err.contains("\"passes_ns\":{\"graphs\":"), "{err}");
    let plain = ndl(&["lint", "examples/programs/running.ndl"]);
    assert_eq!(out, plain.1, "--stats must not perturb stdout");

    let (ok, out, err) = ndl_err(&["analyze", "examples/programs/running.ndl", "--stats"]);
    assert!(ok);
    assert!(err.contains("\"command\":\"analyze\""));
    assert!(err.contains("\"statements\":4"));
    for pass in [
        "graphs",
        "termination",
        "cost",
        "firing_order",
        "interference",
        "schedule",
        "dataflow",
    ] {
        assert!(
            err.contains(&format!("\"{pass}\":")),
            "{pass} missing: {err}"
        );
    }
    let plain = ndl(&["analyze", "examples/programs/running.ndl"]);
    assert_eq!(out, plain.1, "--stats must not perturb stdout");
}

#[test]
fn chase_output_into_a_closed_pipe_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // About 40k listing lines (~700 KB): far more than a pipe buffers,
    // so the writer is still writing when the reader goes away.
    let dir = std::env::temp_dir().join("ndl_cli_pipe");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.ndl");
    let mut src = String::from("S(x) -> T(x)\n");
    for i in 0..20_000 {
        src.push_str(&format!("fact: S(c{i})\n"));
    }
    std::fs::write(&path, src).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ndl"))
        .args(["chase", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ndl runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader is dropped here: the pipe closes after one line.
    assert!(first.starts_with("fixpoint: 40000 facts"), "{first}");
    let out = child.wait_with_output().expect("ndl exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}

/// An unprefixed fact is auto-detected by trying the tgd, SO-tgd and egd
/// parsers first; their failed attempts must not leave symbols behind.
/// `f(a)` read as an SO tgd would intern a function `f`, and the Skolem
/// function of the tgd below would then print as `f_1`.
#[test]
fn auto_detected_facts_name_nulls_like_prefixed_ones() {
    let dir = std::env::temp_dir().join("ndl_cli_auto_fact");
    std::fs::create_dir_all(&dir).unwrap();
    let tgd = "f(x) -> exists y R(x,y)\n";
    let mut listings = Vec::new();
    for (name, fact) in [("auto.ndl", "f(a)\n"), ("prefixed.ndl", "fact: f(a)\n")] {
        let path = dir.join(name);
        std::fs::write(&path, format!("{fact}{tgd}")).unwrap();
        let (ok, out) = ndl(&["chase", path.to_str().unwrap()]);
        assert!(ok, "{out}");
        listings.push(out);
    }
    assert!(listings[0].contains("R(a,f(a))"), "{}", listings[0]);
    assert_eq!(listings[0], listings[1]);
}

/// A fact whose relation an earlier statement — a fact or a tgd — uses at
/// another arity is a chase error naming the statement and both arities,
/// not a panic.
#[test]
fn chase_reports_fact_arity_clashes() {
    let dir = std::env::temp_dir().join(format!("ndl_cli_arity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, src, stmt) in [
        ("facts.ndl", "fact: R(a)\nfact: R(a,b)\n", 2),
        ("tgd.ndl", "S(x) -> R(x)\nfact: S(a)\nfact: R(a,b)\n", 3),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        let path = path.to_str().unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
            .args(["chase", path])
            .output()
            .expect("ndl runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{err}");
        assert_eq!(out.status.code(), Some(101), "{err}");
        assert!(
            err.starts_with(&format!(
                "error: {path} statement {stmt}: this R fact has arity 2, but an earlier \
                 statement uses R with arity 1\n"
            )),
            "{err}"
        );
    }
    // Inline source facts of one relation at two arities.
    let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
        .args([
            "chase",
            "--tgd",
            "S(x) -> R(x)",
            "--fact",
            "S(a)",
            "--fact",
            "S(a,b)",
        ])
        .output()
        .expect("ndl runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(101), "{err}");
    assert!(
        err.starts_with("error: --fact S(a,b): arity mismatch: S has arity 1, got 2\n"),
        "{err}"
    );
    // Valid programs over the same relations still chase.
    let (ok, out) = ndl(&["chase", "--tgd", "S(x) -> R(x)", "--fact", "S(a)"]);
    assert!(ok, "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tgd refused for its arities is a chase error, worded like a fact's
/// clash, where `ndl lint` reports NDL005 — not a chase that drops it.
#[test]
fn chase_reports_tgd_arity_clashes() {
    let dir = std::env::temp_dir().join(format!("ndl_cli_tgd_arity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, src, want) in [
        (
            "after_facts.ndl",
            "fact: R(a,b)\nfact: S(a)\nS(x) -> R(x)\n",
            "statement 3: this tgd uses R with arity 1, but an earlier statement uses R with \
             arity 2",
        ),
        (
            "two_tgds.ndl",
            "S(x) -> R(x)\nT(x) -> R(x,x)\nfact: S(a)\n",
            "statement 2: this tgd uses R with arity 2, but an earlier statement uses R with \
             arity 1",
        ),
        (
            "within.ndl",
            "fact: S(a)\nS(x) & S(x,y) -> R(x)\n",
            "statement 2: this tgd uses S with arity 1 and with arity 2",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        let path = path.to_str().unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
            .args(["chase", path])
            .output()
            .expect("ndl runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(101), "{err}");
        assert!(out.stdout.is_empty(), "{err}");
        assert_eq!(err, format!("error: {path} {want}\n"));
        let (code, lint) = ndl_code(&["lint", path]);
        assert!((1..=100).contains(&code), "{lint}");
        assert!(lint.contains("error[NDL005]"), "{lint}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The usage text follows usage errors only: a program that does not
/// parse is reported alone, an unknown subcommand with the usage text.
#[test]
fn usage_follows_usage_errors_only() {
    let dir = std::env::temp_dir().join(format!("ndl_cli_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.ndl");
    std::fs::write(&path, "S(x) -> R(x\n").unwrap();
    let path = path.to_str().unwrap();
    for args in [&["chase", path][..], &["chase", "/no/such/file.ndl"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
            .args(args)
            .output()
            .expect("ndl runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(101), "{err}");
        assert!(err.starts_with("error: "), "{err}");
        assert!(!err.contains("usage:"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{err}");
    }
    for args in [
        &["nonsense"][..],
        &[],
        &["chase"],
        &["serve", "--workers", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
            .args(args)
            .output()
            .expect("ndl runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(101), "{err}");
        assert!(err.contains("\nusage:\n"), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
