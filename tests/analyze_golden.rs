//! Golden tests for `ndl analyze` over the example programs in
//! `examples/programs/`, classification of the paper's worked examples,
//! and the analysis-to-chase handoff (refusal of non-terminating
//! programs with an NDL020-backed diagnosis).

use nested_deps::analyze::AnalysisReport;
use nested_deps::prelude::*;
use std::process::Command;

fn example(name: &str) -> String {
    format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(example(&format!("golden/{name}"))).expect("golden file exists")
}

/// Runs `ndl analyze <flag> <example>` and returns its stdout.
fn analyze_cli(name: &str, flag: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ndl"))
        .args(["analyze", flag, &example(name)])
        .output()
        .expect("ndl runs");
    assert!(out.status.success(), "analyze fails on {name}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn example_reports_match_the_committed_goldens() {
    for name in ["running", "recursive", "pipeline"] {
        let got = analyze_cli(&format!("{name}.ndl"), "--json");
        let want = golden(&format!("{name}.json"));
        assert_eq!(got.trim_end(), want.trim_end(), "golden drift for {name}");
        // The goldens parse back into reports (schema stability).
        let report = AnalysisReport::from_json(&want).expect("golden parses");
        assert_eq!(report.to_json(), want.trim_end());
    }
}

#[test]
fn running_example_dot_matches_the_committed_golden() {
    let got = analyze_cli("running.ndl", "--dot");
    assert_eq!(got, golden("running.dot"));
}

/// The exchange-shaped dead-code example: every analyzer output, the lint
/// report and the rendered chase listing are pinned byte for byte.
#[test]
fn dead_code_example_matches_its_goldens() {
    for (flag, golden_name) in [("--json", "dead_code.json"), ("--dot", "dead_code.dot")] {
        let got = analyze_cli("dead_code.ndl", flag);
        assert_eq!(got.trim_end(), golden(golden_name).trim_end(), "{flag}");
    }
    let run = |args: &[&str]| {
        let mut full: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        full.push(example("dead_code.ndl"));
        Command::new(env!("CARGO_BIN_EXE_ndl"))
            .args(&full)
            .output()
            .expect("ndl runs")
    };
    for (args, golden_name) in [
        (
            &["analyze", "--schedule", "--json"][..],
            "dead_code.schedule.json",
        ),
        (
            &["analyze", "--dataflow", "--json"][..],
            "dead_code.dataflow.json",
        ),
        (&["chase"][..], "dead_code.chase.txt"),
        (&["lint", "--json"][..], "dead_code.lint.json"),
    ] {
        let out = run(args);
        let got = String::from_utf8(out.stdout).expect("utf-8 output");
        assert_eq!(got, golden(golden_name), "{args:?}");
        // `ndl lint` exits with its error+warning count, capped at 100.
        let code = if args[0] == "lint" { 100 } else { 0 };
        assert_eq!(out.status.code(), Some(code), "{args:?}");
    }
}

#[test]
fn library_report_matches_the_cli() {
    for name in ["running", "recursive", "pipeline"] {
        let src = std::fs::read_to_string(example(&format!("{name}.ndl"))).unwrap();
        let mut syms = SymbolTable::new();
        let (analysis, parse_errors) = ChaseAnalysis::analyze_source(&mut syms, &src);
        assert_eq!(parse_errors, 0);
        let want = golden(&format!("{name}.json"));
        assert_eq!(analysis.report(&syms).to_json(), want.trim_end());
    }
}

/// The worked examples of the paper all sit inside the weakly acyclic
/// fragment — in fact, being source-to-target, no created value ever
/// re-enters a body, so they are richly acyclic and every chase variant
/// terminates on them.
#[test]
fn paper_worked_examples_are_weakly_acyclic() {
    let fixtures: &[(&str, &str)] = &[
        (
            "running_sigma",
            "forall x1 (S1(x1) -> exists y1 (forall x2 (S2(x2) -> R2(y1,x2)) & \
             forall x3 (S3(x1,x3) -> (R3(y1,x3) & \
             forall x4 (S4(x3,x4) -> exists y2 R4(y2,x4))))))",
        ),
        (
            "tau_310",
            "forall x1 (S1(x1) -> exists y (forall x2 S2(x2) -> R(x2,y)))",
        ),
        (
            "intro_nested",
            "forall x1,x2 (S(x1,x2) -> exists y (R(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))",
        ),
        (
            "sigma_48",
            "so: exists f . S(x,y) -> R(f(x),f(y)) & R(f(y),f(x))",
        ),
        ("tau_413", "so: exists f . S(x,y) -> R(f(x),f(y))"),
        (
            "sigma_414",
            "so: exists f,g . S(x,y) & Q(z) -> R(f(z,x),f(z,y),g(z))",
        ),
        (
            "sigma_415",
            "so: exists f,g . S(x,y) & Q(z) -> R(f(z,x,y),g(z),x)",
        ),
        (
            "nested_415",
            "forall z (Q(z) -> exists u (forall x,y (S(x,y) -> exists v R(v,u,x))))",
        ),
    ];
    for (name, text) in fixtures {
        let mut syms = SymbolTable::new();
        let (analysis, parse_errors) = ChaseAnalysis::analyze_source(&mut syms, text);
        assert_eq!(parse_errors, 0, "{name} parses");
        assert!(
            analysis.termination.class <= TerminationClass::WeaklyAcyclic,
            "{name} classified {:?}",
            analysis.termination.class
        );
        // Source-to-target: richly acyclic, with a polynomial size bound.
        assert_eq!(
            analysis.termination.class,
            TerminationClass::RichlyAcyclic,
            "{name}"
        );
        assert!(analysis.cost.size_degree.is_some(), "{name}");
    }
}

/// Skolemizes each tgd statement of a program text for the fixpoint chase.
fn so_tgds(syms: &mut SymbolTable, texts: &[&str]) -> Vec<SoTgd> {
    texts
        .iter()
        .map(|t| {
            let tgd = parse_nested_tgd(syms, t).expect("tgd parses");
            skolemize(&tgd, syms).0
        })
        .collect()
}

/// The chase-refusal path: a cyclic program's plan carries the same
/// diagnosis the linter reports as NDL020, the fixpoint chase refuses to
/// run it without a budget, and a budget turns the refusal into a
/// bounded `BudgetExhausted`.
#[test]
fn fixpoint_chase_refuses_cyclic_programs_with_the_lint_diagnosis() {
    let text = "E(x,y) -> exists z E(y,z)";
    let mut syms = SymbolTable::new();
    let (analysis, _) = ChaseAnalysis::analyze_source(&mut syms, text);
    assert_eq!(analysis.termination.class, TerminationClass::Cyclic);

    // The plan's diagnosis is the NDL020 story.
    let plan = analysis.plan(None);
    assert!(!plan.guaranteed_terminating);
    let diagnosis = plan
        .diagnosis
        .clone()
        .expect("cyclic plans carry a diagnosis");
    assert!(diagnosis.contains("not weakly acyclic"), "{diagnosis}");
    let diags = lint_source(&mut syms, text, &LintOptions::default());
    let ndl020 = diags.iter().find(|d| d.code == "NDL020").expect("NDL020");
    assert!(ndl020.message.contains("not weakly acyclic"));

    let tgds = so_tgds(&mut syms, &[text]);
    let mut source = Instance::new();
    source.insert(parse_fact(&mut syms, "E(a,b)").unwrap());

    // Without a budget the engine refuses outright...
    let mut nulls = NullFactory::new();
    match chase_fixpoint(&source, &tgds, &plan, &mut nulls) {
        Err(FixpointError::NonTerminating { diagnosis: d }) => {
            let d = d.expect("refusal carries the analyzer diagnosis");
            assert!(d.contains("not weakly acyclic"), "{d}")
        }
        other => panic!("expected refusal, got {other:?}"),
    }

    // ...and with one, it stops at the budget instead of diverging.
    let budgeted = analysis.plan(Some(16));
    let mut nulls = NullFactory::new();
    match chase_fixpoint(&source, &tgds, &budgeted, &mut nulls) {
        Err(FixpointError::BudgetExhausted { budget, .. }) => assert_eq!(budget, 16),
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
}

/// Richly acyclic plans run to a fixpoint without any budget.
#[test]
fn fixpoint_chase_runs_guaranteed_plans_unbudgeted() {
    let texts = ["S(x) -> exists y T(x,y)", "T(x,y) -> exists z U(y,z)"];
    let mut syms = SymbolTable::new();
    let (analysis, _) = ChaseAnalysis::analyze_source(&mut syms, &texts.join("\n"));
    assert_eq!(analysis.termination.class, TerminationClass::RichlyAcyclic);
    let tgds = so_tgds(&mut syms, &texts);
    let mut source = Instance::new();
    source.insert(parse_fact(&mut syms, "S(a)").unwrap());
    let mut nulls = NullFactory::new();
    let res = chase_fixpoint(&source, &tgds, &analysis.plan(None), &mut nulls)
        .expect("guaranteed plan runs");
    assert_eq!(res.derived, 2); // T(a,f(a)) and U(f(a),g(a,f(a)))
    assert!(res.instance.nulls().len() >= 2);
}
