//! Property-based tests of the core invariants, driven by seeded random
//! nested tgds and source instances.

use nested_deps::prelude::*;
use proptest::prelude::*;

/// Builds a random nested tgd and a random source instance over its
/// source relations.
fn setup(seed: u64, depth: usize, facts: usize) -> (SymbolTable, NestedMapping, Instance) {
    let mut syms = SymbolTable::new();
    let tgd = random_nested_tgd(
        &mut syms,
        "p",
        &TgdGenOptions {
            max_depth: depth,
            max_children: 2,
            existential_prob: 0.7,
            seed,
        },
    );
    let mapping = NestedMapping::new(vec![tgd], vec![]).expect("generated tgd is valid");
    let rels: Vec<(RelId, usize)> = mapping
        .schema
        .relations()
        .filter(|&(_, _, s)| s == Side::Source)
        .map(|(r, a, _)| (r, a))
        .collect();
    let source = random_instance(
        &mut syms,
        &rels,
        &InstanceGenOptions {
            facts,
            domain: 4,
            seed: seed.wrapping_mul(31).wrapping_add(7),
        },
    );
    (syms, mapping, source)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chase result is a solution: (I, chase(I, M)) ⊨ M.
    #[test]
    fn chase_produces_solutions(seed in 0u64..10_000, depth in 1usize..4, facts in 0usize..12) {
        let (mut syms, mapping, source) = setup(seed, depth, facts);
        let (res, _) = chase_mapping(&source, &mapping, &mut syms);
        prop_assert!(satisfies_mapping(&source, &res.target, &mapping));
    }

    /// Universality: the chase maps homomorphically into every solution we
    /// can construct — here, homomorphic images of the chase (solutions by
    /// closure under target homomorphisms) and supersets.
    #[test]
    fn chase_is_universal(seed in 0u64..10_000, facts in 0usize..10) {
        let (mut syms, mapping, source) = setup(seed, 3, facts);
        let (res, _) = chase_mapping(&source, &mapping, &mut syms);
        let chased = res.target;
        // Core: a homomorphic image, hence a solution; chase must map in.
        let core = core_of(&chased);
        prop_assert!(satisfies_mapping(&source, &core, &mapping));
        prop_assert!(homomorphic(&chased, &core));
        // Superset solution.
        let mut bigger = chased.clone();
        let target_rel = mapping
            .schema
            .relations()
            .find(|&(_, _, s)| s == Side::Target)
            .map(|(r, a, _)| (r, a));
        if let Some((rel, arity)) = target_rel {
            let c = Value::Const(syms.constant("extra"));
            bigger.insert(Fact::new(rel, vec![c; arity]));
            prop_assert!(satisfies_mapping(&source, &bigger, &mapping));
            prop_assert!(homomorphic(&chased, &bigger));
        }
    }

    /// Core invariants: the core is a subinstance, hom-equivalent, and has
    /// no proper retraction.
    #[test]
    fn core_is_a_core(seed in 0u64..10_000, facts in 0usize..10) {
        let (mut syms, mapping, source) = setup(seed, 2, facts);
        let (res, _) = chase_mapping(&source, &mapping, &mut syms);
        let core = core_of(&res.target);
        prop_assert!(verify_core(&core, &res.target));
        // Idempotence.
        prop_assert_eq!(core_of(&core), core);
    }

    /// The nested chase agrees with the SO chase of the Skolemized tgd
    /// (compared via the ground Skolem terms labeling the nulls — the two
    /// engines may allocate `NullId`s in different orders).
    #[test]
    fn skolemization_preserves_chase(seed in 0u64..10_000, facts in 0usize..10) {
        let (mut syms, mapping, source) = setup(seed, 3, facts);
        let tgd = mapping.tgds[0].clone();
        let prep = Prepared::new(tgd.clone(), &mut syms);
        let so = skolemize_with(&tgd, &prep.info);
        let mut n1 = NullFactory::new();
        let nested = chase_nested(&source, &[prep], &mut n1).target;
        let mut n2 = NullFactory::new();
        let so_result = chase_so(&source, &so, &mut n2);
        let canon = |inst: &Instance, nf: &NullFactory| -> std::collections::BTreeSet<String> {
            inst.facts().map(|f| nf.display_fact_ref(f, &syms)).collect()
        };
        prop_assert_eq!(canon(&nested, &n1), canon(&so_result, &n2));
    }

    /// Model checking a nested tgd agrees with the homomorphism criterion
    /// chase(I, σ) → J on perturbed targets.
    #[test]
    fn model_check_agrees_with_hom_criterion(seed in 0u64..5_000, facts in 1usize..8, drop in 0usize..4) {
        let (mut syms, mapping, source) = setup(seed, 2, facts);
        let (res, _) = chase_mapping(&source, &mapping, &mut syms);
        // Perturb: drop `drop` facts from the chase result.
        let all: Vec<Fact> = res.target.facts().map(|f| f.to_fact()).collect();
        let j = Instance::from_facts(all.iter().skip(drop).cloned());
        let tgd = &mapping.tgds[0];
        prop_assert_eq!(
            satisfies_nested(&source, &j, tgd),
            homomorphic(&res.target, &j)
        );
    }

    /// IMPLIES is reflexive on random nested tgds (within pattern budget).
    #[test]
    fn implies_is_reflexive(seed in 0u64..2_000) {
        let mut syms = SymbolTable::new();
        let tgd = random_nested_tgd(
            &mut syms,
            "r",
            &TgdGenOptions { max_depth: 2, max_children: 1, existential_prob: 0.6, seed },
        );
        let mapping = NestedMapping::new(vec![tgd.clone()], vec![]).unwrap();
        let opts = ImpliesOptions { pattern_budget: 50_000 };
        match implies_tgd(&mapping, &tgd, &mut syms, &opts) {
            Ok(report) => prop_assert!(report.holds),
            Err(ReasoningError::PatternBudgetExceeded { .. }) => {} // discard
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// The egd chase is idempotent and its result satisfies the egds.
    #[test]
    fn egd_chase_idempotent(seed in 0u64..10_000, facts in 0usize..15) {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let egd = parse_egd(&mut syms, "S(x,y) & S(x,y2) -> y = y2").unwrap();
        let source = random_instance(
            &mut syms,
            &[(s, 2)],
            &InstanceGenOptions { facts, domain: 5, seed },
        );
        let once = chase_egds(&source, std::slice::from_ref(&egd), RigidPolicy::AllFlexible).unwrap();
        prop_assert!(satisfies_egds(&once.instance, std::slice::from_ref(&egd)));
        let twice = chase_egds(&once.instance, std::slice::from_ref(&egd), RigidPolicy::AllFlexible).unwrap();
        prop_assert_eq!(&once.instance, &twice.instance);
        prop_assert!(!twice.merged_anything());
    }

    /// k-pattern enumeration: all patterns valid, clone multiplicities
    /// within k, counts monotone in k.
    #[test]
    fn k_patterns_invariants(seed in 0u64..2_000, k in 1usize..3) {
        let mut syms = SymbolTable::new();
        let tgd = random_nested_tgd(
            &mut syms,
            "k",
            &TgdGenOptions { max_depth: 2, max_children: 2, existential_prob: 0.5, seed },
        );
        let budget = 100_000;
        let (Ok(ps), Ok(ps_next)) = (k_patterns(&tgd, k, budget), k_patterns(&tgd, k + 1, budget)) else {
            return Ok(()); // budget discard
        };
        for p in &ps {
            prop_assert!(p.is_valid_for(&tgd));
            prop_assert!(p.max_clone_multiplicity() <= k);
        }
        prop_assert!(ps_next.len() >= ps.len());
    }

    /// Any homomorphism found is a genuine homomorphism, and the f-blocks
    /// partition the instance's facts.
    #[test]
    fn hom_and_blocks_invariants(seed in 0u64..10_000, facts in 0usize..10) {
        let (mut syms, mapping, source) = setup(seed, 2, facts);
        let (res, _) = chase_mapping(&source, &mapping, &mut syms);
        let chased = res.target;
        let blocks = f_blocks(&chased);
        let total: usize = blocks.iter().map(Instance::len).sum();
        prop_assert_eq!(total, chased.len());
        let core = core_of(&chased);
        if let Some(h) = find_homomorphism(&chased, &core) {
            prop_assert!(nested_deps::hom::is_homomorphism(&h, &chased, &core));
        } else {
            prop_assert!(false, "chase must map into its core");
        }
    }

    /// The indexed trigger matcher agrees with the scan-based one on
    /// random instances and conjunctions.
    #[test]
    fn matcher_agrees_with_scan_randomized(seed in 0u64..10_000, facts in 0usize..20) {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let q = syms.rel("Q");
        let inst = random_instance(
            &mut syms,
            &[(s, 2), (q, 1)],
            &InstanceGenOptions { facts, domain: 4, seed },
        );
        let x = syms.var("x");
        let y = syms.var("y");
        let z = syms.var("z");
        let queries: Vec<Vec<Atom>> = vec![
            vec![Atom::new(s, vec![x, y]), Atom::new(s, vec![y, z])],
            vec![Atom::new(s, vec![x, y]), Atom::new(q, vec![y])],
            vec![Atom::new(q, vec![x]), Atom::new(s, vec![x, x])],
        ];
        let matcher = nested_deps::chase::Matcher::new(&inst);
        for qr in &queries {
            let mut a = all_matches(&inst, qr, &Binding::new());
            let mut b = matcher.all_matches(qr, &Binding::new());
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
    }

    /// Normalization preserves logical equivalence on random nested tgds
    /// (checked with IMPLIES in both directions).
    #[test]
    fn normalization_preserves_equivalence(seed in 0u64..1_500) {
        let mut syms = SymbolTable::new();
        let tgd = random_nested_tgd(
            &mut syms,
            "n",
            &TgdGenOptions { max_depth: 2, max_children: 2, existential_prob: 0.5, seed },
        );
        let m = NestedMapping::new(vec![tgd], vec![]).unwrap();
        let opts = ImpliesOptions { pattern_budget: 50_000 };
        let Ok(norm) = nested_deps::reasoning::normalize_mapping(&m, &mut syms, &opts) else {
            return Ok(()); // pattern budget discard
        };
        match nested_deps::reasoning::equivalent(&m, &norm, &mut syms, &opts) {
            Ok(eq) => prop_assert!(eq, "normalized {} inequivalent", norm.display(&syms)),
            Err(ReasoningError::PatternBudgetExceeded { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// Splitting independent conjuncts never loses or invents head atoms.
    #[test]
    fn split_preserves_atom_multiset(seed in 0u64..2_000) {
        let mut syms = SymbolTable::new();
        let tgd = random_nested_tgd(
            &mut syms,
            "s",
            &TgdGenOptions { max_depth: 3, max_children: 2, existential_prob: 0.6, seed },
        );
        let split = nested_deps::reasoning::split_independent_conjuncts(&tgd);
        let count = |t: &NestedTgd| -> usize {
            t.parts().iter().map(|p| p.head.len()).sum()
        };
        let total: usize = split.iter().map(count).sum();
        prop_assert_eq!(total, count(&tgd));
        for s in &split {
            prop_assert!(s.validate(&mut Schema::new()).is_ok());
        }
    }

    /// Pretty-print → parse round-trip for nested tgds: the parser accepts
    /// every rendering the printer produces, and re-rendering is a fixed
    /// point.
    #[test]
    fn nested_tgd_display_parse_round_trips(seed in 0u64..5_000, depth in 1usize..4) {
        let mut syms = SymbolTable::new();
        let tgd = random_nested_tgd(
            &mut syms,
            "rt",
            &TgdGenOptions { max_depth: depth, max_children: 2, existential_prob: 0.6, seed },
        );
        let text = tgd.display(&syms);
        let reparsed = parse_nested_tgd(&mut syms, &text);
        prop_assert!(reparsed.is_ok(), "reparse failed on {}: {:?}", text, reparsed.err());
        prop_assert_eq!(reparsed.unwrap().display(&syms), text);
    }

    /// Pretty-print → parse round-trip for s-t tgds and the SO tgds
    /// produced by Skolemization.
    #[test]
    fn st_and_so_display_parse_round_trips(seed in 0u64..5_000) {
        let mut syms = SymbolTable::new();
        let tgd = random_nested_tgd(
            &mut syms,
            "rs",
            &TgdGenOptions { max_depth: 1, max_children: 1, existential_prob: 0.6, seed },
        );
        let st = tgd.to_st_tgd().expect("depth-1 tgd is an s-t tgd");
        let st_text = st.display(&syms);
        let st_back = parse_st_tgd(&mut syms, &st_text);
        prop_assert!(st_back.is_ok(), "s-t reparse failed on {}: {:?}", st_text, st_back.err());
        prop_assert_eq!(st_back.unwrap().display(&syms), st_text);

        let deep = random_nested_tgd(
            &mut syms,
            "rq",
            &TgdGenOptions { max_depth: 3, max_children: 2, existential_prob: 0.7, seed },
        );
        let (so, _) = skolemize(&deep, &mut syms);
        let so_text = so.display(&syms);
        let so_back = parse_so_tgd(&mut syms, &so_text);
        prop_assert!(so_back.is_ok(), "SO reparse failed on {}: {:?}", so_text, so_back.err());
        prop_assert_eq!(so_back.unwrap().display(&syms), so_text);
    }

    /// Pretty-print → parse round-trip for egds (key constraints over
    /// random arities and key positions).
    #[test]
    fn egd_display_parse_round_trips(arity in 1usize..5, key in 0usize..4) {
        let mut syms = SymbolTable::new();
        let rel = syms.rel("K");
        let key = key.min(arity.saturating_sub(1));
        for egd in Egd::key(&mut syms, rel, arity, &[key]) {
            let text = egd.display(&syms);
            let back = parse_egd(&mut syms, &text);
            prop_assert!(back.is_ok(), "egd reparse failed on {}: {:?}", text, back.err());
            prop_assert_eq!(back.unwrap().display(&syms), text);
        }
    }

    /// The analyzer never reports error-severity diagnostics on well-formed
    /// generated programs (warnings and info findings are fine).
    #[test]
    fn lint_accepts_generated_programs(seed in 0u64..2_000, n in 1usize..4) {
        let mut syms = SymbolTable::new();
        let mut src = String::new();
        for i in 0..n {
            let tgd = random_nested_tgd(
                &mut syms,
                &format!("l{seed}_{i}"),
                &TgdGenOptions {
                    max_depth: 3,
                    max_children: 2,
                    existential_prob: 0.7,
                    seed: seed.wrapping_add(i as u64),
                },
            );
            src.push_str(&tgd.display(&syms));
            src.push('\n');
        }
        let diags = lint_source(&mut syms, &src, &LintOptions::default());
        for d in &diags {
            prop_assert!(d.severity != Severity::Error, "unexpected error {:?} on:\n{}", d, src);
        }
    }

    /// Legal canonical instances always satisfy the source egds
    /// (Definition 5.4).
    #[test]
    fn legal_canonical_instances_satisfy_egds(seed in 0u64..2_000) {
        let mut syms = SymbolTable::new();
        let tgd = random_nested_tgd(
            &mut syms,
            "g",
            &TgdGenOptions { max_depth: 2, max_children: 2, existential_prob: 0.5, seed },
        );
        // A key egd on the first binary source relation, if any.
        let mut schema = Schema::new();
        tgd.validate(&mut schema).unwrap();
        let Some((rel, _, _)) = schema
            .relations()
            .find(|&(r, a, s)| s == Side::Source && a == 2 && { let _ = r; true })
        else {
            return Ok(());
        };
        let egds = Egd::key(&mut syms, rel, 2, &[0]);
        let info = SkolemInfo::for_nested(&tgd, &mut syms);
        let Ok(patterns) = k_patterns(&tgd, 2, 10_000) else { return Ok(()); };
        for pattern in patterns.iter().take(10) {
            let mut nulls = NullFactory::new();
            let pair = canonical_instances(&tgd, &info, pattern, &mut syms, &mut nulls);
            let legal = legalize(&pair, &egds, &mut nulls);
            prop_assert!(satisfies_egds(&legal.source, &egds));
        }
    }

    /// The full pipeline — parse, lint, semantic analysis — never panics
    /// and is deterministic on random program texts, including recursive
    /// programs and non-ASCII comments.
    #[test]
    fn analysis_pipeline_is_total_and_deterministic(
        seed in 0u64..10_000,
        stmts in 1usize..25,
        recur in 0usize..101,
    ) {
        let text = random_program(&ProgramGenOptions {
            statements: stmts,
            recursion_prob: recur as f64 / 100.0,
            seed,
            ..Default::default()
        });
        let run = || {
            let mut syms = SymbolTable::new();
            let diags = lint_source(&mut syms, &text, &LintOptions::default());
            let (analysis, errs) = ChaseAnalysis::analyze_source(&mut syms, &text);
            (diags, errs, analysis.report(&syms))
        };
        let (d1, e1, r1) = run();
        let (d2, e2, r2) = run();
        prop_assert_eq!(e1, 0, "generator emits only valid statements:\n{}", text);
        prop_assert_eq!(e2, 0);
        prop_assert_eq!(d1, d2, "lint findings must be deterministic");
        prop_assert_eq!(r1, r2, "analysis reports must be deterministic");
    }

    /// Certified dead-code elimination is invisible: on programs seeded
    /// with provably dead statements, the naive and delta engines'
    /// certified runs are bit-identical to the uncertified naive run —
    /// same facts, same `NullId`s, same round and derived counts — and
    /// budget exhaustion/refusal outcomes agree too.
    #[test]
    fn certified_dead_code_elimination_is_bit_identical(
        seed in 0u64..3_000,
        n in 1usize..8,
        dead in 1usize..5,
        budget_raw in 0usize..30,
    ) {
        // 0 encodes "no budget" (the shim has no option strategy).
        let budget = (budget_raw > 0).then_some(budget_raw);
        let text = random_program_with_dead_code(
            &ProgramGenOptions {
                statements: n,
                recursion_prob: 0.2,
                fact_prob: 0.4,
                seed,
                ..Default::default()
            },
            dead,
        );
        let mut syms = SymbolTable::new();
        let (analysis, errs) = ChaseAnalysis::analyze_source(&mut syms, &text);
        prop_assert_eq!(errs, 0, "generator emits only valid statements:\n{}", text);
        let (stmts, _) = nested_deps::analyze::parse_program(&mut syms, &text);
        let mut source = Instance::new();
        for s in &stmts {
            if let Some(nested_deps::analyze::StmtAst::Fact(f)) = s.ast.as_ref() {
                source.insert(f.clone());
            }
        }
        let tgds: Vec<SoTgd> = analysis.so_tgds().into_iter().map(|(_, t)| t).collect();
        let mut certified = analysis.tgd_plan(budget);
        // Budget even "guaranteed" plans so exhaustion parity is exercised;
        // a `None` budget on a non-guaranteed plan tests refusal parity.
        certified.step_budget = budget;
        let cert = certified.cert.clone().expect("tgd_plan attaches a cert");
        prop_assert!(
            !cert.dead.is_empty(),
            "generator guarantees provably dead statements:\n{}",
            text
        );
        let uncertified = ChasePlan { cert: None, ..certified.clone() };
        type Engine = fn(
            &Instance,
            &[SoTgd],
            &ChasePlan,
            &mut NullFactory,
        ) -> std::result::Result<FixpointChase, FixpointError>;
        let engines: [(&str, Engine); 2] = [("fixpoint", chase_fixpoint), ("delta", chase_fixpoint_delta)];
        let mut base_nulls = NullFactory::new();
        let baseline = chase_fixpoint(&source, &tgds, &uncertified, &mut base_nulls);
        for (name, engine) in engines {
            for (mode, plan) in [("certified", &certified), ("uncertified", &uncertified)] {
                let mut nf = NullFactory::new();
                match (engine(&source, &tgds, plan, &mut nf), &baseline) {
                    (Ok(out), Ok(base)) => {
                        prop_assert_eq!(
                            &out.instance, &base.instance,
                            "{} {} diverged on:\n{}", name, mode, text
                        );
                        prop_assert_eq!(out.rounds, base.rounds);
                        prop_assert_eq!(out.derived, base.derived);
                        prop_assert_eq!(nf.len(), base_nulls.len());
                    }
                    (Err(e), Err(b)) => prop_assert_eq!(
                        e.to_string(), b.to_string(),
                        "{} {} failed differently on:\n{}", name, mode, text
                    ),
                    (got, _) => prop_assert!(
                        false,
                        "{} {} outcome {:?} disagrees with baseline {:?} on:\n{}",
                        name, mode, got.map(|o| o.derived), baseline.as_ref().map(|o| o.derived), text
                    ),
                }
            }
        }
    }

    /// The termination classification is honest against a brute-force
    /// budgeted oblivious chase: richly acyclic programs reach their
    /// fixpoint within a generous budget, and whenever the budgeted chase
    /// diverges, the program was not classified richly acyclic.
    #[test]
    fn classification_agrees_with_budgeted_chase_oracle(seed in 0u64..4_000, n in 1usize..10) {
        let text = random_program(&ProgramGenOptions {
            statements: n,
            recursion_prob: 0.3,
            fact_prob: 0.4,
            seed,
            ..Default::default()
        });
        let mut syms = SymbolTable::new();
        let (analysis, _) = ChaseAnalysis::analyze_source(&mut syms, &text);
        let (stmts, _) = nested_deps::analyze::parse_program(&mut syms, &text);
        let mut tgds = Vec::new();
        let mut source = Instance::new();
        for s in &stmts {
            match s.ast.as_ref() {
                Some(nested_deps::analyze::StmtAst::Tgd(t)) => {
                    tgds.push(skolemize(t, &mut syms).0)
                }
                Some(nested_deps::analyze::StmtAst::So(t)) => tgds.push(t.clone()),
                Some(nested_deps::analyze::StmtAst::Fact(f)) => {
                    source.insert(f.clone());
                }
                _ => {}
            }
        }
        // Modest on purpose: the oracle's joins materialize up to
        // |instance|^2 bindings per round, so the budget bounds memory as
        // well as time. Generated programs that terminate do so well
        // under it (small constant pool, <= 9 statements).
        const BUDGET: usize = 1_000;
        let mut plan = analysis.plan(Some(BUDGET));
        // Budget even "guaranteed" plans so the oracle cannot hang; a
        // guaranteed plan exhausting it would fail the test below.
        plan.step_budget = Some(BUDGET);
        let mut nulls = NullFactory::new();
        match chase_fixpoint(&source, &tgds, &plan, &mut nulls) {
            Ok(_) => {} // terminated: consistent with every class
            Err(FixpointError::BudgetExhausted { .. }) => prop_assert!(
                analysis.termination.class != TerminationClass::RichlyAcyclic,
                "budgeted chase diverged on a richly acyclic program:\n{}",
                text
            ),
            Err(e) => prop_assert!(false, "unexpected chase error {e} on:\n{}", text),
        }
    }
}
