//! Parity of the indexed analysis passes against their pairwise reference
//! definitions.
//!
//! The oracle below is the analyzer's original all-pairs formulation of
//! each pass: conflict edges from testing every scheduled pair, firing
//! order from intersecting every pair of head/body sets and re-scanning
//! for an in-degree-0 statement, schedule stages from a linear scan of the
//! edge list, Skolem edges from one regular-reach search per function
//! (adjacency rebuilt each time), and dataflow from round-robin fixpoints.
//! The library passes must agree with it exactly on random programs —
//! acyclic and cyclic, with dead code, facts, egds and SO tgds sharing
//! Skolem functions.

use ndl_analyze::dataflow::Provenance;
use ndl_analyze::graph::{PosId, PositionGraph};
use ndl_analyze::{
    parse_program, ChaseAnalysis, ConflictKind, Footprint, ProgramArtifacts, StmtAst,
};
use ndl_core::prelude::*;
use ndl_gen::{random_program, random_program_with_dead_code, ProgramGenOptions};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Edge = (usize, usize, Vec<ConflictKind>);

/// The conflict kinds of two distinct statements, straight from the
/// definition (W–W, R–W either way, shared Skolem function).
fn kinds(a: &Footprint, b: &Footprint) -> Vec<ConflictKind> {
    let meets = |x: &[RelId], y: &[RelId]| x.iter().any(|r| y.contains(r));
    let mut k = Vec::new();
    if meets(a.writes, b.writes) {
        k.push(ConflictKind::WriteWrite);
    }
    if meets(a.reads, b.writes) || meets(b.reads, a.writes) {
        k.push(ConflictKind::ReadWrite);
    }
    if a.funcs.iter().any(|f| b.funcs.contains(f)) {
        k.push(ConflictKind::SharedNullFactory);
    }
    k
}

/// Every scheduled pair tested: edges in `(a, b)` order, plus the
/// self-interfering statements.
fn oracle_conflicts(a: &ChaseAnalysis) -> (Vec<Edge>, Vec<usize>) {
    let fps = |s: usize| a.interference.footprints.get(s).unwrap();
    let sched: &[usize] = &a.interference.scheduled;
    let mut edges = Vec::new();
    let mut selfish = Vec::new();
    for (i, &s) in sched.iter().enumerate() {
        if fps(s).reads.iter().any(|r| fps(s).writes.contains(r)) {
            selfish.push(s);
        }
        for &t in &sched[i + 1..] {
            let k = kinds(&fps(s), &fps(t));
            if !k.is_empty() {
                edges.push((s, t, k));
            }
        }
    }
    (edges, selfish)
}

/// Producer-before-consumer order by all-pairs head/body intersection and
/// a Kahn loop that re-scans the remaining statements every step.
fn oracle_firing_order(a: &ChaseAnalysis) -> Vec<usize> {
    let n = a.graphs.statements;
    let mut rels: BTreeMap<usize, (BTreeSet<RelId>, BTreeSet<RelId>)> = BTreeMap::new();
    for cv in &a.graphs.clauses {
        let e = rels.entry(cv.stmt).or_default();
        e.0.extend(cv.clause.body.iter().map(|b| b.rel));
        e.1.extend(cv.clause.head.iter().map(|h| h.rel));
    }
    let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut indeg = vec![0usize; n];
    for (&s, (_, heads)) in &rels {
        for (&t, (bodies, _)) in &rels {
            if s != t && heads.intersection(bodies).next().is_some() && succs[s].insert(t) {
                indeg[t] += 1;
            }
        }
    }
    let mut remaining: BTreeSet<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .copied()
            .find(|&s| indeg[s] == 0)
            .unwrap_or_else(|| *remaining.iter().next().expect("nonempty"));
        remaining.remove(&next);
        order.push(next);
        for &t in &succs[next] {
            if remaining.contains(&t) {
                indeg[t] = indeg[t].saturating_sub(1);
            }
        }
    }
    order
}

/// The contiguous greedy stratification, with independence decided by a
/// linear scan of the edge list.
fn oracle_stages(a: &ChaseAnalysis, edges: &[Edge], order: &[usize]) -> Vec<Vec<usize>> {
    let inter = &a.interference;
    let selfish = |s: usize| {
        let fp = inter.footprints.get(s).unwrap();
        fp.reads.iter().any(|r| fp.writes.contains(r))
    };
    let independent = |x: usize, y: usize| {
        let (x, y) = if x <= y { (x, y) } else { (y, x) };
        x != y
            && inter.scheduled.contains(&x)
            && inter.scheduled.contains(&y)
            && !edges.iter().any(|e| e.0 == x && e.1 == y)
    };
    let mut stages: Vec<Vec<usize>> = Vec::new();
    for &s in order {
        if !inter.scheduled.contains(&s) {
            continue;
        }
        let fits = match stages.last() {
            Some(stage) if !selfish(s) => stage.iter().all(|&t| !selfish(t) && independent(s, t)),
            _ => false,
        };
        if fits {
            stages.last_mut().expect("nonempty").push(s);
        } else {
            stages.push(vec![s]);
        }
    }
    stages
}

/// Positions reachable from `from` over regular edges, rebuilding the
/// adjacency on every call.
fn regular_reach(pg: &PositionGraph, from: &BTreeSet<PosId>) -> BTreeSet<PosId> {
    let mut adj: Vec<Vec<PosId>> = vec![Vec::new(); pg.positions.len()];
    for e in pg.edges.iter().filter(|e| !e.special) {
        adj[e.from].push(e.to);
    }
    let mut out = from.clone();
    let mut stack: Vec<PosId> = from.iter().copied().collect();
    while let Some(v) = stack.pop() {
        for &w in &adj[v] {
            if out.insert(w) {
                stack.push(w);
            }
        }
    }
    out
}

fn collect_term(t: &Term, funcs: &mut BTreeSet<FuncId>, vars: &mut BTreeSet<VarId>) {
    match t {
        Term::Var(v) => {
            vars.insert(*v);
        }
        Term::App(f, args) => {
            funcs.insert(*f);
            for a in args {
                collect_term(a, funcs, vars);
            }
        }
    }
}

fn position_ids(pg: &PositionGraph) -> BTreeMap<(RelId, usize), PosId> {
    pg.positions
        .iter()
        .enumerate()
        .map(|(i, &rp)| (rp, i))
        .collect()
}

/// Per clause: body positions of every variable.
fn body_positions(
    clause: &SoClause,
    ids: &BTreeMap<(RelId, usize), PosId>,
) -> BTreeMap<VarId, BTreeSet<PosId>> {
    let mut out: BTreeMap<VarId, BTreeSet<PosId>> = BTreeMap::new();
    for b in &clause.body {
        for (i, &v) in b.args.iter().enumerate() {
            if let Some(&p) = ids.get(&(b.rel, i)) {
                out.entry(v).or_default().insert(p);
            }
        }
    }
    out
}

/// The Skolem graph over the library's function order: `(func, fan_in,
/// fan_out)` per function and the all-pairs edge list.
type SkolemView = (Vec<(FuncId, usize, usize)>, Vec<(usize, usize)>);

fn oracle_skolem(a: &ChaseAnalysis) -> (BTreeSet<FuncId>, SkolemView) {
    let pg = &a.graphs.positions;
    let ids = position_ids(pg);
    let mut occ: BTreeMap<FuncId, BTreeSet<PosId>> = BTreeMap::new();
    let mut input: BTreeMap<FuncId, BTreeSet<PosId>> = BTreeMap::new();
    for cv in &a.graphs.clauses {
        let body_pos = body_positions(&cv.clause, &ids);
        for ta in &cv.clause.head {
            for (i, t) in ta.args.iter().enumerate() {
                let Some(&q) = ids.get(&(ta.rel, i)) else {
                    continue;
                };
                let mut funcs = BTreeSet::new();
                let mut vars = BTreeSet::new();
                collect_term(t, &mut funcs, &mut vars);
                for f in funcs {
                    occ.entry(f).or_default().insert(q);
                    let inp = input.entry(f).or_default();
                    for v in &vars {
                        inp.extend(body_pos.get(v).into_iter().flatten());
                    }
                }
            }
        }
    }
    let funcs: Vec<FuncId> = a.graphs.skolem.funcs.iter().map(|f| f.func).collect();
    let reach: Vec<BTreeSet<PosId>> = funcs
        .iter()
        .map(|f| regular_reach(pg, occ.get(f).unwrap_or(&BTreeSet::new())))
        .collect();
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    for (i, &f) in funcs.iter().enumerate() {
        nodes.push((f, input.get(&f).map_or(0, BTreeSet::len), reach[i].len()));
        for (j, g) in funcs.iter().enumerate() {
            if input
                .get(g)
                .into_iter()
                .flatten()
                .any(|p| reach[i].contains(p))
            {
                edges.push((i, j));
            }
        }
    }
    (occ.keys().copied().collect(), (nodes, edges))
}

/// The dataflow verdicts: `(reachable, dead, live, nullable, ground,
/// provenance)`, every fixpoint run round-robin until nothing changes.
type DataflowView = (
    BTreeSet<RelId>,
    BTreeSet<usize>,
    BTreeSet<usize>,
    BTreeSet<RelId>,
    BTreeSet<RelId>,
    Vec<Provenance>,
);

fn oracle_dataflow(a: &ChaseAnalysis, stmts: &[ndl_analyze::Statement]) -> DataflowView {
    let g = &a.graphs;
    let mut read = BTreeSet::new();
    let mut written = BTreeSet::new();
    for (_, fp) in a.interference.footprints.iter() {
        read.extend(fp.reads.iter().copied());
        written.extend(fp.writes.iter().copied());
    }
    let facts: BTreeSet<RelId> = stmts
        .iter()
        .filter_map(|s| match &s.ast {
            Some(StmtAst::Fact(f)) => Some(f.rel),
            _ => None,
        })
        .collect();
    let sources: BTreeSet<RelId> = if facts.is_empty() {
        read.difference(&written).copied().collect()
    } else {
        facts
    };
    assert_eq!(a.dataflow.sources, sources);

    let mut reachable = sources.clone();
    loop {
        let mut changed = false;
        for cv in &g.clauses {
            if cv.clause.body.iter().all(|b| reachable.contains(&b.rel)) {
                for ta in &cv.clause.head {
                    changed |= reachable.insert(ta.rel);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let firing: Vec<bool> = g
        .clauses
        .iter()
        .map(|cv| cv.clause.body.iter().all(|b| reachable.contains(&b.rel)))
        .collect();
    let (mut dead, mut live) = (BTreeSet::new(), BTreeSet::new());
    for &s in &a.interference.scheduled {
        let alive = g
            .clauses
            .iter()
            .zip(&firing)
            .any(|(cv, &f)| cv.stmt == s && f);
        if alive {
            live.insert(s);
        } else {
            dead.insert(s);
        }
    }

    let mut nullable: BTreeSet<RelId> = BTreeSet::new();
    loop {
        let mut changed = false;
        for (cv, _) in g.clauses.iter().zip(&firing).filter(|(_, &f)| f) {
            for ta in &cv.clause.head {
                if nullable.contains(&ta.rel) {
                    continue;
                }
                let introduces = ta.args.iter().any(|t| match t {
                    Term::App(..) => true,
                    Term::Var(v) => {
                        let binders: Vec<RelId> = cv
                            .clause
                            .body
                            .iter()
                            .filter(|b| b.args.contains(v))
                            .map(|b| b.rel)
                            .collect();
                        binders.iter().all(|r| nullable.contains(r))
                    }
                });
                if introduces {
                    nullable.insert(ta.rel);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mentioned: BTreeSet<RelId> = sources
        .iter()
        .chain(read.iter())
        .chain(written.iter())
        .copied()
        .collect();
    let ground = mentioned.difference(&nullable).copied().collect();

    let pg = &g.positions;
    let ids = position_ids(pg);
    let mut prov = vec![Provenance::default(); pg.positions.len()];
    for (p, &(rel, _)) in pg.positions.iter().enumerate() {
        if sources.contains(&rel) {
            prov[p].sources.insert(p);
        }
    }
    let mut copies: BTreeSet<(PosId, PosId)> = BTreeSet::new();
    for (cv, _) in g.clauses.iter().zip(&firing).filter(|(_, &f)| f) {
        let body_pos = body_positions(&cv.clause, &ids);
        for ta in &cv.clause.head {
            for (i, t) in ta.args.iter().enumerate() {
                let Some(&q) = ids.get(&(ta.rel, i)) else {
                    continue;
                };
                match t {
                    Term::Var(x) => {
                        for &p in body_pos.get(x).into_iter().flatten() {
                            copies.insert((p, q));
                        }
                    }
                    t @ Term::App(..) => {
                        let mut vars = BTreeSet::new();
                        collect_term(t, &mut prov[q].funcs, &mut vars);
                    }
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for &(p, q) in copies.iter().filter(|(p, q)| p != q) {
            let from = prov[p].clone();
            for s in from.sources {
                changed |= prov[q].sources.insert(s);
            }
            for f in from.funcs {
                changed |= prov[q].funcs.insert(f);
            }
        }
        if !changed {
            break;
        }
    }
    (reachable, dead, live, nullable, ground, prov)
}

/// The unused source columns (NDL043), straight from the definition: a
/// column of a source atom in a firing clause or an egd is used when its
/// variable occurs at another body argument, in the head or in an
/// equality; a column no occurrence uses is unused.
fn oracle_unused_source_columns(
    a: &ChaseAnalysis,
    stmts: &[ndl_analyze::Statement],
) -> BTreeSet<(RelId, usize)> {
    let sources = &a.dataflow.sources;
    let mut used: BTreeMap<(RelId, usize), bool> = BTreeMap::new();
    let mut visit = |body: &[Atom], elsewhere: &dyn Fn(VarId) -> bool| {
        for (ai, atom) in body.iter().enumerate() {
            if !sources.contains(&atom.rel) {
                continue;
            }
            for (i, &v) in atom.args.iter().enumerate() {
                let in_body = body.iter().enumerate().any(|(bi, b)| {
                    let mut others = b.args.iter().enumerate();
                    others.any(|(j, &w)| w == v && (bi, j) != (ai, i))
                });
                *used.entry((atom.rel, i)).or_default() |= in_body || elsewhere(v);
            }
        }
    };
    for cv in &a.graphs.clauses {
        let c = &cv.clause;
        let fires = c.body.iter().all(|b| a.dataflow.reachable.contains(&b.rel));
        if !fires {
            continue;
        }
        let mut vars = BTreeSet::new();
        let mut funcs = BTreeSet::new();
        let terms = c.head.iter().flat_map(|ta| &ta.args);
        for t in terms.chain(c.equalities.iter().flat_map(|(l, r)| [l, r])) {
            collect_term(t, &mut funcs, &mut vars);
        }
        visit(&c.body, &|v| vars.contains(&v));
    }
    for stmt in stmts {
        if let Some(StmtAst::Egd(e)) = &stmt.ast {
            visit(&e.body, &|v| e.eq.0 == v || e.eq.1 == v);
        }
    }
    used.into_iter()
        .filter_map(|(col, u)| (!u).then_some(col))
        .collect()
}

/// Appends egds and SO tgds that share Skolem functions (the generators
/// emit neither), drawn from `seed` over the `R0..R{relations}` pool.
fn with_egds_and_shared_funcs(mut src: String, relations: usize, seed: u64) -> String {
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = |m: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize % m.max(1)
    };
    for _ in 0..1 + next(3) {
        let r = next(relations);
        src.push_str(&format!("egd: R{r}(x,y) & R{r}(x,z) -> y = z\n"));
    }
    for _ in 0..next(4) {
        let (i, j, f) = (next(relations), next(relations), next(2));
        src.push_str(&format!("exists f{f} . R{i}(x,y) -> R{j}(x, f{f}(y))\n"));
    }
    src
}

/// Checks every pass of the analysis of `src` against the oracle.
fn check(src: &str) {
    let mut syms = SymbolTable::new();
    let (stmts, _) = parse_program(&mut syms, src);
    let a = ChaseAnalysis::analyze(&mut syms, &stmts);

    let (edges, selfish) = oracle_conflicts(&a);
    let got: Vec<Edge> = a
        .interference
        .edges
        .iter()
        .map(|e| (e.a, e.b, e.kinds.iter().collect()))
        .collect();
    assert_eq!(&got, &edges);
    assert_eq!(&a.interference.self_interfering, &selfish);
    let conflicting: BTreeSet<(usize, usize)> = edges.iter().map(|e| (e.0, e.1)).collect();
    for &s in &a.interference.scheduled {
        for &t in &a.interference.scheduled {
            let free = s != t && !conflicting.contains(&(s.min(t), s.max(t)));
            assert_eq!(a.interference.independent(s, t), free);
        }
    }

    let order = oracle_firing_order(&a);
    assert_eq!(&a.firing_order, &order);
    // The stages partition the scheduled statements of the firing order
    // into contiguous runs, with no conflicting pair in a stage and no
    // self-interfering statement beside another.
    assert_eq!(&a.schedule.stages, &oracle_stages(&a, &edges, &order));

    let (occurring, (nodes, skolem_edges)) = oracle_skolem(&a);
    let listed: BTreeSet<FuncId> = a.graphs.skolem.funcs.iter().map(|f| f.func).collect();
    assert_eq!(&listed, &occurring);
    let got: Vec<(FuncId, usize, usize)> = a
        .graphs
        .skolem
        .funcs
        .iter()
        .map(|f| (f.func, f.fan_in, f.fan_out))
        .collect();
    assert_eq!(&got, &nodes);
    assert_eq!(&a.graphs.skolem.edges, &skolem_edges);

    let (reachable, dead, live, nullable, ground, prov) = oracle_dataflow(&a, &stmts);
    let df = &a.dataflow;
    assert_eq!(&df.reachable, &reachable);
    assert_eq!(&df.dead, &dead);
    assert_eq!(&df.live, &live);
    assert_eq!(&df.nullable, &nullable);
    assert_eq!(&df.ground, &ground);
    assert_eq!(&df.provenance, &prov);
    assert_eq!(
        &df.unused_source_columns,
        &oracle_unused_source_columns(&a, &stmts)
    );
}

/// Building a program's statements with only its fact relations — named
/// in the order of their first line among the sorted fact lines — gives
/// the symbols and chase inputs of building the whole program with its
/// fact lines sorted after the statements (the incremental runtime's
/// canonical text).
fn check_fact_relations(src: &str) {
    let lines = src.lines().map(str::trim);
    let lines = lines.filter(|l| !l.is_empty() && !l.starts_with('#'));
    let (mut facts, stmts): (Vec<&str>, Vec<&str>) = lines.partition(|l| l.starts_with("fact:"));
    facts.sort_unstable();
    let stmt_src: String = stmts.iter().map(|l| format!("{l}\n")).collect();
    let fact_src: String = facts.iter().map(|l| format!("{l}\n")).collect();
    let full = ProgramArtifacts::build(&format!("{stmt_src}{fact_src}"));
    let mut rels: Vec<(&str, usize)> = Vec::new();
    for f in &facts {
        let (name, args) = f["fact:".len()..].split_once('(').expect("a fact");
        let name = name.trim();
        let args = args.trim_end_matches(')');
        let arity = args.split(',').filter(|a| !a.trim().is_empty()).count();
        if !rels.iter().any(|&(r, _)| r == name) {
            rels.push((name, arity));
        }
    }
    let part = ProgramArtifacts::build_with_facts(&stmt_src, &rels);
    assert_eq!(part.tgds, full.tgds);
    assert_eq!(part.egds, full.egds);
    for budget in [None, Some(7)] {
        assert_eq!(
            part.analysis.tgd_plan(budget),
            full.analysis.tgd_plan(budget)
        );
    }
    assert_eq!(part.syms.num_rels(), full.syms.num_rels());
    for r in (0..full.syms.num_rels()).map(|i| RelId(i as u32)) {
        assert_eq!(part.syms.rel_name(r), full.syms.rel_name(r));
    }
    assert_eq!(part.syms.num_funcs(), full.syms.num_funcs());
    for f in (0..full.syms.num_funcs()).map(|i| FuncId(i as u32)) {
        assert_eq!(part.syms.func_name(f), full.syms.func_name(f));
    }
    let clashing = |a: &ProgramArtifacts| {
        let clashes = a.analysis.graphs.arity_clashes.iter();
        clashes.map(|c| c.rel).collect::<BTreeSet<RelId>>()
    };
    assert_eq!(clashing(&part), clashing(&full));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs with facts, analyzed with their fact relations
    /// only.
    #[test]
    fn fact_relations_stand_for_their_facts(
        seed in 0u64..1_000_000,
        statements in 1usize..40,
        relations in 2usize..12,
        recursion in 0u32..5,
    ) {
        let text = random_program(&ProgramGenOptions {
            statements,
            relations,
            recursion_prob: f64::from(recursion) * 0.2,
            fact_prob: 0.4,
            seed,
            ..Default::default()
        });
        check_fact_relations(&with_egds_and_shared_funcs(text, relations, seed));
    }

    /// Random programs, from forward-only (richly acyclic) to heavily
    /// recursive (cyclic), with facts, egds and shared Skolem functions.
    #[test]
    fn random_programs_match_the_oracle(
        seed in 0u64..1_000_000,
        statements in 1usize..80,
        relations in 2usize..24,
        recursion in 0u32..5,
    ) {
        let text = random_program(&ProgramGenOptions {
            statements,
            relations,
            recursion_prob: f64::from(recursion) * 0.2,
            seed,
            ..Default::default()
        });
        check(&with_egds_and_shared_funcs(text, relations, seed));
    }

    /// Programs padded with statements dataflow proves dead.
    #[test]
    fn dead_code_programs_match_the_oracle(
        seed in 0u64..1_000_000,
        statements in 1usize..60,
        dead in 0usize..40,
        recursion in 0u32..3,
    ) {
        let relations = (statements / 3).max(2);
        let text = random_program_with_dead_code(
            &ProgramGenOptions {
                statements,
                relations,
                recursion_prob: f64::from(recursion) * 0.25,
                seed,
                ..Default::default()
            },
            dead,
        );
        check(&with_egds_and_shared_funcs(text, relations, seed));
    }
}

/// One large program of each kind: the scale where the indexed passes and
/// the pairwise oracle could first drift apart.
#[test]
fn large_programs_match_the_oracle() {
    let opts = ProgramGenOptions {
        statements: 400,
        relations: 100,
        seed: 42,
        ..Default::default()
    };
    check(&random_program(&opts));
    check(&random_program_with_dead_code(&opts, 300));
}

/// The example programs shipped with the repository.
#[test]
fn example_programs_match_the_oracle() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/programs exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "ndl") {
            let src = std::fs::read_to_string(&path).expect("readable program");
            check(&src);
            check_fact_relations(&src);
            seen += 1;
        }
    }
    assert!(seen > 0);
}
