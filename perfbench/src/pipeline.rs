//! Outside-in replicas of the user paths, with a span around each call
//! into a layer's public functions. Each replica must print exactly what
//! the untraced path prints; the workloads compare the two on every
//! traced operation, so a replica that drifts from the program fails the
//! run instead of timing something else.

use crate::trace::Tracer;
use ndl_analyze::{parse_program, ChaseAnalysis, StmtAst};
use ndl_chase::{
    chase_fixpoint_delta_with, chase_nested, satisfies_egds, verify_dataflow_cert, NullFactory,
    Prepared,
};
use ndl_core::prelude::*;
// The core prelude's `Result<T>` alias is shadowed by std's.
use ndl_hom::{core_of_observed, find_homomorphism_into_observed, HomMap};
use ndl_obs::{ChaseStats, HomStats};
use ndl_reasoning::{
    canonical_instances, k_patterns, legalize, CanonicalPair, ImpliesOptions, ReasoningError,
};
use ndl_serve::eval;
use std::fmt::Write as _;
use std::result::Result;

/// Work counts gathered at the layer boundaries.
#[derive(Default)]
pub struct Counters {
    /// Program bytes parsed by `parse_program`.
    pub parse_bytes: u64,
    /// Statements analyzed.
    pub statements: u64,
    /// Dead statements certified by the plan.
    pub dead: u64,
    /// Chase engine counters, summed.
    pub rounds: u64,
    /// Triggers examined.
    pub examined: u64,
    /// Triggers fired.
    pub fired: u64,
    /// Facts derived.
    pub derived: u64,
    /// Derived facts already present.
    pub dedup_hits: u64,
    /// Nulls interned.
    pub nulls: u64,
    /// Facts touched by statements (delta-frontier work).
    pub touched: u64,
    /// Bytes rendered.
    pub render_bytes: u64,
    /// Facts rendered.
    pub render_facts: u64,
    /// k-patterns enumerated.
    pub patterns: u64,
    /// k-patterns checked.
    pub checked: u64,
    /// Canonical-instance facts built (source plus target).
    pub canonical_facts: u64,
    /// Facts produced by the nested chase.
    pub nested_facts: u64,
    /// Tuple indexes built.
    pub index_builds: u64,
    /// Pattern checks (subinstance test or hom search).
    pub pattern_checks: u64,
    /// Pattern checks settled by the subinstance fast path.
    pub subinstance_hits: u64,
    /// Homomorphism searches run.
    pub hom_searches: u64,
    /// Hom-search counters.
    pub hom: HomStats,
    /// Core-computation counters.
    pub core: HomStats,
}

impl Counters {
    fn add_chase(&mut self, s: &ChaseStats) {
        self.rounds += s.rounds as u64;
        self.examined += s.triggers_examined;
        self.fired += s.triggers_fired;
        self.derived += s.derived;
        self.dedup_hits += s.dedup_hits;
        self.nulls += s.nulls_interned;
        self.touched += s.statements.iter().map(|st| st.touched).sum::<u64>();
    }
}

/// The parse, analysis and extracted inputs of a program, as
/// `ProgramArtifacts::build` makes them, with a span per layer.
pub struct Built {
    /// Symbols.
    pub syms: SymbolTable,
    /// Rendered parse errors.
    pub parse_errors: Vec<(usize, String)>,
    /// The analysis.
    pub analysis: ChaseAnalysis,
    /// Source instance.
    pub source: Instance,
    /// Egds.
    pub egds: Vec<Egd>,
    /// Skolemized tgds.
    pub tgds: Vec<SoTgd>,
}

/// `ProgramArtifacts::build`, layer by layer.
pub fn build(src: &str, t: &mut Tracer, c: &mut Counters) -> Built {
    let mut syms = SymbolTable::new();
    t.begin("core.parse");
    let (stmts, errs) = parse_program(&mut syms, src);
    t.end();
    t.begin("analyze");
    let parse_errors = errs.iter().map(|(i, e)| (*i, e.to_string())).collect();
    let analysis = ChaseAnalysis::analyze(&mut syms, &stmts);
    let mut source = Instance::new();
    let mut egds = Vec::new();
    for s in &stmts {
        match &s.ast {
            Some(StmtAst::Fact(f)) => {
                source.insert(f.clone());
            }
            Some(StmtAst::Egd(e)) => egds.push(e.clone()),
            _ => {}
        }
    }
    let tgds = analysis.so_tgds().into_iter().map(|(_, t)| t).collect();
    t.end();
    c.parse_bytes += src.len() as u64;
    c.statements += stmts.len() as u64;
    Built {
        syms,
        parse_errors,
        analysis,
        source,
        egds,
        tgds,
    }
}

/// Plans and chases built artifacts as `eval::chase_program` does with
/// no flags; returns the instance and its null factory.
fn plan_and_chase(
    b: &Built,
    path: &str,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<(ndl_chase::FixpointChase, NullFactory), String> {
    if let Some((stmt, e)) = b.parse_errors.first() {
        return Err(format!("{path} statement {} does not parse: {e}", stmt + 1));
    }
    t.begin("chase.plan");
    let plan = if satisfies_egds(&b.source, &b.egds) {
        let plan = b.analysis.tgd_plan(None);
        let verified = match &plan.cert {
            Some(cert) => verify_dataflow_cert(&b.source, &b.tgds, cert).map(|()| cert.dead.len()),
            None => Ok(0),
        };
        verified.map(|dead| (plan, dead)).map_err(|e| e.to_string())
    } else {
        Err("the fact statements violate the program's egds".to_string())
    };
    t.end();
    let (plan, dead) = plan?;
    c.dead += dead as u64;
    let mut nulls = NullFactory::new();
    let mut stats = ChaseStats::new();
    t.begin("chase");
    let res = chase_fixpoint_delta_with(&b.source, &b.tgds, &plan, &mut nulls, &mut stats);
    t.end();
    c.add_chase(&stats);
    match res {
        Ok(res) => Ok((res, nulls)),
        Err(e @ ndl_chase::FixpointError::NonTerminating { .. }) => {
            Err(format!("{e}; re-run with --budget N to chase it anyway"))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// `ndl chase <file>` (no flags), layer by layer. Returns its stdout.
pub fn chase_file(
    src: &str,
    path: &str,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<String, String> {
    let b = build(src, t, c);
    let (res, nulls) = plan_and_chase(&b, path, t, c)?;
    t.begin("render");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fixpoint: {} facts ({} derived, {} nulls) in {} rounds",
        res.instance.len(),
        res.derived,
        nulls.len(),
        res.rounds
    );
    for fact in res.instance.facts() {
        let _ = writeln!(out, "  {}", nulls.display_fact_ref(fact, &b.syms));
    }
    t.end();
    c.render_bytes += out.len() as u64;
    c.render_facts += res.instance.len() as u64;
    // Freeing the instance, nulls and artifacts is part of every run.
    t.begin("core.drop");
    drop((res, nulls, b));
    t.end();
    Ok(out)
}

/// Chase plus core of a program text, layer by layer: what an
/// incremental `core` query recomputes. Only the core computation is
/// counted (into `core`); the chase it starts from is the one the same
/// query's `chase` already counted. Returns the core's size.
pub fn chase_core(src: &str, t: &mut Tracer, core: &HomStats) -> Result<usize, String> {
    let mut uncounted = Counters::default();
    let b = build(src, t, &mut uncounted);
    let (res, _) = plan_and_chase(&b, "<session>", t, &mut uncounted)?;
    t.begin("hom.core");
    let out = core_of_observed(&res.instance, core);
    t.end();
    Ok(out.len())
}

/// The outcome of one replicated IMPLIES run.
struct Implied {
    holds: bool,
    v: usize,
    w: usize,
    k: usize,
    checked: usize,
    counterexample: Option<(String, Instance)>,
}

/// `implies_tgd`, step by step.
fn implies_tgd(
    premise: &NestedMapping,
    conclusion: &NestedTgd,
    syms: &mut SymbolTable,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<Implied, ReasoningError> {
    let opts = ImpliesOptions::default();
    t.begin("reasoning.enumerate");
    let info = SkolemInfo::for_nested(conclusion, syms);
    let v = skolemize_with(conclusion, &info).occurring_funcs().len();
    let w = premise
        .tgds
        .iter()
        .map(NestedTgd::num_universals)
        .max()
        .unwrap_or(0);
    let k = (v * w + 1).max(1);
    let patterns = k_patterns(conclusion, k, opts.pattern_budget);
    t.end();
    let patterns = patterns?;
    c.patterns += patterns.len() as u64;
    t.begin("chase.nested");
    let prepared = Prepared::mapping(premise, syms);
    t.end();
    let mut checked = 0usize;
    for pattern in &patterns {
        checked += 1;
        c.checked += 1;
        t.begin("reasoning.canonical");
        let mut nulls = NullFactory::new();
        let pair = canonical_instances(conclusion, &info, pattern, syms, &mut nulls);
        let CanonicalPair { source, target } = legalize(&pair, &premise.source_egds, &mut nulls);
        t.end();
        c.canonical_facts += (source.len() + target.len()) as u64;
        if target.is_empty() {
            continue;
        }
        t.begin("chase.nested");
        let mut chase_nulls = NullFactory::new();
        let chased = chase_nested(&source, &prepared, &mut chase_nulls).target;
        t.end();
        c.nested_facts += chased.len() as u64;
        c.pattern_checks += 1;
        t.begin("hom.search");
        let sub = target.is_subinstance_of(&chased);
        t.end();
        let maps = if sub {
            c.subinstance_hits += 1;
            true
        } else {
            t.begin("core.index");
            let index = TupleIndex::from_instance(&chased);
            t.end();
            c.index_builds += 1;
            c.hom_searches += 1;
            t.begin("hom.search");
            let found = find_homomorphism_into_observed(
                &target,
                &index,
                &HomMap::new(),
                &|_, _| false,
                &c.hom,
            )
            .is_some();
            t.end();
            found
        };
        if !maps {
            return Ok(Implied {
                holds: false,
                v,
                w,
                k,
                checked,
                counterexample: Some((pattern.display(), source)),
            });
        }
    }
    Ok(Implied {
        holds: true,
        v,
        w,
        k,
        checked,
        counterexample: None,
    })
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// `implies_mapping`: every tgd of `other` implied by `premise`.
fn implies_mapping(
    premise: &NestedMapping,
    other: &NestedMapping,
    syms: &mut SymbolTable,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<bool, String> {
    for tgd in &other.tgds {
        if !implies_tgd(premise, tgd, syms, t, c).map_err(err)?.holds {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `ndl implies|equiv|classify <args>`, layer by layer. Returns stdout.
pub fn decide(
    op: &str,
    args: &[String],
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<String, String> {
    let flags = |f: &str| eval::flag_values(args, f);
    let mut syms = SymbolTable::new();
    let mut out = String::new();
    match op {
        "implies" => {
            t.begin("core.parse");
            let premise = eval::parse_mapping(&mut syms, &flags("--premise"), &flags("--egd"));
            t.end();
            let premise = premise?;
            let texts = flags("--conclusion");
            if texts.is_empty() {
                return Err("missing --conclusion".into());
            }
            for text in texts {
                t.begin("core.parse");
                let conclusion = parse_nested_tgd(&mut syms, text);
                t.end();
                let conclusion = conclusion.map_err(err)?;
                let r = implies_tgd(&premise, &conclusion, &mut syms, t, c).map_err(err)?;
                t.begin("render");
                let _ = writeln!(
                    out,
                    "Σ ⊨ σ: {}   (v = {}, w = {}, k = {}, {} patterns checked)",
                    r.holds, r.v, r.w, r.k, r.checked
                );
                if let Some((pattern, source)) = r.counterexample {
                    let _ = writeln!(out, "  counterexample pattern: {pattern}");
                    let _ = writeln!(out, "  I_p = {}", source.display(&syms));
                }
                t.end();
            }
        }
        "equiv" => {
            t.begin("core.parse");
            let egds = flags("--egd");
            let left = eval::parse_mapping(&mut syms, &flags("--left"), &egds);
            let right = eval::parse_mapping(&mut syms, &flags("--right"), &egds);
            t.end();
            let (a, b) = (left?, right?);
            let mut all = a.source_egds.clone();
            for e in &b.source_egds {
                if !all.contains(e) {
                    all.push(e.clone());
                }
            }
            let a = NestedMapping::new(a.tgds.clone(), all.clone()).map_err(err)?;
            let b = NestedMapping::new(b.tgds.clone(), all).map_err(err)?;
            let eq = implies_mapping(&a, &b, &mut syms, t, c)?
                && implies_mapping(&b, &a, &mut syms, t, c)?;
            let _ = writeln!(out, "logically equivalent: {eq}");
        }
        "classify" => {
            // GLAV equivalence is one public call; its internals stay
            // inside the layer's span.
            t.begin("reasoning.classify");
            let r = eval::classify(args);
            t.end();
            out = r?.stdout;
        }
        other => return Err(format!("unknown decision op {other:?}")),
    }
    Ok(out)
}

/// The untraced user path for a decision: what `ndl <op> <args>` runs.
pub fn decide_untraced(op: &str, args: &[String]) -> Result<String, String> {
    match op {
        "implies" => eval::implies(args),
        "equiv" => eval::equiv(args),
        "classify" => eval::classify(args),
        other => Err(format!("unknown decision op {other:?}")),
    }
    .map(|o| o.stdout)
}

/// The untraced user path for a program job: what `ndl chase <file>`
/// runs.
pub fn chase_untraced(src: &str, path: &str, args: &[String]) -> Result<String, String> {
    let art = eval::ProgramArtifacts::build(src);
    let cfg = ndl_chase::ChaseConfig::from_env();
    eval::chase_program(&art, path, args, &cfg, None).map(|o| o.stdout)
}

/// Parses `fixpoint: N facts (D derived, K nulls) in R rounds`.
pub fn fixpoint_header(out: &str) -> Option<(usize, usize, usize, usize)> {
    let line = out.lines().next()?.strip_prefix("fixpoint: ")?;
    let nums: Vec<usize> = line
        .split(|ch: char| !ch.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().ok())
        .collect::<Option<_>>()?;
    match nums[..] {
        [facts, derived, nulls, rounds] => Some((facts, derived, nulls, rounds)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_parses() {
        assert_eq!(
            fixpoint_header("fixpoint: 12 facts (6 derived, 3 nulls) in 2 rounds\n  T(a)\n"),
            Some((12, 6, 3, 2))
        );
        assert_eq!(fixpoint_header("budget exhausted: 3 facts"), None);
    }

    #[test]
    fn replicas_print_what_the_user_paths_print() {
        let src = "S(x) -> exists y T(x,y)\nT(x,y) -> exists z U(y,z)\nfact: S(a)\nfact: S(b)\n";
        let mut t = Tracer::new();
        let mut c = Counters::default();
        assert_eq!(
            chase_file(src, "p.ndl", &mut t, &mut c).unwrap(),
            chase_untraced(src, "p.ndl", &[]).unwrap()
        );
        assert_eq!(c.derived, 4);
        for d in crate::inputs::paper_decisions() {
            let traced = decide(d.op, &d.args, &mut t, &mut c).unwrap();
            assert_eq!(traced, decide_untraced(d.op, &d.args).unwrap(), "{d:?}");
            d.verdict.check(&traced).unwrap();
        }
        assert!(c.checked > 0 && c.patterns >= c.checked);
    }
}
