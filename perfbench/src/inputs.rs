//! Seeded input generation. The program under test only ever sees the
//! texts built here; every size is stratified over its range so that
//! seeds change the content of a pool more than its cost.

use ndl_chase::NullFactory;
use ndl_core::prelude::*;
// The core prelude's `Result<T>` alias is shadowed by std's.
use ndl_gen::{clio_scenario, random_nested_tgd, random_program_with_dead_code};
use ndl_gen::{ProgramGenOptions, TgdGenOptions};
use ndl_reasoning::{count_k_patterns, DEFAULT_PATTERN_BUDGET};
use std::fmt::Write as _;
use std::result::Result;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i + 1);
            v.swap(i, j);
        }
    }
}

/// The midpoint of the `i`-th of `n` equal strata of `lo..=hi`. Sizes
/// sit at fixed points so that seeds change what a job computes, not how
/// much.
fn stratum(i: usize, n: usize, lo: usize, hi: usize) -> usize {
    let width = (hi - lo) as f64 / n as f64;
    lo + (width * (i as f64 + 0.5)) as usize
}

// ---------- exchange jobs ----------

/// Job families of the `exchange` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// The Clio HR nested mapping.
    ClioNested,
    /// Its flat GLAV variant.
    ClioFlat,
    /// Transitive closure of reporting chains.
    Chain,
    /// Existential pipelines (Skolem terms nest with depth).
    Pipeline,
    /// `ndl-gen` programs padded with dead statements.
    DeadCode,
}

impl Family {
    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::ClioNested => "clio-nested",
            Family::ClioFlat => "clio-flat",
            Family::Chain => "chain",
            Family::Pipeline => "pipeline",
            Family::DeadCode => "dead-code",
        }
    }
}

/// The fact counts a family predicts for its chase output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prediction {
    /// `fixpoint: {facts} facts ({derived} derived, {nulls} nulls)`.
    Counts {
        /// Total facts, source included.
        facts: usize,
        /// Derived facts.
        derived: usize,
        /// Nulls.
        nulls: usize,
    },
    /// Same output as this program (the job with its dead statements
    /// removed): dead statements contribute nothing.
    SameAs(String),
}

/// One generated program-file job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Its family.
    pub family: Family,
    /// The program text `ndl chase <file>` reads.
    pub src: String,
    /// What the output must contain.
    pub predicted: Prediction,
}

fn render_facts(out: &mut String, inst: &Instance, syms: &SymbolTable) {
    let nulls = NullFactory::new();
    for f in inst.facts() {
        let _ = writeln!(out, "fact: {}", nulls.display_fact_ref(f, syms));
    }
}

/// A Clio HR job over `depts` departments.
pub fn clio_job(depts: usize, members: usize, seed: u64, flat: bool) -> Job {
    let mut syms = SymbolTable::new();
    let sc = clio_scenario(&mut syms, depts, members, seed);
    let mapping = if flat { &sc.flat } else { &sc.nested };
    let mut src = String::new();
    for t in &mapping.tgds {
        let _ = writeln!(src, "{}", t.display(&syms));
    }
    render_facts(&mut src, &sc.source, &syms);
    let d = sc.source.rel_len(syms.rel("Dept"));
    let m = sc.source.rel_len(syms.rel("Emp")) + sc.source.rel_len(syms.rel("Proj"));
    let s = d + m;
    let predicted = if flat {
        // One group per department, plus a fresh group per member.
        Prediction::Counts {
            facts: s + d + 2 * m,
            derived: d + 2 * m,
            nulls: d + m,
        }
    } else {
        // One group per department, every member filed under it.
        Prediction::Counts {
            facts: 2 * s,
            derived: s,
            nulls: d,
        }
    };
    Job {
        family: if flat {
            Family::ClioFlat
        } else {
            Family::ClioNested
        },
        src,
        predicted,
    }
}

/// `chains` reporting chains of `len` edges each, closed transitively.
pub fn chain_job(chains: usize, len: usize, seed: u64) -> Job {
    let mut src =
        String::from("Reports(x,y) -> Chain(x,y)\nChain(x,y) & Reports(y,z) -> Chain(x,z)\n");
    for c in 0..chains {
        for i in 0..len {
            let _ = writeln!(src, "fact: Reports(e{seed}_{c}_{i}, e{seed}_{c}_{})", i + 1);
        }
    }
    let derived = chains * len * (len + 1) / 2;
    Job {
        family: Family::Chain,
        src,
        predicted: Prediction::Counts {
            facts: chains * len + derived,
            derived,
            nulls: 0,
        },
    }
}

/// An existential pipeline of `depth` stages over `width` source pairs.
pub fn pipeline_job(depth: usize, width: usize, seed: u64) -> Job {
    let mut src = String::new();
    for d in 0..depth {
        let _ = writeln!(src, "P{d}(x,y) -> exists z P{}(y,z)", d + 1);
    }
    for i in 0..width {
        let _ = writeln!(src, "fact: P0(a{seed}_{i}, b{i})");
    }
    Job {
        family: Family::Pipeline,
        src,
        predicted: Prediction::Counts {
            facts: width * (depth + 1),
            derived: width * depth,
            nulls: width * depth,
        },
    }
}

/// An `ndl-gen` program with `dead` dead statements whose chase the
/// analyzer guarantees to terminate (candidates are drawn from
/// successive seeds until one is richly acyclic). The relation pool
/// grows with `dead` so that the generator's random copy rules rarely
/// close a cycle through an existential.
pub fn dead_code_job(dead: usize, seed: u64) -> Job {
    for attempt in 0.. {
        let opts = ProgramGenOptions {
            statements: 40,
            relations: 2 * dead,
            recursion_prob: 0.0,
            comment_prob: 0.1,
            fact_prob: 0.3,
            seed: seed.wrapping_add(attempt),
        };
        let src = random_program_with_dead_code(&opts, dead);
        let art = ndl_analyze::ProgramArtifacts::build(&src);
        if art.parse_errors.is_empty()
            && art.analysis.termination.class == ndl_analyze::TerminationClass::RichlyAcyclic
        {
            let live: String = src
                .lines()
                .filter(|l| !l.starts_with('Z'))
                .map(|l| format!("{l}\n"))
                .collect();
            return Job {
                family: Family::DeadCode,
                src,
                predicted: Prediction::SameAs(live),
            };
        }
    }
    unreachable!("the attempt loop only exits by returning")
}

/// Sizes of the `exchange` pool, stratified per family.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeSizes {
    /// Jobs per family.
    pub per_family: usize,
    /// Clio departments range.
    pub depts: (usize, usize),
    /// Chain length range (edges per chain; one closure round per edge).
    pub chain_len: (usize, usize),
    /// Chains per chain job.
    pub chains: usize,
    /// Pipeline depth range.
    pub depth: (usize, usize),
    /// Source pairs per pipeline job.
    pub width: usize,
    /// Dead statements range.
    pub dead: (usize, usize),
}

/// The `exchange` job pool for `seed`: one job of each family per
/// stratum, in the same order for every seed, so that the seed changes
/// what the jobs hold and not the order the loop meets their sizes in.
pub fn exchange_pool(seed: u64, z: &ExchangeSizes) -> Vec<Job> {
    let mut rng = Rng::new(seed, 1);
    let n = z.per_family;
    let mut jobs = Vec::new();
    for i in 0..n {
        let d = stratum(i, n, z.depts.0, z.depts.1);
        let s = rng.next_u64();
        jobs.push(clio_job(d, 2, s, i % 2 == 1));
        let len = stratum(i, n, z.chain_len.0, z.chain_len.1);
        jobs.push(chain_job(z.chains, len, rng.next_u64() % 1000));
        let depth = stratum(i, n, z.depth.0, z.depth.1);
        jobs.push(pipeline_job(depth, z.width, rng.next_u64() % 1000));
        let dead = stratum(i, n, z.dead.0, z.dead.1);
        jobs.push(dead_code_job(dead, rng.next_u64()));
    }
    jobs
}

// ---------- reasoning decisions ----------

/// The verdict a decision must reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `implies`: `Σ ⊨ σ` holds or not; `Some(n)` also fixes the number
    /// of patterns checked.
    Implies(bool, Option<usize>),
    /// `equiv`: logically equivalent or not.
    Equiv(bool),
    /// `classify`: GLAV-equivalent or not.
    Glav(bool),
}

impl Verdict {
    /// Does the decision hold (every pattern checked)?
    pub fn holds(self) -> bool {
        match self {
            Verdict::Implies(b, _) | Verdict::Equiv(b) | Verdict::Glav(b) => b,
        }
    }

    /// Checks an `eval` output against the verdict.
    pub fn check(self, stdout: &str) -> Result<(), String> {
        let first = stdout.lines().next().unwrap_or("");
        let ok = match self {
            Verdict::Implies(b, n) => {
                first.starts_with(&format!("Σ ⊨ σ: {b} "))
                    && n.is_none_or(|n| first.ends_with(&format!(", {n} patterns checked)")))
            }
            Verdict::Equiv(b) => first == format!("logically equivalent: {b}"),
            Verdict::Glav(b) => stdout.lines().any(|l| {
                l == format!(
                    "GLAV-equivalent: {}",
                    if b { "yes; verified witness:" } else { "no" }
                )
            }),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("expected {self:?}, got {first:?}"))
        }
    }
}

/// One reasoning decision: an `ndl implies|equiv|classify` invocation.
#[derive(Clone, Debug)]
pub struct Decision {
    /// `implies`, `equiv` or `classify`.
    pub op: &'static str,
    /// The CLI-style argument tail.
    pub args: Vec<String>,
    /// The known answer.
    pub verdict: Verdict,
    /// Where the answer comes from.
    pub source: &'static str,
}

fn implies(premise: &[&str], conclusion: &str, verdict: Verdict, source: &'static str) -> Decision {
    let mut args = Vec::new();
    for p in premise {
        args.push("--premise".to_string());
        args.push(p.to_string());
    }
    args.push("--conclusion".to_string());
    args.push(conclusion.to_string());
    Decision {
        op: "implies",
        args,
        verdict,
        source,
    }
}

fn equiv(left: &[&str], right: &[&str], eq: bool, source: &'static str) -> Decision {
    let mut args = Vec::new();
    for l in left {
        args.push("--left".to_string());
        args.push(l.to_string());
    }
    for r in right {
        args.push("--right".to_string());
        args.push(r.to_string());
    }
    Decision {
        op: "equiv",
        args,
        verdict: Verdict::Equiv(eq),
        source,
    }
}

fn classify(tgds: &[&str], glav: bool, source: &'static str) -> Decision {
    let mut args = Vec::new();
    for t in tgds {
        args.push("--tgd".to_string());
        args.push(t.to_string());
    }
    Decision {
        op: "classify",
        args,
        verdict: Verdict::Glav(glav),
        source,
    }
}

const TAU: &str = "forall x1 (S1(x1) -> exists y (forall x2 S2(x2) -> R(x2,y)))";
const INTRO: &str =
    "forall x1,x2 (S(x1,x2) -> exists y (R(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))";
const INTRO_GLAV: &str = "S(x1,x2) & S(x1,x3) -> exists y (R(y,x2) & R(y,x3))";
const VACUOUS: &str = "forall x1 (P(x1) -> exists y (forall x2 (Q(x2) -> T(x1,x2))))";
const FIG7_NESTED: &str = "forall z (Q(z) -> exists u (forall x,y (S(x,y) -> exists v R(v,u,x))))";
const FIG7_RENAMED: &str =
    "forall z2 (Q(z2) -> exists u2 (forall x2,y2 (S(x2,y2) -> exists v2 R(v2,u2,x2))))";
const CLIO_NESTED: &str = "forall d (Dept(d) -> exists g (DeptGrp(g,d) \
    & forall e (Emp(d,e) -> EmpOf(g,e)) & forall p (Proj(d,p) -> ProjOf(g,p))))";
const CLIO_FLAT: [&str; 3] = [
    "Dept(d) -> exists g DeptGrp(g,d)",
    "Dept(d) & Emp(d,e) -> exists g (DeptGrp(g,d) & EmpOf(g,e))",
    "Dept(d) & Proj(d,p) -> exists g (DeptGrp(g,d) & ProjOf(g,p))",
];

/// The paper's worked examples with their stated answers.
pub fn paper_decisions() -> Vec<Decision> {
    vec![
        // Example 3.10: τ' ⊭ τ and τ'' ⊨ τ over four patterns.
        implies(
            &["S2(x2) -> exists z R(x2,z)"],
            TAU,
            Verdict::Implies(false, None),
            "Ex. 3.10 τ′",
        ),
        implies(
            &["S1(x1) & S2(x2) -> R(x2,x1)"],
            TAU,
            Verdict::Implies(true, Some(4)),
            "Ex. 3.10 τ″",
        ),
        // Section 1: the nested tgd implies its GLAV weakening, not back.
        implies(&[INTRO], INTRO_GLAV, Verdict::Implies(true, None), "Sec. 1"),
        implies(
            &[INTRO_GLAV],
            INTRO,
            Verdict::Implies(false, None),
            "Sec. 1",
        ),
        // Theorem 4.2 on the flagship examples.
        classify(&[INTRO], false, "Thm. 4.2"),
        classify(&[VACUOUS], true, "Thm. 4.2"),
        // Figure 7 / Example 4.15: the displayed nested tgd.
        implies(
            &[FIG7_NESTED],
            FIG7_NESTED,
            Verdict::Implies(true, None),
            "Fig. 7",
        ),
        equiv(&[FIG7_NESTED], &[FIG7_RENAMED], true, "Fig. 7"),
        // Clio: the nested mapping implies its flat approximation, which
        // loses the per-department correlation.
        implies(
            &[CLIO_NESTED],
            CLIO_FLAT[1],
            Verdict::Implies(true, None),
            "Clio",
        ),
        implies(
            &CLIO_FLAT,
            CLIO_NESTED,
            Verdict::Implies(false, None),
            "Clio",
        ),
        equiv(&[CLIO_NESTED], &CLIO_FLAT, false, "Clio"),
        classify(&[CLIO_NESTED], false, "Clio"),
    ]
}

/// `tgd` without part `drop` and its descendants.
fn drop_subtree(tgd: &NestedTgd, drop: usize) -> NestedTgd {
    let mut gone = vec![drop];
    gone.extend(tgd.descendants(drop));
    let keep: Vec<usize> = (0..tgd.num_parts()).filter(|i| !gone.contains(i)).collect();
    let new_id = |old: usize| keep.iter().position(|&k| k == old);
    let parts = keep
        .iter()
        .map(|&i| {
            let mut p = tgd.part(i).clone();
            p.parent = p.parent.and_then(new_id);
            p.children = p.children.iter().filter_map(|&c| new_id(c)).collect();
            p
        })
        .collect();
    NestedTgd::from_parts(parts)
}

/// Renames every variable of a generated tgd text (`v…`/`w…` tokens).
fn rename_vars(text: &str, tag: &str) -> String {
    text.replace(&format!("v{tag}_"), &format!("rv{tag}_"))
        .replace(&format!("w{tag}_"), &format!("rw{tag}_"))
}

/// `count_k_patterns` of `conclusion` under the `k` IMPLIES uses with
/// `premise` (`k = v·w + 1`).
pub fn pattern_count(premise: &NestedTgd, conclusion: &NestedTgd, syms: &mut SymbolTable) -> usize {
    let info = SkolemInfo::for_nested(conclusion, syms);
    let v = skolemize_with(conclusion, &info).occurring_funcs().len();
    let k = (v * premise.num_universals() + 1).max(1);
    count_k_patterns(conclusion, k, DEFAULT_PATTERN_BUDGET).unwrap_or(usize::MAX)
}

/// A generated σ with its subtree-less variant and their pattern counts.
struct Candidate {
    syms: SymbolTable,
    tag: String,
    sigma: NestedTgd,
    minus: NestedTgd,
    /// `count_k_patterns` of σ ⊨ σ, σ ⊨ σ⁻ and σ⁻ ⊨ σ.
    counts: [usize; 3],
}

/// What fixes a decision's cost: the shape of σ (parts, existentials,
/// binary body and head atoms, heads on an ancestor's existential), the
/// parts of σ⁻ and the pattern counts.
type Class = [usize; 9];

/// Shape of a tgd: parts, existentials, binary body atoms, binary heads,
/// and heads whose existential an ancestor part introduced.
fn shape(t: &NestedTgd) -> [usize; 5] {
    let binary = |atoms: &[Atom]| atoms.iter().filter(|a| a.args.len() > 1).count();
    let inherited = t
        .parts()
        .iter()
        .flat_map(|p| p.head.iter().map(move |a| (p, a)))
        .filter(|(p, a)| a.args.len() > 1 && !p.existentials.contains(&a.args[0]))
        .count();
    [
        t.num_parts(),
        t.num_existentials(),
        t.parts().iter().map(|p| binary(&p.body)).sum(),
        t.parts().iter().map(|p| binary(&p.head)).sum(),
        inherited,
    ]
}

impl Candidate {
    fn class(&self) -> Class {
        let [a, b, c, d, e] = shape(&self.sigma);
        let [f, g, h] = self.counts;
        [a, b, c, d, e, self.minus.num_parts(), f, g, h]
    }
}

/// Draws random depth-2 σ from `rng` until one has a child subtree to
/// drop and all three pattern counts within `cap`.
fn candidate(rng: &mut Rng, tag: String, cap: usize) -> Candidate {
    loop {
        let mut syms = SymbolTable::new();
        let opts = TgdGenOptions {
            max_depth: 2,
            max_children: 3,
            existential_prob: 0.7,
            seed: rng.next_u64(),
        };
        let sigma = random_nested_tgd(&mut syms, &tag, &opts);
        let kids = sigma.children(sigma.root()).to_vec();
        if kids.is_empty() {
            continue;
        }
        let minus = drop_subtree(&sigma, kids[rng.range(0, kids.len())]);
        let counts = [
            pattern_count(&sigma, &sigma, &mut syms),
            pattern_count(&sigma, &minus, &mut syms),
            pattern_count(&minus, &sigma, &mut syms),
        ];
        if counts.iter().all(|&c| c <= cap) {
            return Candidate {
                syms,
                tag,
                sigma,
                minus,
                counts,
            };
        }
    }
}

/// The seed whose pool fixes the cost classes of every pool.
const TEMPLATE_SEED: u64 = 0;

/// The cost classes of an `n`-tgd pool: drawn from [`TEMPLATE_SEED`],
/// stratified by the pattern count of σ ⊨ σ over `(0, cap^¼]`,
/// `(cap^¼, cap^½]`, `(cap^½, cap^¾]` and `(cap^¾, cap]` in the
/// proportions 1:1:2:2. Decision costs cluster by stratum; these
/// proportions put the pool's 90th percentile inside the top cluster and
/// the median equivalence decision in the middle of the third, instead
/// of in a gap between two clusters, where any shift in speed would move
/// them from one cluster to the other.
fn template(n: usize, cap: usize) -> Vec<Class> {
    const WEIGHTS: [usize; 4] = [1, 1, 2, 2];
    let total: usize = WEIGHTS.iter().sum();
    let quota = |b: usize| (n * WEIGHTS[b]).div_ceil(total);
    let mut rng = Rng::new(TEMPLATE_SEED, 2);
    let mut filled = [0usize; 4];
    let mut out = Vec::new();
    let mut attempts = 0;
    while out.len() < n {
        attempts += 1;
        let c = candidate(&mut rng, "t".to_string(), cap);
        let b = (1..4)
            .filter(|&i| c.counts[0] as f64 > (cap as f64).powf(i as f64 / 4.0))
            .count();
        // A stratum the generator rarely reaches stops blocking the pool.
        if filled[b] < quota(b) || attempts > 100 * n {
            filled[b] += 1;
            out.push(c.class());
        }
    }
    out
}

/// Known-by-construction decisions over `n` random depth-2 nested tgds
/// σ whose pattern counts stay within `cap`: σ ⊨ σ; σ ⊨ σ⁻ (a child
/// subtree dropped); σ⁻ ⊭ σ (the subtree writes relations nothing else
/// writes); σ ≡ σ with its variables renamed. Plus `n / 2` depth-1 tgds,
/// GLAV by definition.
///
/// A decision's cost follows its σ's shape and pattern counts, so every
/// seed's pool fills the same cost classes (see [`template`]) with its
/// own tgds; without that the seed would decide how many expensive
/// decisions a pool holds.
pub fn random_decisions(seed: u64, n: usize, cap: usize) -> Vec<Decision> {
    let mut rng = Rng::new(seed, 2);
    let mut open = template(n, cap);
    let mut out = Vec::new();
    let mut attempts = 0;
    while !open.is_empty() {
        attempts += 1;
        let c = candidate(&mut rng, format!("q{}", out.len() / 4), cap);
        match open.iter().position(|k| *k == c.class()) {
            Some(i) => {
                open.swap_remove(i);
            }
            // A class this seed rarely draws is filled by any candidate.
            None if attempts > 500 * n => {
                open.pop();
            }
            None => continue,
        }
        let s = c.sigma.display(&c.syms).to_string();
        let m = c.minus.display(&c.syms).to_string();
        let r = rename_vars(&s, &c.tag);
        out.push(implies(&[&s], &s, Verdict::Implies(true, None), "σ ⊨ σ"));
        out.push(implies(&[&s], &m, Verdict::Implies(true, None), "σ ⊨ σ⁻"));
        out.push(implies(&[&m], &s, Verdict::Implies(false, None), "σ⁻ ⊭ σ"));
        out.push(equiv(&[&s], &[&r], true, "σ ≡ ρ(σ)"));
    }
    // Depth-1 tgds: the same shapes as seed 0's, for the same reason.
    let st = |rng: &mut Rng, i: usize| {
        let mut syms = SymbolTable::new();
        let opts = TgdGenOptions {
            max_depth: 1,
            max_children: 0,
            existential_prob: 0.7,
            seed: rng.next_u64(),
        };
        let t = random_nested_tgd(&mut syms, &format!("s{i}"), &opts);
        (shape(&t), t.display(&syms).to_string())
    };
    let mut trng = Rng::new(TEMPLATE_SEED, 7);
    let mut open: Vec<[usize; 5]> = (0..n / 2).map(|i| st(&mut trng, i).0).collect();
    let mut i = 0;
    while !open.is_empty() {
        let (shape, text) = st(&mut rng, i);
        i += 1;
        match open.iter().position(|k| *k == shape) {
            Some(j) => {
                open.swap_remove(j);
            }
            None if i > 500 * n => {
                open.pop();
            }
            None => continue,
        }
        out.push(classify(&[&text], true, "s-t tgd"));
    }
    out
}

/// The `reason` decision pool for `seed`, in a seeded order.
pub fn reason_pool(seed: u64, random: usize, cap: usize) -> Vec<Decision> {
    let mut pool = paper_decisions();
    pool.extend(random_decisions(seed, random, cap));
    Rng::new(seed, 3).shuffle(&mut pool);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_pure_functions_of_the_seed() {
        let z = ExchangeSizes {
            per_family: 2,
            depts: (20, 40),
            chain_len: (5, 10),
            chains: 1,
            depth: (2, 4),
            width: 5,
            dead: (3, 6),
        };
        let a: Vec<String> = exchange_pool(5, &z).into_iter().map(|j| j.src).collect();
        let b: Vec<String> = exchange_pool(5, &z).into_iter().map(|j| j.src).collect();
        let c: Vec<String> = exchange_pool(6, &z).into_iter().map(|j| j.src).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let r1: Vec<Vec<String>> = reason_pool(5, 3, 64).into_iter().map(|d| d.args).collect();
        let r2: Vec<Vec<String>> = reason_pool(5, 3, 64).into_iter().map(|d| d.args).collect();
        assert_eq!(r1, r2);
    }

    #[test]
    fn stratified_sizes_cover_the_range() {
        let xs: Vec<usize> = (0..4).map(|i| stratum(i, 4, 100, 200)).collect();
        assert_eq!(xs, vec![112, 137, 162, 187]);
    }

    #[test]
    fn verdict_checks_read_the_eval_output() {
        let out = "Σ ⊨ σ: true   (v = 1, w = 2, k = 3, 4 patterns checked)\n";
        assert!(Verdict::Implies(true, Some(4)).check(out).is_ok());
        assert!(Verdict::Implies(true, Some(5)).check(out).is_err());
        assert!(Verdict::Implies(false, None).check(out).is_err());
        assert!(Verdict::Equiv(false)
            .check("logically equivalent: false\n")
            .is_ok());
        let glav = "f-block size bounded: true (clone bound k = 1)\nGLAV-equivalent: yes; verified witness:\n  T(x)\n";
        assert!(Verdict::Glav(true).check(glav).is_ok());
        assert!(Verdict::Glav(false).check(glav).is_err());
    }
}
