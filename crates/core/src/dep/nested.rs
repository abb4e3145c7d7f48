//! Nested tgds (Section 2 of the paper).
//!
//! A nested tgd is generated by
//! `χ ::= α | ∀x⃗ (β1 ∧ … ∧ βk → ∃y⃗ (χ1 ∧ … ∧ χl))`
//! and consists of *parts* σ1, …, σn arranged in a tree: each part is an
//! implicational formula with its own universal variables, source body
//! atoms, existential variables and target head atoms, plus nested child
//! parts. Navigation (`parent`, `anc`, `child`, `desc`) mirrors the paper.

use crate::atom::Atom;
use crate::dep::st_tgd::StTgd;
use crate::error::{push_unique, CoreError, Result};
use crate::schema::{Schema, Side};
use crate::symbol::{SymbolTable, VarId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Index of a part within a [`NestedTgd`]. The root part has id `0`.
pub type PartId = usize;

/// One part σᵢ of a nested tgd:
/// `∀x⃗ (φ(x⃗, x⃗₀) → ∃y⃗ (ψ(x⃗, x⃗₀, y⃗, y⃗₀) ∧ children…))`
/// where x⃗₀/y⃗₀ are variables bound in ancestor parts.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Part {
    /// The parent part, `None` for the root (top-level) part.
    pub parent: Option<PartId>,
    /// Universal variables x⃗ introduced by this part.
    pub universals: Vec<VarId>,
    /// Source body atoms φ; may use this part's and ancestors' universals.
    pub body: Vec<Atom>,
    /// Existential variables y⃗ introduced by this part.
    pub existentials: Vec<VarId>,
    /// Target head atoms ψ (the non-recursive conjuncts of the conclusion);
    /// may use visible universals and existentials. May be empty (⊤).
    pub head: Vec<Atom>,
    /// Child parts nested in the conclusion.
    pub children: Vec<PartId>,
}

/// A nested tgd: an arena of [`Part`]s whose entry `0` is the top-level part.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NestedTgd {
    parts: Vec<Part>,
}

impl NestedTgd {
    /// Creates a nested tgd from a part arena. Part `0` must be the root and
    /// `parent`/`children` links must be mutually consistent; this is
    /// checked by [`NestedTgd::validate`].
    pub fn from_parts(parts: Vec<Part>) -> Self {
        NestedTgd { parts }
    }

    /// The part arena.
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// A single part by id.
    pub fn part(&self, id: PartId) -> &Part {
        &self.parts[id]
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// The root (top-level) part id.
    pub fn root(&self) -> PartId {
        0
    }

    /// `parent(σᵢ)` as in the paper.
    pub fn parent(&self, id: PartId) -> Option<PartId> {
        self.parts[id].parent
    }

    /// `anc(σᵢ)`: ancestors via the transitive closure of `parent`,
    /// ordered root-first.
    pub fn ancestors(&self, id: PartId) -> Vec<PartId> {
        let mut chain = Vec::new();
        let mut cur = self.parts[id].parent;
        while let Some(p) = cur {
            chain.push(p);
            cur = self.parts[p].parent;
        }
        chain.reverse();
        chain
    }

    /// `child(σᵢ)`: the parts nested directly under σᵢ.
    pub fn children(&self, id: PartId) -> &[PartId] {
        &self.parts[id].children
    }

    /// `desc(σᵢ)`: descendants via the transitive closure of `child`,
    /// in pre-order.
    pub fn descendants(&self, id: PartId) -> Vec<PartId> {
        let mut out = Vec::new();
        let mut stack: Vec<PartId> = self.parts[id].children.iter().rev().copied().collect();
        while let Some(p) = stack.pop() {
            out.push(p);
            stack.extend(self.parts[p].children.iter().rev());
        }
        out
    }

    /// The universal variables visible in part `id`: ancestors' (x⃗₀,
    /// root-first) followed by the part's own (x⃗).
    pub fn visible_universals(&self, id: PartId) -> Vec<VarId> {
        let mut out = Vec::new();
        for p in self.ancestors(id) {
            out.extend(self.parts[p].universals.iter().copied());
        }
        out.extend(self.parts[id].universals.iter().copied());
        out
    }

    /// The existential variables visible in part `id` (ancestors' then own).
    pub fn visible_existentials(&self, id: PartId) -> Vec<VarId> {
        let mut out = Vec::new();
        for p in self.ancestors(id) {
            out.extend(self.parts[p].existentials.iter().copied());
        }
        out.extend(self.parts[id].existentials.iter().copied());
        out
    }

    /// Nesting depth: 1 for a plain s-t tgd (a single part).
    pub fn depth(&self) -> usize {
        fn rec(t: &NestedTgd, id: PartId) -> usize {
            1 + t.parts[id]
                .children
                .iter()
                .map(|&c| rec(t, c))
                .max()
                .unwrap_or(0)
        }
        rec(self, 0)
    }

    /// Total number of (distinct) universally quantified variables — the
    /// quantity `w` used by the IMPLIES procedure (line 3).
    pub fn num_universals(&self) -> usize {
        self.parts.iter().map(|p| p.universals.len()).sum()
    }

    /// Total number of existential variables across all parts.
    pub fn num_existentials(&self) -> usize {
        self.parts.iter().map(|p| p.existentials.len()).sum()
    }

    /// Is this nested tgd syntactically an s-t tgd (a single part)?
    pub fn is_st_tgd(&self) -> bool {
        self.parts.len() == 1
    }

    /// Converts a single-part nested tgd back to an s-t tgd.
    pub fn to_st_tgd(&self) -> Option<StTgd> {
        if !self.is_st_tgd() {
            return None;
        }
        let p = &self.parts[0];
        Some(StTgd::new(
            p.body.clone(),
            p.existentials.clone(),
            p.head.clone(),
        ))
    }

    /// Validates structural well-formedness and declares relations in
    /// `schema`:
    /// - part 0 is the root; `parent`/`children` links are consistent and
    ///   acyclic (a tree);
    /// - every part has a nonempty body (the grammar requires at least the
    ///   safety of x⃗; parts with no own universals may still have body atoms
    ///   over ancestor variables — an empty body is only allowed when the
    ///   part has no own universals and is the root of nothing; we follow
    ///   the grammar strictly and require k ≥ 1 body atoms);
    /// - safety: each own universal occurs in some body atom of its part;
    /// - body atoms use only visible universal variables (the set `X`);
    /// - head atoms use only visible universals/existentials;
    /// - variables are renamed apart (no re-quantification along a path);
    /// - body relations are source-side, head relations target-side.
    pub fn validate(&self, schema: &mut Schema) -> Result<()> {
        let mut errs = Vec::new();
        self.check(schema, &mut errs);
        match errs.into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Collects every validation problem into `out` instead of stopping at
    /// the first (the diagnostics framework entry point). Structural
    /// problems of the part tree end the check early — the per-part scoping
    /// rules are meaningless on a broken arena.
    pub fn check(&self, schema: &mut Schema, out: &mut Vec<CoreError>) {
        if self.parts.is_empty() {
            push_unique(out, CoreError::Invalid("nested tgd with no parts".into()));
            return;
        }
        let before = out.len();
        if self.parts[0].parent.is_some() {
            push_unique(out, CoreError::Invalid("part 0 must be the root".into()));
        }
        // Tree-structure consistency.
        for (i, p) in self.parts.iter().enumerate() {
            for &c in &p.children {
                if c >= self.parts.len() || self.parts[c].parent != Some(i) {
                    push_unique(
                        out,
                        CoreError::Invalid(format!(
                            "inconsistent parent/child link between parts {i} and {c}"
                        )),
                    );
                }
            }
            if let Some(par) = p.parent {
                if par >= self.parts.len() || !self.parts[par].children.contains(&i) {
                    push_unique(
                        out,
                        CoreError::Invalid(format!(
                            "part {i} not registered as child of its parent {par}"
                        )),
                    );
                }
            } else if i != 0 {
                push_unique(
                    out,
                    CoreError::Invalid(format!("non-root part {i} has no parent")),
                );
            }
        }
        if out.len() > before {
            return;
        }
        // Reachability (tree, not forest). A lone part passed the link
        // checks only with no parent and no children: nothing to search.
        if self.parts.len() > 1 {
            let mut seen = vec![false; self.parts.len()];
            let mut stack = vec![0usize];
            while let Some(p) = stack.pop() {
                if seen[p] {
                    push_unique(out, CoreError::Invalid("cycle in part tree".into()));
                    return;
                }
                seen[p] = true;
                stack.extend(self.parts[p].children.iter().copied());
            }
            if !seen.iter().all(|&b| b) {
                push_unique(out, CoreError::Invalid("unreachable part".into()));
                return;
            }
        }
        for (i, p) in self.parts.iter().enumerate() {
            if p.body.is_empty() {
                push_unique(
                    out,
                    CoreError::Invalid(format!("part {i} has an empty body")),
                );
            }
            for a in &p.body {
                if let Err(e) = schema.declare(a.rel, a.args.len(), Side::Source) {
                    push_unique(out, e);
                }
            }
            for a in &p.head {
                if let Err(e) = schema.declare(a.rel, a.args.len(), Side::Target) {
                    push_unique(out, e);
                }
            }
            // Scoping, over the variables visible along the part's scope;
            // the sorted lists that fix the order of the reports are built
            // only when there is something to report.
            let visible = |pick: fn(&Part) -> &[VarId]| {
                self.scope(i)
                    .flat_map(move |q| pick(&self.parts[q]).iter().copied())
            };
            let (universals, existentials) = (
                VarSet::new(visible(|q| &q.universals)),
                VarSet::new(visible(|q| &q.existentials)),
            );
            if universals.repeats() {
                let v = find_dup(&self.visible_universals(i));
                push_unique(out, CoreError::ShadowedVariable { var: v });
            }
            if existentials.repeats() {
                let v = find_dup(&self.visible_existentials(i));
                push_unique(out, CoreError::ShadowedVariable { var: v });
            }
            if visible(|q| &q.universals).any(|v| existentials.contains(v)) {
                let visible_u: BTreeSet<_> = self.visible_universals(i).into_iter().collect();
                let visible_e: BTreeSet<_> = self.visible_existentials(i).into_iter().collect();
                for &v in visible_u.intersection(&visible_e) {
                    push_unique(out, CoreError::ShadowedVariable { var: v });
                }
            }
            // Safety of own universals.
            let body_vars = || p.body.iter().flat_map(|a| a.args.iter().copied());
            let body = VarSet::new(body_vars());
            for &v in &p.universals {
                if !body.contains(v) {
                    push_unique(out, CoreError::UnsafeVariable { var: v });
                }
            }
            // Body uses only visible universals (reported in variable
            // order).
            if !body_vars().all(|v| universals.contains(v)) {
                let unbound: BTreeSet<_> =
                    body_vars().filter(|&v| !universals.contains(v)).collect();
                for v in unbound {
                    push_unique(out, CoreError::UnboundVariable { var: v });
                }
            }
            // Head uses only visible variables.
            for a in &p.head {
                for &v in &a.args {
                    if !universals.contains(v) && !existentials.contains(v) {
                        push_unique(out, CoreError::UnboundVariable { var: v });
                    }
                }
            }
        }
    }

    /// The part `id` and its ancestors, innermost first: the parts whose
    /// variables are visible in `id`.
    fn scope(&self, id: PartId) -> impl Iterator<Item = PartId> + Clone + '_ {
        std::iter::successors(Some(id), move |&p| self.parts[p].parent)
    }

    /// Renders the nested tgd in the paper's notation, e.g.
    /// `forall x1,x2 (S(x1,x2) -> exists y (R(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))`.
    pub fn display(&self, syms: &SymbolTable) -> String {
        self.display_part(0, syms)
    }

    fn display_part(&self, id: PartId, syms: &SymbolTable) -> String {
        let p = &self.parts[id];
        let vars = |vs: &[VarId]| {
            vs.iter()
                .map(|&v| syms.var_name(v))
                .collect::<Vec<_>>()
                .join(",")
        };
        let body = p
            .body
            .iter()
            .map(|a| a.display(syms).to_string())
            .collect::<Vec<_>>()
            .join(" & ");
        let mut conjuncts: Vec<String> =
            p.head.iter().map(|a| a.display(syms).to_string()).collect();
        conjuncts.extend(p.children.iter().map(|&c| self.display_part(c, syms)));
        let conclusion = if conjuncts.is_empty() {
            "true".to_string()
        } else {
            conjuncts.join(" & ")
        };
        let conclusion = if p.existentials.is_empty() {
            if conjuncts.len() > 1 {
                format!("({conclusion})")
            } else {
                conclusion
            }
        } else {
            format!("exists {} ({conclusion})", vars(&p.existentials))
        };
        if p.universals.is_empty() {
            format!("({body} -> {conclusion})")
        } else {
            format!("forall {} ({body} -> {conclusion})", vars(&p.universals))
        }
    }
}

/// A list of variables for membership tests. A short list — every scope
/// of a hand-written or generated tgd — is scanned in place and costs no
/// allocation; a longer one is sorted once, so that a statement with
/// thousands of variables is checked in `n log n`, not `n²`.
enum VarSet<I> {
    Scan(I),
    Sorted(Vec<VarId>),
}

impl<I: Iterator<Item = VarId> + Clone> VarSet<I> {
    /// Lists of up to this many variables are scanned.
    const SCAN: usize = 16;

    fn new(vs: I) -> Self {
        if vs.clone().nth(Self::SCAN).is_none() {
            return VarSet::Scan(vs);
        }
        let mut sorted: Vec<VarId> = vs.collect();
        sorted.sort_unstable();
        VarSet::Sorted(sorted)
    }

    fn contains(&self, x: VarId) -> bool {
        match self {
            VarSet::Scan(vs) => vs.clone().any(|v| v == x),
            VarSet::Sorted(vs) => vs.binary_search(&x).is_ok(),
        }
    }

    /// Does the list hold some variable twice?
    fn repeats(&self) -> bool {
        match self {
            VarSet::Scan(vs) => {
                let mut vs = vs.clone();
                while let Some(v) = vs.next() {
                    if vs.clone().any(|w| w == v) {
                        return true;
                    }
                }
                false
            }
            VarSet::Sorted(vs) => vs.windows(2).any(|w| w[0] == w[1]),
        }
    }
}

fn find_dup(vs: &[VarId]) -> VarId {
    let mut seen = BTreeSet::new();
    for &v in vs {
        if !seen.insert(v) {
            return v;
        }
    }
    unreachable!("find_dup called without duplicates")
}

impl From<StTgd> for NestedTgd {
    fn from(t: StTgd) -> Self {
        let universals = t.universals();
        NestedTgd {
            parts: vec![Part {
                parent: None,
                universals,
                body: t.body,
                existentials: t.existentials,
                head: t.head,
                children: vec![],
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    /// Builds the running example σ of the paper (Section 2, marked (*)):
    /// σ1: ∀x1 (S1(x1) → ∃y1
    /// σ2:   (∀x2 (S2(x2) → R2(y1,x2)) ∧
    /// σ3:    ∀x3 (S3(x1,x3) → (R3(y1,x3) ∧
    /// σ4:      ∀x4 (S4(x3,x4) → ∃y2 R4(y2,x4))))))
    pub(crate) fn running_example(syms: &mut SymbolTable) -> NestedTgd {
        let s1 = syms.rel("S1");
        let s2 = syms.rel("S2");
        let s3 = syms.rel("S3");
        let s4 = syms.rel("S4");
        let r2 = syms.rel("R2");
        let r3 = syms.rel("R3");
        let r4 = syms.rel("R4");
        let x1 = syms.var("x1");
        let x2 = syms.var("x2");
        let x3 = syms.var("x3");
        let x4 = syms.var("x4");
        let y1 = syms.var("y1");
        let y2 = syms.var("y2");
        NestedTgd::from_parts(vec![
            Part {
                parent: None,
                universals: vec![x1],
                body: vec![Atom::new(s1, vec![x1])],
                existentials: vec![y1],
                head: vec![],
                children: vec![1, 2],
            },
            Part {
                parent: Some(0),
                universals: vec![x2],
                body: vec![Atom::new(s2, vec![x2])],
                existentials: vec![],
                head: vec![Atom::new(r2, vec![y1, x2])],
                children: vec![],
            },
            Part {
                parent: Some(0),
                universals: vec![x3],
                body: vec![Atom::new(s3, vec![x1, x3])],
                existentials: vec![],
                head: vec![Atom::new(r3, vec![y1, x3])],
                children: vec![3],
            },
            Part {
                parent: Some(2),
                universals: vec![x4],
                body: vec![Atom::new(s4, vec![x3, x4])],
                existentials: vec![y2],
                head: vec![Atom::new(r4, vec![y2, x4])],
                children: vec![],
            },
        ])
    }

    #[test]
    fn navigation_matches_paper() {
        let mut syms = SymbolTable::new();
        let t = running_example(&mut syms);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(2), Some(0));
        assert_eq!(t.parent(3), Some(2));
        assert_eq!(t.ancestors(3), vec![0, 2]);
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.descendants(0), vec![1, 2, 3]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.num_universals(), 4);
    }

    #[test]
    fn visible_variables() {
        let mut syms = SymbolTable::new();
        let t = running_example(&mut syms);
        let x1 = syms.var("x1");
        let x3 = syms.var("x3");
        let x4 = syms.var("x4");
        let y1 = syms.var("y1");
        let y2 = syms.var("y2");
        assert_eq!(t.visible_universals(3), vec![x1, x3, x4]);
        assert_eq!(t.visible_existentials(3), vec![y1, y2]);
    }

    #[test]
    fn validate_running_example() {
        let mut syms = SymbolTable::new();
        let t = running_example(&mut syms);
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
        assert_eq!(sch.side(syms.rel("S3")), Some(Side::Source));
        assert_eq!(sch.side(syms.rel("R4")), Some(Side::Target));
    }

    #[test]
    fn validate_rejects_broken_links() {
        let mut syms = SymbolTable::new();
        let mut t = running_example(&mut syms);
        let mut parts = t.parts().to_vec();
        parts[3].parent = Some(0); // claims parent 0, but 0 doesn't list it
        t = NestedTgd::from_parts(parts);
        let mut sch = Schema::new();
        assert!(t.validate(&mut sch).is_err());
    }

    #[test]
    fn validate_rejects_unsafe_universal() {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let x = syms.var("x");
        let z = syms.var("z");
        let t = NestedTgd::from_parts(vec![Part {
            parent: None,
            universals: vec![x, z],
            body: vec![Atom::new(s, vec![x])],
            existentials: vec![],
            head: vec![],
            children: vec![],
        }]);
        let mut sch = Schema::new();
        assert_eq!(
            t.validate(&mut sch),
            Err(CoreError::UnsafeVariable { var: z })
        );
    }

    #[test]
    fn scope_errors_do_not_depend_on_scope_width() {
        // The same defects in a scope of 4 variables (scanned) and of 40
        // (sorted): x0 quantified twice, y both universal and
        // existential, the last universal unused in the body, and w and u
        // used unbound in the body and the head.
        for n in [4, 40] {
            let mut syms = SymbolTable::new();
            let (s, r) = (syms.rel("S"), syms.rel("R"));
            let xs: Vec<VarId> = (0..n).map(|i| syms.var(&format!("x{i}"))).collect();
            let (y, w, u) = (syms.var("y"), syms.var("w"), syms.var("u"));
            let mut universals = xs.clone();
            universals.extend([xs[0], y]);
            let mut body = xs[..n - 1].to_vec();
            body.extend([y, w]);
            let t = NestedTgd::from_parts(vec![Part {
                parent: None,
                universals,
                body: vec![Atom::new(s, body)],
                existentials: vec![y],
                head: vec![Atom::new(r, vec![xs[1], y, u])],
                children: vec![],
            }]);
            let mut errs = Vec::new();
            t.check(&mut Schema::new(), &mut errs);
            assert_eq!(
                errs,
                vec![
                    CoreError::ShadowedVariable { var: xs[0] },
                    CoreError::ShadowedVariable { var: y },
                    CoreError::UnsafeVariable { var: xs[n - 1] },
                    CoreError::UnboundVariable { var: w },
                    CoreError::UnboundVariable { var: u },
                ],
                "{n} variables"
            );
        }
    }

    #[test]
    fn st_tgd_round_trip() {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let r = syms.rel("R");
        let x = syms.var("x");
        let y = syms.var("y");
        let st = StTgd::new(
            vec![Atom::new(s, vec![x])],
            vec![y],
            vec![Atom::new(r, vec![x, y])],
        );
        let nested: NestedTgd = st.clone().into();
        assert!(nested.is_st_tgd());
        assert_eq!(nested.to_st_tgd(), Some(st));
    }

    #[test]
    fn display_nested_shape() {
        let mut syms = SymbolTable::new();
        let t = running_example(&mut syms);
        let s = t.display(&syms);
        assert!(s.starts_with("forall x1 (S1(x1) -> exists y1 ("));
        assert!(s.contains("forall x4 (S4(x3,x4) -> exists y2 (R4(y2,x4)))"));
    }
}
