//! Skolemization of nested tgds (paper, Section 2).
//!
//! Every existential variable `y` of a part σᵢ is replaced by the Skolem
//! term `f(x⃗)` where `f` is a fresh function symbol and `x⃗` is the vector
//! of universal variables of σᵢ and its ancestors. The result, flattened to
//! one clause per part, is a **plain SO tgd** — this witnesses the inclusion
//! "nested tgds ⊆ plain SO tgds".

use crate::atom::{Atom, TermAtom};
use crate::dep::nested::{NestedTgd, PartId};
use crate::dep::so_tgd::{SoClause, SoTgd};
use crate::symbol::{FuncId, SymbolTable, VarId};
use crate::term::Term;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The Skolem assignment of a nested tgd: for every existential variable,
/// the fresh function symbol and the universal variables it is applied to.
#[derive(Clone, Debug)]
pub struct SkolemInfo {
    /// `y ↦ (f, x⃗)` for each existential variable `y`.
    pub assignment: BTreeMap<VarId, (FuncId, Vec<VarId>)>,
    /// The fresh function symbols in introduction order (paper order:
    /// `f, g, h, …` following the parts top-down).
    pub funcs: Vec<FuncId>,
}

impl SkolemInfo {
    /// Computes the Skolem assignment for a nested tgd, interning fresh
    /// function symbols. Function names follow the paper's convention
    /// `f, g, h, f4, f5, …` in order of appearance.
    pub fn for_nested(tgd: &NestedTgd, syms: &mut SymbolTable) -> SkolemInfo {
        let mut assignment = BTreeMap::new();
        let mut funcs = Vec::new();
        let mut counter = 0usize;
        // Pre-order traversal so names follow the textual order of the tgd.
        for part in preorder(tgd) {
            let existentials = &tgd.part(part).existentials;
            if existentials.is_empty() {
                continue;
            }
            let mut args = tgd.visible_universals(part);
            for (k, &y) in existentials.iter().enumerate() {
                let name = skolem_name(counter);
                counter += 1;
                let f = syms.fresh_func(&name);
                // The last existential takes the list itself.
                let args = match k + 1 == existentials.len() {
                    true => std::mem::take(&mut args),
                    false => args.clone(),
                };
                assignment.insert(y, (f, args));
                funcs.push(f);
            }
        }
        SkolemInfo { assignment, funcs }
    }

    /// The Skolem term `f(x⃗)` for existential variable `y`, if `y` is
    /// existential in this tgd.
    pub fn term_for(&self, y: VarId) -> Option<Term> {
        self.assignment
            .get(&y)
            .map(|(f, args)| Term::App(*f, args.iter().map(|&v| Term::Var(v)).collect()))
    }

    /// The existential variable a Skolem function stands for (reverse of
    /// the assignment), if `f` was introduced by this Skolemization.
    pub fn existential_of(&self, f: FuncId) -> Option<VarId> {
        self.assignment
            .iter()
            .find(|(_, (g, _))| *g == f)
            .map(|(&y, _)| y)
    }

    /// The universal variables a Skolem function is applied to, if `f` was
    /// introduced by this Skolemization.
    pub fn args_of(&self, f: FuncId) -> Option<&[VarId]> {
        self.assignment
            .values()
            .find(|(g, _)| *g == f)
            .map(|(_, args)| args.as_slice())
    }
}

/// Names `f, g, h` then `f4, f5, ...` like the paper's examples.
fn skolem_name(i: usize) -> Cow<'static, str> {
    match i {
        0 => "f".into(),
        1 => "g".into(),
        2 => "h".into(),
        n => format!("f{}", n + 1).into(),
    }
}

/// Skolemizes a nested tgd into an equivalent **plain** SO tgd with one
/// clause per part. The clause for part σᵢ has body = the conjunction of the
/// bodies of σᵢ and all its ancestors, and head = the head atoms of σᵢ with
/// existential variables replaced by their Skolem terms. Parts with empty
/// heads produce no clause.
pub fn skolemize(tgd: &NestedTgd, syms: &mut SymbolTable) -> (SoTgd, SkolemInfo) {
    let info = SkolemInfo::for_nested(tgd, syms);
    let so = skolemize_with(tgd, &info);
    (so, info)
}

/// Skolemizes with a pre-computed Skolem assignment (used by the chase so
/// that nulls are labeled consistently with the reasoning procedures).
pub fn skolemize_with(tgd: &NestedTgd, info: &SkolemInfo) -> SoTgd {
    let mut clauses = Vec::new();
    skolemize_clauses(tgd, info, &mut clauses);
    SoTgd::new(info.funcs.clone(), clauses)
}

/// The clauses of [`skolemize_with`], appended to `out` — for a caller
/// that collects the clauses of many tgds in one vector.
pub fn skolemize_clauses(tgd: &NestedTgd, info: &SkolemInfo, out: &mut Vec<SoClause>) {
    for part in preorder(tgd) {
        let head_atoms = &tgd.part(part).head;
        if head_atoms.is_empty() {
            continue;
        }
        let body = accumulated_body(tgd, part);
        let head: Vec<TermAtom> = head_atoms.iter().map(|a| skolemize_atom(a, info)).collect();
        out.push(SoClause::new(body, vec![], head));
    }
}

/// The parts of `tgd` in pre-order (the textual order), root first.
fn preorder(tgd: &NestedTgd) -> impl Iterator<Item = PartId> {
    std::iter::once(tgd.root()).chain(tgd.descendants(tgd.root()))
}

/// The conjunction of the body atoms of `part` and all of its ancestors,
/// root-first — the antecedent of the flattened clause for `part`.
pub fn accumulated_body(tgd: &NestedTgd, part: PartId) -> Vec<Atom> {
    let mut body = Vec::new();
    for p in tgd.ancestors(part) {
        body.extend(tgd.part(p).body.iter().cloned());
    }
    body.extend(tgd.part(part).body.iter().cloned());
    body
}

fn skolemize_atom(a: &Atom, info: &SkolemInfo) -> TermAtom {
    TermAtom::new(
        a.rel,
        a.args
            .iter()
            .map(|&v| info.term_for(v).unwrap_or(Term::Var(v)))
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::nested::Part;
    use crate::schema::Schema;

    /// The running example σ of Section 2; its Skolemization is displayed in
    /// the paper as
    /// σ1: ∀x1 (S1(x1) →
    /// σ2:   (∀x2 (S2(x2) → R2(f(x1),x2)) ∧
    /// σ3:    ∀x3 (S3(x1,x3) → (R3(f(x1),x3) ∧
    /// σ4:      ∀x4 (S4(x3,x4) → R4(g(x1,x3,x4),x4))))).
    fn running_example(syms: &mut SymbolTable) -> NestedTgd {
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
    fn skolem_terms_match_paper() {
        let mut syms = SymbolTable::new();
        let tgd = running_example(&mut syms);
        let (so, info) = skolemize(&tgd, &mut syms);
        assert!(so.is_plain());
        let mut sch = Schema::new();
        so.validate(&mut sch).unwrap();

        // y1 ↦ f(x1); y2 ↦ g(x1, x3, x4).
        let y1 = syms.var("y1");
        let y2 = syms.var("y2");
        let t1 = info.term_for(y1).unwrap();
        let t2 = info.term_for(y2).unwrap();
        assert_eq!(t1.display(&syms).to_string(), "f(x1)");
        assert_eq!(t2.display(&syms).to_string(), "g(x1,x3,x4)");

        // Three clauses: σ2, σ3, σ4 (σ1 has an empty head).
        assert_eq!(so.clauses.len(), 3);
        // Clause for σ2 accumulates the root body.
        assert_eq!(so.clauses[0].body.len(), 2);
        assert_eq!(
            so.clauses[0].head[0].display(&syms).to_string(),
            "R2(f(x1),x2)"
        );
        assert_eq!(
            so.clauses[2].head[0].display(&syms).to_string(),
            "R4(g(x1,x3,x4),x4)"
        );
        // v_σ (occurring Skolem functions) is 2.
        assert_eq!(so.occurring_funcs().len(), 2);
    }

    #[test]
    fn st_tgd_skolemizes_to_single_clause() {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S2");
        let r = syms.rel("R");
        let x = syms.var("x2");
        let z = syms.var("z");
        let tgd: NestedTgd = crate::dep::st_tgd::StTgd::new(
            vec![Atom::new(s, vec![x])],
            vec![z],
            vec![Atom::new(r, vec![x, z])],
        )
        .into();
        let (so, _) = skolemize(&tgd, &mut syms);
        assert_eq!(so.clauses.len(), 1);
        assert_eq!(so.display(&syms), "exists f . S2(x2) -> R(x2,f(x2))");
    }

    #[test]
    fn reverse_accessors_find_existential_and_args() {
        let mut syms = SymbolTable::new();
        let tgd = running_example(&mut syms);
        let (_, info) = skolemize(&tgd, &mut syms);
        let y2 = syms.var("y2");
        let (g, _) = info.assignment[&y2];
        assert_eq!(info.existential_of(g), Some(y2));
        assert_eq!(info.args_of(g).map(<[_]>::len), Some(3));
        let unrelated = syms.func("unrelated");
        assert_eq!(info.existential_of(unrelated), None);
        assert!(info.args_of(unrelated).is_none());
    }

    #[test]
    fn skolem_names_are_collision_free() {
        let mut syms = SymbolTable::new();
        syms.func("f"); // pre-existing symbol named "f"
        let tgd = running_example(&mut syms);
        let (_, info) = skolemize(&tgd, &mut syms);
        // The first Skolem function must avoid the existing "f".
        assert_eq!(syms.func_name(info.funcs[0]), "f_1");
    }

    #[test]
    fn fresh_info_per_call() {
        let mut syms = SymbolTable::new();
        let tgd = running_example(&mut syms);
        let (_, i1) = skolemize(&tgd, &mut syms);
        let (_, i2) = skolemize(&tgd, &mut syms);
        assert_ne!(i1.funcs, i2.funcs);
    }
}
