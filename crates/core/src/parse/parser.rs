//! Recursive-descent parser for the textual dependency syntax.
//!
//! Grammar (informal):
//!
//! ```text
//! nested   := [forall VARS] atoms '->' conclusion          (top level)
//! conclusion := [exists VARS] chi ('&' chi)*
//! chi      := ATOM | 'true'
//!           | forall VARS '(' atoms '->' conclusion ')'     (nested part)
//!           | forall VARS atoms '->' conclusion             (greedy form)
//!           | '(' atoms '->' conclusion ')'                 (part w/o own ∀)
//!           | '(' chi ('&' chi)* ')'                        (grouping)
//! so_tgd   := [exists FUNCS '.'] clause (';' clause)*
//! clause   := (ATOM | term '=' term) ('&' ...)* '->' (TERMATOM ('&' ...)* | 'true')
//! egd      := atoms '->' VAR '=' VAR
//! ```
//!
//! At the top level (only), universally quantified variables may be left
//! implicit: `S(x,y) -> exists z R(x,z)` quantifies `x, y` universally.
//! Nested parts must quantify their own variables explicitly (they may have
//! none, as in Example 3.4 of the paper).

use crate::atom::{Atom, TermAtom};
use crate::dep::egd::Egd;
use crate::dep::nested::{NestedTgd, Part};
use crate::dep::so_tgd::{SoClause, SoTgd};
use crate::dep::st_tgd::StTgd;
use crate::error::{CoreError, Result};
use crate::instance::Fact;
use crate::parse::lexer::{lex, Spanned, Tok};
use crate::symbol::{SymbolTable, VarId};
use crate::term::Term;
use crate::value::Value;

/// A cursor over lexed tokens. The tokens are borrowed, so one lexing can
/// feed several parse attempts (see [`parse_nested_tgd_lexed`] and its
/// siblings).
struct Parser<'a, 't, 's> {
    toks: &'t [Spanned<'s>],
    pos: usize,
    syms: &'a mut SymbolTable,
}

/// Parsed tree node before arena conversion.
struct PNode {
    universals: Vec<VarId>,
    body: Vec<Atom>,
    existentials: Vec<VarId>,
    head: Vec<Atom>,
    children: Vec<PNode>,
}

impl<'a, 't, 's> Parser<'a, 't, 's> {
    fn new(toks: &'t [Spanned<'s>], syms: &'a mut SymbolTable) -> Self {
        Parser { toks, pos: 0, syms }
    }

    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos).map(|s| s.tok)
    }

    fn peek2(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos + 1).map(|s| s.tok)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or_else(|| self.toks.last().map(|s| s.offset + 1).unwrap_or(0))
    }

    fn bump(&mut self) -> Option<Tok<'s>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(CoreError::Parse {
            offset: self.offset(),
            message: message.into(),
        })
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<()> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            other => {
                let msg = format!("expected {want:?}, found {other:?}");
                self.err(msg)
            }
        }
    }

    fn eat(&mut self, want: Tok<'_>) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&'s str> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    /// `x1, x2` or `x1 x2` (comma optional), at least one.
    fn var_list(&mut self) -> Result<Vec<VarId>> {
        let mut out = vec![];
        loop {
            let name = self.ident()?;
            out.push(self.syms.var(name));
            if self.eat(Tok::Comma) {
                continue;
            }
            // Space-separated continuation: another ident NOT followed by '('
            // (which would start an atom).
            if matches!(self.peek(), Some(Tok::Ident(_))) && self.peek2() != Some(Tok::LParen) {
                continue;
            }
            break;
        }
        Ok(out)
    }

    /// `R(x, y)` with variable arguments.
    fn atom(&mut self) -> Result<Atom> {
        let rel_name = self.ident()?;
        let rel = self.syms.rel(rel_name);
        self.expect(Tok::LParen)?;
        let mut args = vec![];
        if !self.eat(Tok::RParen) {
            loop {
                let v = self.ident()?;
                args.push(self.syms.var(v));
                if self.eat(Tok::Comma) {
                    continue;
                }
                self.expect(Tok::RParen)?;
                break;
            }
        }
        Ok(Atom::new(rel, args))
    }

    /// `A(x) & B(x,y) & ...`
    fn atom_conj(&mut self) -> Result<Vec<Atom>> {
        let mut atoms = vec![self.atom()?];
        while self.eat(Tok::Amp) {
            atoms.push(self.atom()?);
        }
        Ok(atoms)
    }

    // ---------- nested tgds ----------

    /// Top level entry.
    fn nested_top(&mut self) -> Result<PNode> {
        let node = match self.peek() {
            Some(Tok::LParen) => {
                self.bump();
                let n = self.impl_body(true)?;
                self.expect(Tok::RParen)?;
                n
            }
            _ => self.impl_body(true)?,
        };
        if self.pos != self.toks.len() {
            return self.err("trailing input after nested tgd");
        }
        Ok(node)
    }

    /// `[forall VARS] atoms -> conclusion`. `top` enables implicit
    /// universal quantification when `forall` is absent.
    fn impl_body(&mut self, top: bool) -> Result<PNode> {
        let explicit = self.peek() == Some(Tok::Forall);
        let universals = if explicit {
            self.bump();
            self.var_list()?
        } else {
            vec![]
        };
        // `forall x (BODY -> CONCL)` — grouping parens around the implication.
        if explicit && self.peek() == Some(Tok::LParen) {
            self.bump();
            let mut inner = self.impl_tail(top && !explicit)?;
            self.expect(Tok::RParen)?;
            inner.universals = universals;
            return Ok(inner);
        }
        let mut node = self.impl_tail(top && !explicit)?;
        node.universals = universals;
        if top && !explicit {
            // Implicit universals: body variables in first-occurrence order.
            let mut seen = std::collections::BTreeSet::new();
            let mut us = vec![];
            for a in &node.body {
                for &v in &a.args {
                    if seen.insert(v) {
                        us.push(v);
                    }
                }
            }
            node.universals = us;
        }
        Ok(node)
    }

    /// `atoms -> conclusion` (no quantifier prefix).
    fn impl_tail(&mut self, _top_implicit: bool) -> Result<PNode> {
        let body = self.atom_conj()?;
        self.expect(Tok::Arrow)?;
        let (existentials, head, children) = self.conclusion()?;
        Ok(PNode {
            universals: vec![],
            body,
            existentials,
            head,
            children,
        })
    }

    /// `[exists VARS] chi ('&' chi)*`
    fn conclusion(&mut self) -> Result<(Vec<VarId>, Vec<Atom>, Vec<PNode>)> {
        let existentials = if self.eat(Tok::Exists) {
            self.var_list()?
        } else {
            vec![]
        };
        let mut head = vec![];
        let mut children = vec![];
        self.chi_conj(&mut head, &mut children)?;
        Ok((existentials, head, children))
    }

    fn chi_conj(&mut self, head: &mut Vec<Atom>, children: &mut Vec<PNode>) -> Result<()> {
        loop {
            self.chi_item(head, children)?;
            if !self.eat(Tok::Amp) {
                break;
            }
        }
        Ok(())
    }

    fn chi_item(&mut self, head: &mut Vec<Atom>, children: &mut Vec<PNode>) -> Result<()> {
        match self.peek() {
            Some(Tok::True) => {
                self.bump();
                Ok(())
            }
            Some(Tok::Forall) => {
                children.push(self.impl_body(false)?);
                Ok(())
            }
            Some(Tok::LParen) => {
                self.bump();
                // Inside parens: either a quantifier-free nested part
                // `atoms -> conclusion`, or a grouped conjunction of items
                // (each of which may itself be a quantified part). Try the
                // implication reading first.
                let save = self.pos;
                if self.peek() != Some(Tok::Forall) {
                    if let Ok(atoms) = self.atom_conj() {
                        if self.eat(Tok::Arrow) {
                            let (existentials, h, cs) = self.conclusion()?;
                            self.expect(Tok::RParen)?;
                            children.push(PNode {
                                universals: vec![],
                                body: atoms,
                                existentials,
                                head: h,
                                children: cs,
                            });
                            return Ok(());
                        }
                    }
                    self.pos = save;
                }
                // Grouped conjunction.
                self.chi_conj(head, children)?;
                self.expect(Tok::RParen)?;
                Ok(())
            }
            Some(Tok::Ident(_)) => {
                head.push(self.atom()?);
                Ok(())
            }
            other => {
                let msg = format!("expected conclusion item, found {other:?}");
                self.err(msg)
            }
        }
    }

    // ---------- SO tgds ----------

    fn so_tgd(&mut self) -> Result<SoTgd> {
        let mut funcs = vec![];
        if self.eat(Tok::Exists) {
            loop {
                let name = self.ident()?;
                funcs.push(self.syms.func(name));
                if self.eat(Tok::Comma) {
                    continue;
                }
                break;
            }
            self.expect(Tok::Dot)?;
        }
        let mut clauses = vec![self.so_clause()?];
        while self.eat(Tok::Semi) {
            clauses.push(self.so_clause()?);
        }
        if self.pos != self.toks.len() {
            return self.err("trailing input after SO tgd");
        }
        Ok(SoTgd::new(funcs, clauses))
    }

    fn so_clause(&mut self) -> Result<SoClause> {
        let mut body = vec![];
        let mut equalities = vec![];
        loop {
            // Either `R(vars)` (atom) or `term = term` (equality). Both can
            // start with `ident(...)`; decide by the following token.
            let save = self.pos;
            let t = self.term()?;
            if self.eat(Tok::Eq) {
                let rhs = self.term()?;
                equalities.push((t, rhs));
            } else {
                // Must be an atom over variables; re-parse strictly.
                self.pos = save;
                body.push(self.atom()?);
            }
            if self.eat(Tok::Amp) {
                continue;
            }
            break;
        }
        self.expect(Tok::Arrow)?;
        let mut head = vec![];
        if self.eat(Tok::True) {
            // empty head
        } else {
            loop {
                head.push(self.term_atom()?);
                if !self.eat(Tok::Amp) {
                    break;
                }
            }
        }
        Ok(SoClause::new(body, equalities, head))
    }

    /// A term: `x` or `f(t1, ..., tk)`.
    fn term(&mut self) -> Result<Term> {
        let name = self.ident()?;
        if self.peek() == Some(Tok::LParen) {
            self.bump();
            let f = self.syms.func(name);
            let mut args = vec![];
            if !self.eat(Tok::RParen) {
                loop {
                    args.push(self.term()?);
                    if self.eat(Tok::Comma) {
                        continue;
                    }
                    self.expect(Tok::RParen)?;
                    break;
                }
            }
            if args.is_empty() {
                return self.err("nullary function symbols are not supported");
            }
            Ok(Term::App(f, args))
        } else {
            Ok(Term::Var(self.syms.var(name)))
        }
    }

    /// `R(t1, ..., tk)` with term arguments.
    fn term_atom(&mut self) -> Result<TermAtom> {
        let rel_name = self.ident()?;
        let rel = self.syms.rel(rel_name);
        self.expect(Tok::LParen)?;
        let mut args = vec![];
        if !self.eat(Tok::RParen) {
            loop {
                args.push(self.term()?);
                if self.eat(Tok::Comma) {
                    continue;
                }
                self.expect(Tok::RParen)?;
                break;
            }
        }
        Ok(TermAtom::new(rel, args))
    }

    // ---------- egds ----------

    fn egd(&mut self) -> Result<Egd> {
        let body = self.atom_conj()?;
        self.expect(Tok::Arrow)?;
        let l = self.ident()?;
        self.expect(Tok::Eq)?;
        let r = self.ident()?;
        if self.pos != self.toks.len() {
            return self.err("trailing input after egd");
        }
        Ok(Egd::new(body, (self.syms.var(l), self.syms.var(r))))
    }
}

fn pnode_to_parts(node: PNode, parent: Option<usize>, parts: &mut Vec<Part>) -> usize {
    let id = parts.len();
    parts.push(Part {
        parent,
        universals: node.universals,
        body: node.body,
        existentials: node.existentials,
        head: node.head,
        children: vec![],
    });
    for child in node.children {
        let cid = pnode_to_parts(child, Some(id), parts);
        parts[id].children.push(cid);
    }
    id
}

/// Parses a nested tgd (see module docs for the grammar).
pub fn parse_nested_tgd(syms: &mut SymbolTable, input: &str) -> Result<NestedTgd> {
    parse_nested_tgd_lexed(syms, &lex(input)?)
}

/// [`parse_nested_tgd`] over already-lexed input.
pub fn parse_nested_tgd_lexed(syms: &mut SymbolTable, toks: &[Spanned<'_>]) -> Result<NestedTgd> {
    let node = Parser::new(toks, syms).nested_top()?;
    let mut parts = vec![];
    pnode_to_parts(node, None, &mut parts);
    Ok(NestedTgd::from_parts(parts))
}

/// Parses an s-t tgd: a nested tgd with a single part.
pub fn parse_st_tgd(syms: &mut SymbolTable, input: &str) -> Result<StTgd> {
    let nested = parse_nested_tgd(syms, input)?;
    nested
        .to_st_tgd()
        .ok_or_else(|| CoreError::Invalid("expected an s-t tgd, found nested parts".into()))
}

/// Parses an SO tgd, e.g. `exists f . S(x,y) -> R(f(x),f(y))`. Clauses are
/// separated by `;`; universal quantifiers are implicit.
pub fn parse_so_tgd(syms: &mut SymbolTable, input: &str) -> Result<SoTgd> {
    parse_so_tgd_lexed(syms, &lex(input)?)
}

/// [`parse_so_tgd`] over already-lexed input.
pub fn parse_so_tgd_lexed(syms: &mut SymbolTable, toks: &[Spanned<'_>]) -> Result<SoTgd> {
    Parser::new(toks, syms).so_tgd()
}

/// Parses an egd, e.g. `P1(z,x1) & P1(z,x2) -> x1 = x2`.
pub fn parse_egd(syms: &mut SymbolTable, input: &str) -> Result<Egd> {
    parse_egd_lexed(syms, &lex(input)?)
}

/// [`parse_egd`] over already-lexed input.
pub fn parse_egd_lexed(syms: &mut SymbolTable, toks: &[Spanned<'_>]) -> Result<Egd> {
    Parser::new(toks, syms).egd()
}

/// Parses a ground fact, e.g. `S(a,b)` — identifiers in argument position
/// are interned as constants.
pub fn parse_fact(syms: &mut SymbolTable, input: &str) -> Result<Fact> {
    parse_fact_lexed(syms, &lex(input)?)
}

/// [`parse_fact`] over already-lexed input. The argument vector is sized
/// from the token count up front (a well-formed `R(a1,…,an)` is `2n + 2`
/// tokens), so a fact costs one allocation whatever its arity.
pub fn parse_fact_lexed(syms: &mut SymbolTable, toks: &[Spanned<'_>]) -> Result<Fact> {
    let mut p = Parser::new(toks, syms);
    let rel_name = p.ident()?;
    let rel = p.syms.rel(rel_name);
    p.expect(Tok::LParen)?;
    let mut args = Vec::with_capacity(toks.len().saturating_sub(2) / 2);
    if !p.eat(Tok::RParen) {
        loop {
            let name = p.ident()?;
            args.push(Value::Const(p.syms.constant(name)));
            if p.eat(Tok::Comma) {
                continue;
            }
            p.expect(Tok::RParen)?;
            break;
        }
    }
    if p.pos != p.toks.len() {
        return p.err("trailing input after fact");
    }
    Ok(Fact::new(rel, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn parse_simple_st_tgd() {
        let mut syms = SymbolTable::new();
        let t = parse_st_tgd(&mut syms, "S(x,y) -> exists z R(x,z)").unwrap();
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
        assert_eq!(t.universals().len(), 2);
        assert_eq!(t.existentials.len(), 1);
    }

    #[test]
    fn parse_intro_nested_tgd() {
        // The nested tgd from Section 1 of the paper.
        let mut syms = SymbolTable::new();
        let t = parse_nested_tgd(
            &mut syms,
            "forall x1,x2 (S(x1,x2) -> exists y (S2(y,x2) & forall x3 (S(x1,x3) -> R(y,x3))))",
        )
        .unwrap();
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
        assert_eq!(t.num_parts(), 2);
        assert_eq!(t.part(0).head.len(), 1);
        assert_eq!(t.part(1).body.len(), 1);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn parse_running_example_four_parts() {
        let mut syms = SymbolTable::new();
        let t = parse_nested_tgd(
            &mut syms,
            "forall x1 (S1(x1) -> exists y1 (\
               forall x2 (S2(x2) -> R2(y1,x2)) & \
               forall x3 (S3(x1,x3) -> (R3(y1,x3) & \
                 forall x4 (S4(x3,x4) -> exists y2 R4(y2,x4))))))",
        )
        .unwrap();
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
        assert_eq!(t.num_parts(), 4);
        assert_eq!(t.children(0).len(), 2);
        assert_eq!(t.children(2), &[3]);
        assert_eq!(t.num_universals(), 4);
    }

    #[test]
    fn parse_unquantified_nested_part() {
        // Example 3.4: ∀x1 S1(x1) → ((S2(x1) → T2(x1))).
        let mut syms = SymbolTable::new();
        let t = parse_nested_tgd(&mut syms, "forall x1 (S1(x1) -> ((S2(x1) -> T2(x1))))").unwrap();
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
        assert_eq!(t.num_parts(), 2);
        assert!(t.part(1).universals.is_empty());
    }

    #[test]
    fn parse_greedy_quantifier_without_parens() {
        // τ from Example 3.10: ∀x1 (S1(x1) → ∃y (∀x2 S2(x2) → R(x2,y))).
        let mut syms = SymbolTable::new();
        let t = parse_nested_tgd(
            &mut syms,
            "forall x1 (S1(x1) -> exists y (forall x2 S2(x2) -> R(x2,y)))",
        )
        .unwrap();
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
        assert_eq!(t.num_parts(), 2);
        assert_eq!(t.part(1).universals.len(), 1);
        assert_eq!(t.part(1).head.len(), 1);
    }

    #[test]
    fn parse_so_tgd_plain() {
        let mut syms = SymbolTable::new();
        let t = parse_so_tgd(&mut syms, "exists f . S(x,y) -> R(f(x),f(y))").unwrap();
        assert!(t.is_plain());
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
        assert_eq!(t.clauses.len(), 1);
    }

    #[test]
    fn parse_so_tgd_with_equality_and_clauses() {
        let mut syms = SymbolTable::new();
        let t = parse_so_tgd(
            &mut syms,
            "exists f . Emp(e) -> Mgr(e,f(e)) ; Emp(e) & e = f(e) -> SelfMgr(e)",
        )
        .unwrap();
        assert!(!t.is_plain());
        assert_eq!(t.clauses.len(), 2);
        assert_eq!(t.clauses[1].equalities.len(), 1);
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
    }

    #[test]
    fn parse_egd_ok() {
        let mut syms = SymbolTable::new();
        let e = parse_egd(&mut syms, "P1(z,x1) & P1(z,x2) -> x1 = x2").unwrap();
        let mut sch = Schema::new();
        e.validate(&mut sch).unwrap();
    }

    #[test]
    fn parse_fact_grounds_arguments() {
        let mut syms = SymbolTable::new();
        let f = parse_fact(&mut syms, "S(a, b)").unwrap();
        assert_eq!(f.args.len(), 2);
        assert!(f.args.iter().all(|v| v.is_const()));
        assert!(parse_fact(&mut syms, "S(a) extra").is_err());
        assert!(parse_fact(&mut syms, "S(a").is_err());
        let nullary = parse_fact(&mut syms, "T()").unwrap();
        assert!(nullary.args.is_empty());
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut syms = SymbolTable::new();
        assert!(parse_nested_tgd(&mut syms, "S(x -> R(x)").is_err());
        assert!(parse_nested_tgd(&mut syms, "S(x) -> R(x) extra").is_err());
        assert!(parse_so_tgd(&mut syms, "exists f S(x) -> R(x)").is_err());
        assert!(parse_egd(&mut syms, "P(x) -> x").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let mut syms = SymbolTable::new();
        let t = parse_nested_tgd(
            &mut syms,
            "forall x1 (S1(x1) -> exists y1 (\
               forall x2 (S2(x2) -> R2(y1,x2)) & \
               forall x3 (S3(x1,x3) -> (R3(y1,x3) & \
                 forall x4 (S4(x3,x4) -> exists y2 R4(y2,x4))))))",
        )
        .unwrap();
        let shown = t.display(&syms);
        let t2 = parse_nested_tgd(&mut syms, &shown).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn parse_example_415_nested_tgd() {
        // ∀z (Q(z) → ∃u (∀x∀y (S(x,y) → ∃v R(v,u,x)))).
        let mut syms = SymbolTable::new();
        let t = parse_nested_tgd(
            &mut syms,
            "forall z (Q(z) -> exists u (forall x,y (S(x,y) -> exists v R(v,u,x))))",
        )
        .unwrap();
        let mut sch = Schema::new();
        t.validate(&mut sch).unwrap();
        assert_eq!(t.num_parts(), 2);
        assert_eq!(t.part(1).universals.len(), 2);
        assert_eq!(t.part(1).existentials.len(), 1);
    }
}
