//! Best-effort re-location of symbol occurrences in dependency source text.
//!
//! The AST interns symbols and carries no positions, so validation errors
//! (unsafe variable, arity mismatch, …) cannot point into the source
//! directly. These helpers re-lex the offending statement and find the
//! token the diagnostic should anchor to. They are heuristics — for a
//! malformed statement they may miss — so every caller treats the result
//! as optional.

use crate::parse::lexer::{lex, Spanned, Tok};
use crate::span::Span;

fn is_name(s: &Spanned<'_>, name: &str) -> bool {
    matches!(s.tok, Tok::Ident(n) if n == name)
}

/// The `nth` (0-based) occurrence of identifier `name` anywhere in `text`.
pub fn locate_ident(text: &str, name: &str, nth: usize) -> Option<Span> {
    let toks = lex(text).ok()?;
    toks.iter()
        .filter(|s| is_name(s, name))
        .nth(nth)
        .map(Spanned::span)
}

/// Is the token at `i` an identifier applied to arguments — i.e. directly
/// followed by an *adjacent* `(`? A spaced `(` after a quantifier-list
/// variable is grouping (`exists x (R(x))`), not application; the printers
/// and the paper's notation never put a space before an argument list.
fn is_application(toks: &[Spanned<'_>], i: usize) -> bool {
    match toks.get(i + 1) {
        Some(next) => next.tok == Tok::LParen && next.offset == toks[i].offset + toks[i].len,
        None => false,
    }
}

/// The `nth` occurrence of `name` inside a quantifier list — directly after
/// `forall`/`exists`, continuing through commas and further list variables.
/// An identifier applied to arguments ends the list (it starts an atom, as
/// in the greedy form `forall x S(x) -> …`).
pub fn locate_quantified(text: &str, name: &str, nth: usize) -> Option<Span> {
    let toks = lex(text).ok()?;
    let mut in_list = false;
    let mut seen = 0usize;
    for (i, s) in toks.iter().enumerate() {
        match s.tok {
            Tok::Forall | Tok::Exists => in_list = true,
            Tok::Comma if in_list => {}
            Tok::Ident(n) if in_list => {
                if is_application(&toks, i) {
                    in_list = false;
                } else if n == name {
                    if seen == nth {
                        return Some(s.span());
                    }
                    seen += 1;
                }
            }
            _ => in_list = false,
        }
    }
    None
}

/// The `nth` occurrence of `name` applied to arguments (`name(…)`),
/// optionally restricted to applications with exactly `arity` top-level
/// arguments — used to pin arity-mismatch diagnostics on the conflicting
/// occurrence rather than the first.
pub fn locate_applied(text: &str, name: &str, arity: Option<usize>, nth: usize) -> Option<Span> {
    let toks = lex(text).ok()?;
    let mut seen = 0usize;
    for (i, s) in toks.iter().enumerate() {
        if !is_name(s, name) || toks.get(i + 1).map(|t| t.tok) != Some(Tok::LParen) {
            continue;
        }
        if let Some(want) = arity {
            if application_arity(&toks, i + 1) != Some(want) {
                continue;
            }
        }
        if seen == nth {
            return Some(s.span());
        }
        seen += 1;
    }
    None
}

/// Counts top-level arguments of the application whose `(` is at token
/// index `lparen`. Returns `None` for unbalanced parentheses.
fn application_arity(toks: &[Spanned<'_>], lparen: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut any = false;
    for s in &toks[lparen..] {
        match s.tok {
            Tok::LParen => depth += 1,
            Tok::RParen => {
                depth -= 1;
                if depth == 0 {
                    return Some(if any { commas + 1 } else { 0 });
                }
            }
            Tok::Comma if depth == 1 => commas += 1,
            _ => {
                if depth == 1 {
                    any = true;
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_occurrences() {
        let t = "S(x,y) -> R(x,y)";
        assert_eq!(locate_ident(t, "x", 0), Some(Span::new(2, 3)));
        assert_eq!(locate_ident(t, "x", 1), Some(Span::new(12, 13)));
        assert_eq!(locate_ident(t, "z", 0), None);
    }

    #[test]
    fn quantified_occurrences() {
        let t = "forall x,y (S(x,y) -> exists x (R(x)))";
        // First quantified x is in the forall list, second in the exists list.
        assert_eq!(locate_quantified(t, "x", 0), Some(Span::new(7, 8)));
        assert_eq!(locate_quantified(t, "x", 1), Some(Span::new(29, 30)));
        // y appears once in a list; its atom occurrence is not counted.
        assert_eq!(locate_quantified(t, "y", 1), None);
    }

    #[test]
    fn greedy_forall_form_ends_list_at_atom() {
        let t = "forall x S(x) -> R(x)";
        assert_eq!(locate_quantified(t, "x", 0), Some(Span::new(7, 8)));
        assert_eq!(locate_quantified(t, "S", 0), None);
    }

    #[test]
    fn applied_occurrences_with_arity() {
        let t = "R(x) & R(x,y) -> T(f(x,y))";
        assert_eq!(locate_applied(t, "R", None, 1), Some(Span::new(7, 8)));
        assert_eq!(locate_applied(t, "R", Some(2), 0), Some(Span::new(7, 8)));
        assert_eq!(locate_applied(t, "R", Some(3), 0), None);
        // Nested commas do not inflate the outer arity.
        assert_eq!(locate_applied(t, "T", Some(1), 0), Some(Span::new(17, 18)));
        assert_eq!(locate_applied(t, "f", Some(2), 0), Some(Span::new(19, 20)));
    }

    #[test]
    fn nullary_application() {
        assert_eq!(
            locate_applied("T() -> R(x)", "T", Some(0), 0),
            Some(Span::new(0, 1))
        );
    }
}
