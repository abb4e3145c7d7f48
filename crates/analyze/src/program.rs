//! Splitting a dependency-program source into statements and parsing each.
//!
//! A program is a line-oriented text: one dependency or fact per line,
//! blank lines and `#` comments ignored. Each line may carry an explicit
//! kind prefix (`tgd:`, `so:`, `egd:`, `fact:`); without one, the kind is
//! auto-detected by trying the parsers in order nested tgd → SO tgd → egd
//! → fact and keeping the first success. On total failure the parse error
//! that made the most progress (largest byte offset) is reported, which in
//! practice is the parser for the intended kind.
//!
//! Each statement is lexed once, into a token buffer shared by the whole
//! program; every parse attempt reads those tokens.

use ndl_core::parse::lexer::{lex_into, Spanned};
use ndl_core::parse::{
    parse_egd_lexed, parse_fact_lexed, parse_nested_tgd_lexed, parse_so_tgd_lexed,
};
use ndl_core::prelude::*;

/// The parsed form of one statement.
#[derive(Clone, Debug)]
pub enum StmtAst {
    /// A nested tgd (covers plain s-t tgds: a single part).
    Tgd(NestedTgd),
    /// A second-order tgd.
    So(SoTgd),
    /// An equality-generating dependency.
    Egd(Egd),
    /// A ground fact of the source instance.
    Fact(Fact),
}

/// One statement of a program: where its text lies in the source, and its
/// parsed form (`None` if parsing failed — the parse error is reported
/// separately).
#[derive(Clone, Debug)]
pub struct Statement {
    /// 0-based statement index (counting only real statements, not
    /// comments or blank lines).
    pub index: usize,
    /// Byte offset of the statement text within the full program source.
    /// Spans located inside the text are mapped to program spans by
    /// `span.offset_by(offset)`.
    pub offset: usize,
    /// Byte length of the statement text.
    pub len: usize,
    /// The parsed statement, if any parser accepted it.
    pub ast: Option<StmtAst>,
}

impl Statement {
    /// The statement text, prefix and surrounding whitespace stripped, read
    /// from `src`, the program source the statement was parsed from.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.offset..self.offset + self.len]
    }
}

/// Splits `src` into statements and parses each one. Returns the
/// statements together with the parse errors, as `(statement index,
/// error)` pairs; error offsets are relative to the statement's text.
pub fn parse_program(
    syms: &mut SymbolTable,
    src: &str,
) -> (Vec<Statement>, Vec<(usize, CoreError)>) {
    // At most one statement per line.
    let mut stmts = Vec::with_capacity(src.bytes().filter(|&b| b == b'\n').count() + 1);
    let mut errors = Vec::new();
    let mut toks = Vec::new();
    let mut pos = 0usize;
    for line in src.split_inclusive('\n') {
        let line_start = pos;
        pos += line.len();
        let raw = line.trim_end_matches(['\n', '\r']);
        let lead = raw.len() - raw.trim_start().len();
        let body = raw.trim();
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        let (kind, text, text_off) = split_prefix(body, line_start + lead);
        let index = stmts.len();
        let parsed = lex_into(text, &mut toks).and_then(|()| parse_statement(syms, kind, &toks));
        let ast = match parsed {
            Ok(ast) => Some(ast),
            Err(e) => {
                errors.push((index, e));
                None
            }
        };
        stmts.push(Statement {
            index,
            offset: text_off,
            len: text.len(),
            ast,
        });
    }
    (stmts, errors)
}

/// What a kind prefix (or its absence) asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Auto,
    Tgd,
    So,
    Egd,
    Fact,
}

/// Strips an optional `tgd:` / `so:` / `egd:` / `fact:` prefix, returning
/// the forced kind, the remaining text, and its byte offset in the source.
fn split_prefix(body: &str, body_off: usize) -> (Kind, &str, usize) {
    for (prefix, kind) in [
        ("tgd:", Kind::Tgd),
        ("so:", Kind::So),
        ("egd:", Kind::Egd),
        ("fact:", Kind::Fact),
    ] {
        if let Some(rest) = body.strip_prefix(prefix) {
            let trimmed = rest.trim_start();
            let off = body_off + prefix.len() + (rest.len() - trimmed.len());
            return (kind, trimmed, off);
        }
    }
    (Kind::Auto, body, body_off)
}

fn parse_statement(syms: &mut SymbolTable, kind: Kind, toks: &[Spanned<'_>]) -> Result<StmtAst> {
    match kind {
        Kind::Tgd => parse_nested_tgd_lexed(syms, toks).map(StmtAst::Tgd),
        Kind::So => parse_so_tgd_lexed(syms, toks).map(StmtAst::So),
        Kind::Egd => parse_egd_lexed(syms, toks).map(StmtAst::Egd),
        Kind::Fact => parse_fact_lexed(syms, toks).map(StmtAst::Fact),
        Kind::Auto => {
            // A failed attempt may have interned symbols (an SO-tgd attempt
            // on the fact `f(a)` interns a function `f`); each is rolled
            // back, so the winning parse — and every later statement —
            // sees the table as if only the winner had run.
            let mark = syms.mark();
            let mut best: Option<CoreError> = None;
            let mut keep = |e: CoreError, syms: &mut SymbolTable| {
                syms.rollback(mark);
                if progress(&e) >= best.as_ref().map_or(0, progress) {
                    best = Some(e);
                }
            };
            match parse_nested_tgd_lexed(syms, toks) {
                Ok(t) => return Ok(StmtAst::Tgd(t)),
                Err(e) => keep(e, syms),
            }
            match parse_so_tgd_lexed(syms, toks) {
                Ok(t) => return Ok(StmtAst::So(t)),
                Err(e) => keep(e, syms),
            }
            match parse_egd_lexed(syms, toks) {
                Ok(t) => return Ok(StmtAst::Egd(t)),
                Err(e) => keep(e, syms),
            }
            match parse_fact_lexed(syms, toks) {
                Ok(t) => return Ok(StmtAst::Fact(t)),
                Err(e) => keep(e, syms),
            }
            Err(best.expect("at least one attempt ran"))
        }
    }
}

/// How far into the statement a parse attempt got before failing.
fn progress(e: &CoreError) -> usize {
    match e {
        CoreError::Parse { offset, .. } => *offset + 1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_lines_and_detects_kinds() {
        let mut syms = SymbolTable::new();
        let src = "# a mapping\n\
                   S(x,y) -> exists z R(x,z)\n\
                   \n\
                   egd: S(x,y) & S(x2,y) -> x = x2\n\
                   fact: S(a,b)\n\
                   so: exists f . S(x,y) -> R(x,f(x))\n";
        let (stmts, errs) = parse_program(&mut syms, src);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(stmts.len(), 4);
        assert!(matches!(stmts[0].ast, Some(StmtAst::Tgd(_))));
        assert!(matches!(stmts[1].ast, Some(StmtAst::Egd(_))));
        assert!(matches!(stmts[2].ast, Some(StmtAst::Fact(_))));
        assert!(matches!(stmts[3].ast, Some(StmtAst::So(_))));
        // Offsets point at the statement text, past any prefix.
        assert_eq!(&src[stmts[0].offset..stmts[0].offset + 6], "S(x,y)");
        assert_eq!(&src[stmts[1].offset..stmts[1].offset + 6], "S(x,y)");
        assert_eq!(&src[stmts[2].offset..stmts[2].offset + 6], "S(a,b)");
    }

    #[test]
    fn auto_detects_egd_and_fact() {
        let mut syms = SymbolTable::new();
        let src = "S(x,y) & S(x,z) -> y = z\nS(a,b)\n";
        let (stmts, errs) = parse_program(&mut syms, src);
        assert!(errs.is_empty(), "{errs:?}");
        assert!(matches!(stmts[0].ast, Some(StmtAst::Egd(_))));
        assert!(matches!(stmts[1].ast, Some(StmtAst::Fact(_))));
    }

    #[test]
    fn parse_error_is_attributed_to_its_statement() {
        let mut syms = SymbolTable::new();
        let src = "S(x) -> R(x)\nS(x -> R(x)\n";
        let (stmts, errs) = parse_program(&mut syms, src);
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].ast.is_some());
        assert!(stmts[1].ast.is_none());
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].0, 1);
        assert!(matches!(errs[0].1, CoreError::Parse { .. }));
    }

    #[test]
    fn forced_kind_overrides_auto_detection() {
        let mut syms = SymbolTable::new();
        // As a tgd this is fine; forced to egd it must fail.
        let (stmts, errs) = parse_program(&mut syms, "egd: S(x) -> R(x)\n");
        assert_eq!(stmts.len(), 1);
        assert!(stmts[0].ast.is_none());
        assert_eq!(errs.len(), 1);
    }

    #[test]
    fn windows_line_endings_and_indent() {
        let mut syms = SymbolTable::new();
        let src = "  S(x) -> R(x)\r\n\t# comment\r\nfact: S(a)\r\n";
        let (stmts, errs) = parse_program(&mut syms, src);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].offset, 2);
        assert_eq!(stmts[0].text(src), "S(x) -> R(x)");
    }

    #[test]
    fn failed_attempts_leave_no_symbols() {
        // `f(a)` is tried as a nested tgd, an SO tgd (interning a function
        // `f`) and an egd before it parses as a fact: only the fact's
        // symbols remain.
        let mut auto = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut auto, "f(a)\n");
        assert!(errs.is_empty(), "{errs:?}");
        assert!(matches!(stmts[0].ast, Some(StmtAst::Fact(_))));
        let mut forced = SymbolTable::new();
        parse_program(&mut forced, "fact: f(a)\n");
        assert_eq!(auto.mark(), forced.mark());
        assert_eq!(auto.num_funcs(), 0);
        assert_eq!(auto.find_var("a"), None);
        // A statement no parser accepts interns nothing either.
        let mut bad = SymbolTable::new();
        let (_, errs) = parse_program(&mut bad, "S(x) -> \n");
        assert_eq!(errs.len(), 1);
        assert_eq!(bad.mark(), SymbolTable::new().mark());
    }
}
