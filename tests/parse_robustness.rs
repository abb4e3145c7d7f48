//! The lexer and `parse_program` on any input.
//!
//! - **Lexer parity.** `owned` below is the earlier lexer, whose tokens
//!   owned their identifier text (`Ident(String)`). The borrowing lexer
//!   must give the same token kinds, offsets, lengths and identifier text,
//!   and the same errors, on every program the repository ships or
//!   generates and on every random input below.
//! - **No panics.** Arbitrary UTF-8, programs over multi-byte identifiers
//!   and byte-mutated example programs must each come back from
//!   `parse_program` (and from linting) as statements and diagnostics:
//!   every statement either parses or has its parse error.

use nested_deps::analyze::{lint_source, parse_program, LintOptions, ProgramArtifacts};
use nested_deps::core::error::CoreError;
use nested_deps::core::parse::lexer::{lex, Tok};
use nested_deps::gen::{
    clio_scenario, random_program, random_program_with_dead_code, ProgramGenOptions,
};
use nested_deps::prelude::SymbolTable;
use proptest::prelude::*;
use std::fmt::Write as _;

/// The owned-token lexer, as it was before tokens borrowed their text.
mod owned {
    use super::CoreError;

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Tok {
        Ident(String),
        LParen,
        RParen,
        Comma,
        Amp,
        Arrow,
        Eq,
        Semi,
        Dot,
        Forall,
        Exists,
        True,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Spanned {
        pub tok: Tok,
        pub offset: usize,
        pub len: usize,
    }

    pub fn lex(input: &str) -> Result<Vec<Spanned>, CoreError> {
        let bytes = input.as_bytes();
        let mut out = Vec::new();
        let mut i = 0usize;
        let punct = |tok, offset, len| Spanned { tok, offset, len };
        while i < bytes.len() {
            let c = input[i..].chars().next().expect("offset at char boundary");
            match c {
                ' ' | '\t' | '\n' | '\r' => i += 1,
                '(' | ')' | ',' | '&' | ';' | '.' | '=' => {
                    let tok = match c {
                        '(' => Tok::LParen,
                        ')' => Tok::RParen,
                        ',' => Tok::Comma,
                        '&' => Tok::Amp,
                        ';' => Tok::Semi,
                        '.' => Tok::Dot,
                        _ => Tok::Eq,
                    };
                    out.push(punct(tok, i, 1));
                    i += 1;
                }
                '-' => {
                    if bytes.get(i + 1) == Some(&b'>') {
                        out.push(punct(Tok::Arrow, i, 2));
                        i += 2;
                    } else {
                        return Err(CoreError::Parse {
                            offset: i,
                            message: "expected '->'".into(),
                        });
                    }
                }
                '/' => {
                    if bytes.get(i + 1) == Some(&b'\\') {
                        out.push(punct(Tok::Amp, i, 2));
                        i += 2;
                    } else {
                        return Err(CoreError::Parse {
                            offset: i,
                            message: "expected '/\\'".into(),
                        });
                    }
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    for (off, c) in input[start..].char_indices() {
                        i = start + off;
                        if !(c.is_alphanumeric() || c == '_' || c == '\'') {
                            break;
                        }
                        i += c.len_utf8();
                    }
                    let word = &input[start..i];
                    let tok = match word {
                        "forall" => Tok::Forall,
                        "exists" => Tok::Exists,
                        "true" | "top" => Tok::True,
                        _ => Tok::Ident(word.to_string()),
                    };
                    out.push(Spanned {
                        tok,
                        offset: start,
                        len: i - start,
                    });
                }
                _ => {
                    return Err(CoreError::Parse {
                        offset: i,
                        message: format!("unexpected character {c:?}"),
                    });
                }
            }
        }
        Ok(out)
    }
}

/// The borrowing lexer agrees with the owned one on `text`: same tokens
/// (kind, offset, length, identifier text) or the same error. Checked on
/// the whole text and on each of its lines.
fn assert_lexers_agree(text: &str) {
    for input in std::iter::once(text).chain(text.lines()) {
        let new = lex(input).map(|toks| {
            toks.iter()
                .map(|s| {
                    let tok = match s.tok {
                        Tok::Ident(name) => owned::Tok::Ident(name.to_string()),
                        Tok::LParen => owned::Tok::LParen,
                        Tok::RParen => owned::Tok::RParen,
                        Tok::Comma => owned::Tok::Comma,
                        Tok::Amp => owned::Tok::Amp,
                        Tok::Arrow => owned::Tok::Arrow,
                        Tok::Eq => owned::Tok::Eq,
                        Tok::Semi => owned::Tok::Semi,
                        Tok::Dot => owned::Tok::Dot,
                        Tok::Forall => owned::Tok::Forall,
                        Tok::Exists => owned::Tok::Exists,
                        Tok::True => owned::Tok::True,
                    };
                    owned::Spanned {
                        tok,
                        offset: s.offset,
                        len: s.len,
                    }
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(new, owned::lex(input), "lexers disagree on {input:?}");
        // The token's Debug form is part of parse error messages.
        if let (Ok(new), Ok(old)) = (lex(input), owned::lex(input)) {
            for (n, o) in new.iter().zip(&old) {
                assert_eq!(format!("{:?}", Some(n.tok)), format!("{:?}", Some(&o.tok)));
            }
        }
    }
}

/// `parse_program` and the linter on `text`: no panic, and every
/// statement either parsed or carries its parse error.
fn assert_yields_statements_or_diagnostics(text: &str) {
    let mut syms = SymbolTable::new();
    let (stmts, errs) = parse_program(&mut syms, text);
    let failed: Vec<usize> = errs.iter().map(|(i, _)| *i).collect();
    for s in &stmts {
        assert_eq!(
            s.ast.is_none(),
            failed.contains(&s.index),
            "statement {} of {text:?}",
            s.index
        );
        assert!(text[s.offset..].starts_with(&s.text));
    }
    let lines = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
        .count();
    assert_eq!(stmts.len(), lines, "{text:?}");
    lint_source(&mut SymbolTable::new(), text, &LintOptions::default());
}

/// splitmix64: every draw below is a function of the case's seed alone.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Characters the random texts are drawn from: the grammar's punctuation
/// and keywords' letters, whitespace, multi-byte letters and digits, and
/// characters no token may hold (multi-byte and ASCII).
const ALPHABET: &[char] = &[
    '(', ')', ',', '&', '-', '>', '/', '\\', '=', ';', '.', ':', '#', ' ', '\t', '\n', '\r', 'a',
    'e', 'f', 'x', 'y', 'R', 'S', '_', '\'', '0', '7', 'é', 'σ', 'Ü', '中', 'ß', '٣', '→', '😀',
    '%', '"', '\u{0}', '\u{7f}', '\u{a0}', '\u{301}', '\u{2028}',
];

const WORDS: &[&str] = &[
    "forall", "exists", "true", "top", "fact:", "tgd:", "so:", "egd:", "->", "/\\",
];

fn arbitrary_text(d: &mut Draw) -> String {
    let mut s = String::new();
    for _ in 0..d.below(120) {
        match d.below(10) {
            0 => s.push_str(d.pick(WORDS)),
            1 => s.push(char::from_u32(d.below(0x11_0000) as u32).unwrap_or('?')),
            _ => s.push(d.pick(ALPHABET)),
        }
    }
    s
}

/// A well-formed program over identifiers with multi-byte characters.
fn multibyte_program(d: &mut Draw) -> String {
    const LETTERS: &[&str] = &["é", "σ", "Ü", "中", "ß", "ж", "a", "x", "_"];
    let ident = |d: &mut Draw, first: &str| {
        let mut s = first.to_string();
        for _ in 0..d.below(4) {
            s.push_str(d.pick(LETTERS));
        }
        s.push_str(&d.below(3).to_string());
        s
    };
    let (r, t, x, y, z) = (
        ident(d, "Rσ"),
        ident(d, "Tä"),
        ident(d, "xé"),
        ident(d, "yü"),
        ident(d, "zΩ"),
    );
    let mut src = format!("{r}({x}, {y}) -> exists {z} {t}({x}, {z})\n");
    for i in 0..d.below(6) {
        let _ = writeln!(src, "fact: {r}(c{i}_{}, {})", ident(d, "ü"), ident(d, "中"));
    }
    src
}

fn example_programs() -> Vec<String> {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut texts = Vec::new();
    for dir in ["examples/programs", "tests/lints"] {
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "ndl"))
            .collect();
        paths.sort();
        texts.extend(paths.iter().map(|p| std::fs::read_to_string(p).unwrap()));
    }
    texts
}

fn generated_programs() -> Vec<String> {
    let mut texts = Vec::new();
    for seed in 0..6 {
        let opts = ProgramGenOptions {
            statements: 60,
            seed,
            ..Default::default()
        };
        texts.push(random_program(&opts));
        texts.push(random_program_with_dead_code(&opts, 20));
    }
    let mut syms = SymbolTable::new();
    let sc = clio_scenario(&mut syms, 20, 3, 7);
    let mut clio = String::new();
    for t in sc.nested.tgds.iter().chain(&sc.flat.tgds) {
        let _ = writeln!(clio, "{}", t.display(&syms));
    }
    for f in sc.source.facts() {
        let _ = writeln!(clio, "fact: {}", f.display(&syms));
    }
    texts.push(clio);
    texts
}

#[test]
fn lexers_agree_on_shipped_and_generated_programs() {
    let texts: Vec<String> = example_programs()
        .into_iter()
        .chain(generated_programs())
        .collect();
    assert!(texts.len() > 15);
    for text in &texts {
        assert_lexers_agree(text);
        assert_yields_statements_or_diagnostics(text);
    }
}

#[test]
fn parse_errors_quote_tokens_as_before() {
    // The expected/found wording of parse errors prints tokens with their
    // Debug form; it must not change with the token representation.
    let art = ProgramArtifacts::build("S(x -> R(x)\nS(x) -> R(x) y\negd: S(x) -> x\n");
    let errs: Vec<&str> = art.parse_errors.iter().map(|(_, e)| e.as_str()).collect();
    assert_eq!(errs.len(), 3, "{errs:?}");
    assert!(errs[0].contains("Some(Arrow)"), "{errs:?}");
    assert!(errs[1].contains("trailing input"), "{errs:?}");
    assert!(errs[2].contains("expected Eq, found None"), "{errs:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn arbitrary_text_lexes_like_before_and_never_panics(seed in 0u64..u64::MAX) {
        let text = arbitrary_text(&mut Draw(seed));
        assert_lexers_agree(&text);
        assert_yields_statements_or_diagnostics(&text);
    }

    #[test]
    fn multibyte_identifiers_parse(seed in 0u64..u64::MAX) {
        let text = multibyte_program(&mut Draw(seed));
        assert_lexers_agree(&text);
        let mut syms = SymbolTable::new();
        let (stmts, errs) = parse_program(&mut syms, &text);
        prop_assert!(errs.is_empty(), "{errs:?} in {text:?}");
        prop_assert!(stmts.iter().all(|s| s.ast.is_some()));
        let first = text.split('(').next().unwrap();
        prop_assert!(syms.find_rel(first).is_some(), "{first:?}");
    }

    #[test]
    fn mutated_example_programs_never_panic(seed in 0u64..u64::MAX) {
        let mut d = Draw(seed);
        let programs = example_programs();
        let mut bytes = programs[d.below(programs.len())].clone().into_bytes();
        for _ in 0..1 + d.below(8) {
            let at = d.below(bytes.len() + 1);
            let byte = d.next() as u8;
            match d.below(3) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        assert_lexers_agree(&text);
        assert_yields_statements_or_diagnostics(&text);
    }
}
