//! Tokenizer for the textual dependency syntax.

use crate::error::{CoreError, Result};
use crate::span::Span;

/// A lexical token. Identifiers borrow their text from the lexed input,
/// so a token is `Copy` and lexing allocates nothing per token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok<'s> {
    /// Identifier: relation, variable, constant or function name.
    Ident(&'s str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `&` (conjunction; `/\` is accepted too)
    Amp,
    /// `->`
    Arrow,
    /// `=`
    Eq,
    /// `;` (clause separator in SO tgds)
    Semi,
    /// `.` (after the function quantifier prefix of SO tgds)
    Dot,
    /// keyword `forall`
    Forall,
    /// keyword `exists`
    Exists,
    /// keyword `true` (empty conjunction ⊤)
    True,
}

/// A token together with its byte offset (for error messages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spanned<'s> {
    /// The token.
    pub tok: Tok<'s>,
    /// Byte offset of the first character.
    pub offset: usize,
    /// Length of the token in bytes.
    pub len: usize,
}

impl Spanned<'_> {
    /// The byte span the token covers in the input.
    pub fn span(&self) -> Span {
        Span::new(self.offset, self.offset + self.len)
    }
}

/// Tokenizes `input`. Identifiers start with an alphabetic character or
/// `_` and continue with alphanumerics, `_` or `'`; the alphabetic classes
/// are Unicode-aware, so relation and variable names like `café` or `σ1`
/// lex as single tokens (offsets and lengths remain byte-based).
pub fn lex(input: &str) -> Result<Vec<Spanned<'_>>> {
    let mut out = Vec::new();
    lex_into(input, &mut out)?;
    Ok(out)
}

/// [`lex`] into a caller-owned buffer, which is cleared first. A buffer
/// reused across statements allocates only when a statement holds more
/// tokens than any before it; the buffer is grown once, to one token per
/// input byte (the most the input can hold), never token by token.
pub fn lex_into<'s>(input: &'s str, out: &mut Vec<Spanned<'s>>) -> Result<()> {
    out.clear();
    out.reserve(input.len());
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut push = |tok, offset, len| out.push(Spanned { tok, offset, len });
    while i < bytes.len() {
        let b = bytes[i];
        let tok = match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b',' => Tok::Comma,
            b'&' => Tok::Amp,
            b';' => Tok::Semi,
            b'.' => Tok::Dot,
            b'=' => Tok::Eq,
            b'-' | b'/' => {
                let (second, tok, message) = if b == b'-' {
                    (b'>', Tok::Arrow, "expected '->'")
                } else {
                    // Accept `/\` as conjunction.
                    (b'\\', Tok::Amp, "expected '/\\'")
                };
                if bytes.get(i + 1) != Some(&second) {
                    return Err(CoreError::Parse {
                        offset: i,
                        message: message.into(),
                    });
                }
                push(tok, i, 2);
                i += 2;
                continue;
            }
            _ => {
                let start = i;
                if !(b.is_ascii_alphabetic() || b == b'_') {
                    // Not an ASCII identifier start: decode the whole
                    // character (offsets stay on char boundaries, since
                    // every branch advances by whole characters).
                    let c = input[i..].chars().next().expect("offset at char boundary");
                    if !c.is_alphabetic() {
                        return Err(CoreError::Parse {
                            offset: i,
                            message: format!("unexpected character {c:?}"),
                        });
                    }
                    i += c.len_utf8();
                } else {
                    i += 1;
                }
                while i < bytes.len() {
                    let b = bytes[i];
                    if b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' {
                        i += 1;
                    } else if b.is_ascii() {
                        break;
                    } else {
                        let c = input[i..].chars().next().expect("offset at char boundary");
                        if !c.is_alphanumeric() {
                            break;
                        }
                        i += c.len_utf8();
                    }
                }
                let word = &input[start..i];
                let tok = match word {
                    "forall" => Tok::Forall,
                    "exists" => Tok::Exists,
                    "true" | "top" => Tok::True,
                    _ => Tok::Ident(word),
                };
                push(tok, start, i - start);
                continue;
            }
        };
        push(tok, i, 1);
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_basic_tgd() {
        let toks = lex("S(x1,x2) -> exists y (R(y,x2))").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|s| &s.tok).collect();
        assert_eq!(kinds[0], &Tok::Ident("S"));
        assert_eq!(kinds[1], &Tok::LParen);
        assert!(kinds.contains(&&Tok::Arrow));
        assert!(kinds.contains(&&Tok::Exists));
    }

    #[test]
    fn lex_keywords_and_primes() {
        let toks = lex("forall x' (P(x') -> true)").unwrap();
        assert_eq!(toks[0].tok, Tok::Forall);
        assert_eq!(toks[1].tok, Tok::Ident("x'"));
        assert_eq!(toks.last().unwrap().tok, Tok::RParen);
    }

    #[test]
    fn lex_so_tgd_punctuation() {
        let toks = lex("exists f . S(x,y) & x = f(x) -> R(f(x)) ; Q(z) -> T(z)").unwrap();
        assert!(toks.iter().any(|t| t.tok == Tok::Dot));
        assert!(toks.iter().any(|t| t.tok == Tok::Semi));
        assert!(toks.iter().any(|t| t.tok == Tok::Eq));
    }

    #[test]
    fn lex_conj_alias() {
        let toks = lex(r"P(x) /\ Q(x) -> R(x)").unwrap();
        assert!(toks.iter().any(|t| t.tok == Tok::Amp));
    }

    #[test]
    fn lex_rejects_garbage() {
        assert!(lex("P(x) % Q(x)").is_err());
        assert!(lex("P(x) - Q(x)").is_err());
    }

    #[test]
    fn unicode_identifiers_lex_as_single_tokens() {
        let toks = lex("Café(σ1,x) -> Tür(σ1)").unwrap();
        assert_eq!(toks[0].tok, Tok::Ident("Café"));
        assert_eq!(toks[0].span(), Span::new(0, "Café".len()));
        assert_eq!(toks[2].tok, Tok::Ident("σ1"));
        assert!(toks.iter().any(|t| t.tok == Tok::Ident("Tür")));
        // A lone non-alphabetic multi-byte character is still rejected,
        // with a whole-character error message (no mojibake).
        let err = lex("P(x) → Q(x)").unwrap_err();
        let msg = format!("{err:?}");
        assert!(msg.contains('→'), "{msg}");
    }

    #[test]
    fn offsets_point_at_tokens() {
        let toks = lex("ab  ->").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 4);
        assert_eq!(toks[0].span(), Span::new(0, 2));
        assert_eq!(toks[1].span(), Span::new(4, 6));
    }
}
