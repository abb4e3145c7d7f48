//! Offline stand-in for the `serde_json` crate.
//!
//! Provides `to_string`, `to_string_pretty`, `to_value`, `from_str` and
//! `from_value` over the serde shim's [`Value`] tree, with a complete JSON
//! text parser and printer (string escapes, `\uXXXX`, nested containers).

pub use serde::Value;

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Serialization/deserialization error (re-exported from the serde shim).
pub type Error = serde::Error;

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Converts `value` into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Rebuilds a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::from_value(&value)
}

/// Parses JSON text into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = JsonParser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

// ---------- printer ----------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------- parser ----------

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| Error::msg(format!("invalid number at byte {start}")))
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| Error::msg("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::msg(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // piece. Both are ASCII, so the run ends on a character
                    // boundary of the (already valid UTF-8) input.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!("expected ',' or ']', found {other:?}")));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.pos += 1; // {
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(Error::msg(format!(
                    "expected object key at byte {}",
                    self.pos
                )));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(Error::msg(format!("expected ':' at byte {}", self.pos)));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(Error::msg(format!("expected ',' or '}}', found {other:?}")));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let v: Value = from_str("[null, true, -2.5, \"a\\nb\", 12]").unwrap();
        assert_eq!(
            v,
            Value::Array(vec![
                Value::Null,
                Value::Bool(true),
                Value::Number(-2.5),
                Value::String("a\nb".into()),
                Value::Number(12.0),
            ])
        );
        let s = to_string(&v).unwrap();
        let v2: Value = from_str(&s).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn pretty_printing_nests() {
        let v = Value::Object(vec![(
            "xs".to_string(),
            Value::Array(vec![Value::Number(1.0)]),
        )]);
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"xs\": [\n"));
    }

    #[test]
    fn long_strings_keep_every_character() {
        let body: String = "fact: Emp(d\u{e9}pt1,x)\t\u{1f600}\n".repeat(4000);
        let text = to_string(&Value::String(body.clone())).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), Value::String(body));
        assert_eq!(
            from_str::<Value>("\"a\\\"b\\u00e9\u{e9}\\\\\"").unwrap(),
            Value::String("a\"b\u{e9}\u{e9}\\".into())
        );
        assert!(from_str::<Value>("\"open \u{e9}").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("{\"a\":}").is_err());
    }
}
