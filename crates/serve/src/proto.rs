//! The wire protocol: length-framed JSON over a byte stream.
//!
//! A frame is a 4-byte **big-endian** `u32` payload length followed by
//! exactly that many bytes of UTF-8 JSON. Requests and responses are both
//! single JSON objects; one request yields exactly one response, and a
//! client may pipeline (responses carry the request `id`; ordering across
//! concurrent workers is otherwise unspecified). The full schema is
//! documented in `docs/serve.md`.
//!
//! Parsing is hand-rolled over the [`serde_json::Value`] tree rather than
//! derived: requests need field defaults (`tenant`, `path`) and precise
//! error messages, and responses need a **stable field order** so golden
//! files and byte-level diffs are meaningful.

pub use serde_json::Value;
use std::io::{self, Read, Write};

/// Parses arbitrary JSON text into a [`Value`] tree. Used by `ndl
/// request` to rewrite request lines (resolving `program_file`) before
/// re-serializing them.
pub fn parse_value(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Serializes a [`Value`] tree compactly, preserving insertion order.
pub fn value_to_string(v: &Value) -> Result<String, String> {
    serde_json::to_string(v).map_err(|e| e.to_string())
}

/// Hard ceiling on a frame payload (32 MiB). A daemon reading untrusted
/// bytes must bound its allocation before trusting a length header.
pub const MAX_FRAME: usize = 32 << 20;

/// Writes one frame (length header + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean end-of-stream (EOF before any
/// header byte); an EOF inside a frame is an `UnexpectedEof` error, and a
/// length above [`MAX_FRAME`] is `InvalidData` (read no further — the
/// stream cannot be resynchronized).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame header",
                    ))
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Per-request engine configuration overrides, applied on top of the
/// daemon's base [`ndl_chase::ChaseConfig`]. This is the protocol-level
/// face of the PR 9 config fix: settings are per request, never frozen
/// into a process-wide global, so two tenants with different settings in
/// one daemon both get what they asked for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestConfig {
    /// Default engine family (`true` = semi-naive delta), overridden by
    /// explicit `--delta`/`--no-delta` args exactly as on the CLI.
    pub delta: Option<bool>,
    /// The fields of the removed parallel engines the request named
    /// (`threads`, `shards`, `sequential_cutoff`, whatever their values),
    /// in that order: accepted so older clients keep working, ignored, and
    /// reported by one warning in the response's stderr.
    pub retired: Vec<String>,
}

/// Request config fields of the removed parallel engines.
const RETIRED_CONFIG: [&str; 3] = ["threads", "shards", "sequential_cutoff"];

/// One request. Field-for-field this mirrors a CLI invocation: `op` is
/// the subcommand, `args` the CLI-style flag tail (parsed by the same
/// helpers the CLI uses), `program` the file the CLI would read, `path`
/// the label diagnostics render with.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed on the response (default 0).
    pub id: u64,
    /// Accounting bucket for per-tenant stats and budget refusals
    /// (default `"default"`).
    pub tenant: String,
    /// `lint`, `analyze`, `chase`, `implies`, `equiv`, `classify`,
    /// `ping`, `stats` or `shutdown`.
    pub op: String,
    /// Display label standing in for the CLI's file path (default
    /// `"<request>"`).
    pub path: String,
    /// Program source text, for ops that take a file on the CLI.
    pub program: Option<String>,
    /// CLI-style argument tail, e.g. `["--json"]` or `["--tgd", "..."]`.
    pub args: Vec<String>,
    /// Engine configuration overrides for this request.
    pub config: Option<RequestConfig>,
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

impl Request {
    /// Parses a request frame payload.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("request is not UTF-8: {e}"))?;
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("request is not valid JSON: {e}"))?;
        let obj = v.as_object().ok_or("request must be a JSON object")?;
        let op = match get(obj, "op") {
            Some(Value::String(s)) => s.clone(),
            Some(v) => return Err(format!("field \"op\" must be a string, got {v:?}")),
            None => return Err("missing field \"op\"".into()),
        };
        let id = match get(obj, "id") {
            None | Some(Value::Null) => 0,
            Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
            Some(v) => {
                return Err(format!(
                    "field \"id\" must be a non-negative integer, got {v:?}"
                ))
            }
        };
        let tenant = match get(obj, "tenant") {
            None | Some(Value::Null) => "default".to_string(),
            Some(Value::String(s)) => s.clone(),
            Some(v) => return Err(format!("field \"tenant\" must be a string, got {v:?}")),
        };
        let path = match get(obj, "path") {
            None | Some(Value::Null) => "<request>".to_string(),
            Some(Value::String(s)) => s.clone(),
            Some(v) => return Err(format!("field \"path\" must be a string, got {v:?}")),
        };
        let program = match get(obj, "program") {
            None | Some(Value::Null) => None,
            Some(Value::String(s)) => Some(s.clone()),
            Some(v) => return Err(format!("field \"program\" must be a string, got {v:?}")),
        };
        let args = match get(obj, "args") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Array(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Value::String(s) => out.push(s.clone()),
                        v => return Err(format!("\"args\" entries must be strings, got {v:?}")),
                    }
                }
                out
            }
            Some(v) => return Err(format!("field \"args\" must be an array, got {v:?}")),
        };
        let config = match get(obj, "config") {
            None | Some(Value::Null) => None,
            Some(Value::Object(c)) => Some(RequestConfig {
                delta: match get(c, "delta") {
                    None | Some(Value::Null) => None,
                    Some(Value::Bool(b)) => Some(*b),
                    Some(v) => return Err(format!("config \"delta\" must be a bool, got {v:?}")),
                },
                retired: RETIRED_CONFIG
                    .iter()
                    .filter(|k| get(c, k).is_some())
                    .map(|k| k.to_string())
                    .collect(),
            }),
            Some(v) => return Err(format!("field \"config\" must be an object, got {v:?}")),
        };
        Ok(Request {
            id,
            tenant,
            op,
            path,
            program,
            args,
            config,
        })
    }

    /// Serializes the request as one JSON object (compact, stable field
    /// order; optional fields omitted when absent/empty).
    pub fn to_json(&self) -> String {
        let mut obj = vec![
            ("id".to_string(), Value::Number(self.id as f64)),
            ("tenant".to_string(), Value::String(self.tenant.clone())),
            ("op".to_string(), Value::String(self.op.clone())),
        ];
        if self.path != "<request>" {
            obj.push(("path".to_string(), Value::String(self.path.clone())));
        }
        if let Some(p) = &self.program {
            obj.push(("program".to_string(), Value::String(p.clone())));
        }
        if !self.args.is_empty() {
            obj.push((
                "args".to_string(),
                Value::Array(self.args.iter().cloned().map(Value::String).collect()),
            ));
        }
        if let Some(c) = &self.config {
            let mut cfg: Vec<(String, Value)> =
                c.retired.iter().map(|k| (k.clone(), Value::Null)).collect();
            if let Some(d) = c.delta {
                cfg.push(("delta".to_string(), Value::Bool(d)));
            }
            obj.push(("config".to_string(), Value::Object(cfg)));
        }
        serde_json::to_string(&Value::Object(obj)).expect("value serialization is infallible")
    }
}

/// One response. `output`/`stderr` carry the **exact** bytes the
/// equivalent one-shot CLI run prints, `exit` its exit code; `cache`
/// reports whether the daemon served from its content-hash cache
/// (`"hit"`, `"miss"`, or `"none"` for uncached ops).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Response {
    /// The request's id, echoed.
    pub id: u64,
    /// `false` iff the CLI would have failed with `error: ...` (exit 101).
    pub ok: bool,
    /// The CLI exit code (lint findings count; 101 on errors).
    pub exit: u8,
    /// Cache disposition: `"hit"`, `"miss"` or `"none"`.
    pub cache: String,
    /// Exact stdout bytes of the equivalent CLI run.
    pub output: String,
    /// Stderr bytes (stats summaries with timings; not byte-stable).
    pub stderr: String,
    /// The error message (what the CLI prints after `error: `), when
    /// `ok` is false.
    pub error: Option<String>,
}

impl Response {
    /// Serializes as one JSON object with a stable field order (`error`
    /// omitted when `ok`), so replayed responses diff cleanly.
    pub fn to_json(&self) -> String {
        let mut obj = vec![
            ("id".to_string(), Value::Number(self.id as f64)),
            ("ok".to_string(), Value::Bool(self.ok)),
            ("exit".to_string(), Value::Number(self.exit as f64)),
            ("cache".to_string(), Value::String(self.cache.clone())),
            ("output".to_string(), Value::String(self.output.clone())),
            ("stderr".to_string(), Value::String(self.stderr.clone())),
        ];
        if let Some(e) = &self.error {
            obj.push(("error".to_string(), Value::String(e.clone())));
        }
        serde_json::to_string(&Value::Object(obj)).expect("value serialization is infallible")
    }

    /// Parses a response frame payload.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("response is not UTF-8: {e}"))?;
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("response is not valid JSON: {e}"))?;
        let obj = v.as_object().ok_or("response must be a JSON object")?;
        let num = |key: &str| -> Result<f64, String> {
            match get(obj, key) {
                Some(Value::Number(n)) => Ok(*n),
                other => Err(format!("field {key:?} must be a number, got {other:?}")),
            }
        };
        let string = |key: &str| -> Result<String, String> {
            match get(obj, key) {
                Some(Value::String(s)) => Ok(s.clone()),
                other => Err(format!("field {key:?} must be a string, got {other:?}")),
            }
        };
        Ok(Response {
            id: num("id")? as u64,
            ok: match get(obj, "ok") {
                Some(Value::Bool(b)) => *b,
                other => return Err(format!("field \"ok\" must be a bool, got {other:?}")),
            },
            exit: num("exit")? as u8,
            cache: string("cache")?,
            output: string("output")?,
            stderr: string("stderr")?,
            error: match get(obj, "error") {
                None | Some(Value::Null) => None,
                Some(Value::String(s)) => Some(s.clone()),
                Some(v) => return Err(format!("field \"error\" must be a string, got {v:?}")),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "π payload".as_bytes()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("π payload".as_bytes())
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_frames_and_oversize_lengths_are_errors() {
        // EOF inside the header.
        let mut r = &[0u8, 0][..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // EOF inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // A length header above MAX_FRAME is rejected before allocating.
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let mut r = &huge[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn requests_round_trip_with_defaults() {
        let req = Request {
            id: 7,
            tenant: "acme".into(),
            op: "chase".into(),
            path: "examples/programs/running.ndl".into(),
            program: Some("fact: E(a,b)\n".into()),
            args: vec!["--stats".into(), "--no-timings".into()],
            config: Some(RequestConfig {
                delta: Some(true),
                retired: vec!["threads".into(), "sequential_cutoff".into()],
            }),
        };
        let parsed = Request::parse(req.to_json().as_bytes()).unwrap();
        assert_eq!(parsed, req);

        // The removed engines' fields are accepted whatever their values,
        // and recorded by name.
        let old = br#"{"op":"chase","config":{"shards":4,"threads":"x","delta":false}}"#;
        let cfg = Request::parse(old).unwrap().config.unwrap();
        assert_eq!(cfg.delta, Some(false));
        assert_eq!(cfg.retired, ["threads", "shards"]);

        // Minimal request: everything defaulted.
        let parsed = Request::parse(b"{\"op\":\"ping\"}").unwrap();
        assert_eq!(parsed.id, 0);
        assert_eq!(parsed.tenant, "default");
        assert_eq!(parsed.path, "<request>");
        assert!(parsed.program.is_none());
        assert!(parsed.args.is_empty());
        assert!(parsed.config.is_none());

        // Malformed requests are rejected with a message, not a panic.
        assert!(Request::parse(b"{}").unwrap_err().contains("\"op\""));
        assert!(Request::parse(b"not json").is_err());
        assert!(Request::parse(b"{\"op\":\"x\",\"args\":[1]}").is_err());
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response {
            id: 9,
            ok: false,
            exit: 101,
            cache: "none".into(),
            output: String::new(),
            stderr: String::new(),
            error: Some("missing program".into()),
        };
        assert_eq!(Response::parse(resp.to_json().as_bytes()).unwrap(), resp);
        let ok = Response {
            id: 1,
            ok: true,
            exit: 0,
            cache: "hit".into(),
            output: "fixpoint: 3 facts\n  E(a,b)\n".into(),
            stderr: String::new(),
            error: None,
        };
        let json = ok.to_json();
        assert!(!json.contains("\"error\""), "error omitted when ok: {json}");
        assert_eq!(Response::parse(json.as_bytes()).unwrap(), ok);
    }
}
