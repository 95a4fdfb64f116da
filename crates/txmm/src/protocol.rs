//! The daemon's wire protocol: line-delimited JSON requests over a TCP
//! or Unix stream socket.
//!
//! One request per line; each request is answered with one or more
//! JSONL lines followed by an **empty line** (the frame terminator), so
//! clients can stream responses without knowing their length up front:
//!
//! ```json
//! {"cmd":"check","file":"sb.litmus","src":"sb (x86)\n..."}
//! {"cmd":"batch","dir":"target/litmus-corpus","models":["SC","x86"]}
//! {"cmd":"models"}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! `check` and `batch` payload lines are produced by
//! [`crate::serve::jsonl_line`], so they are byte-identical to the
//! stdout of one-shot `txmm serve` over the same tests. Malformed
//! requests answer a single `{"error":"..."}` line (plus terminator)
//! and leave the connection open.
//!
//! The protocol layer is dependency-free: requests are parsed with the
//! small JSON reader below rather than an external serializer.

use std::fmt;

use txmm_obs::json_escape;

/// A parsed JSON value (the subset a request can contain).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A wire-protocol error (malformed JSON or a malformed request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ProtocolError> {
    Err(ProtocolError(msg.into()))
}

/// The deepest array/object nesting [`parse_json`] accepts. Wire frames
/// nest a few levels; the reader recurses once per level, so the bound
/// keeps a line of `[`s from overflowing the connection thread's stack.
const MAX_DEPTH: usize = 64;

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ProtocolError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ProtocolError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return err("unterminated string");
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return err("unterminated escape");
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| ProtocolError("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| ProtocolError("bad \\u escape".into()))?;
                            self.i += 4;
                            // Surrogate pairs are outside what our own
                            // encoder emits; reject rather than decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| ProtocolError("bad \\u code point".into()))?;
                            out.push(c);
                        }
                        other => return err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting here.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.b.len() && self.b[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| ProtocolError("invalid UTF-8 in string".into()))?;
                    out.push_str(s);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ProtocolError> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| ProtocolError(format!("bad number at byte {start}")))
    }

    /// One value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, ProtocolError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            )),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    fields.push((k, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ => err(format!("unexpected input at byte {}", self.i)),
        }
    }
}

/// Parse one JSON value from a string (trailing whitespace allowed).
pub fn parse_json(s: &str) -> Result<Json, ProtocolError> {
    let mut r = Reader {
        b: s.as_bytes(),
        i: 0,
    };
    let v = r.value(0)?;
    r.skip_ws();
    if r.i != s.len() {
        return err(format!("trailing input at byte {}", r.i));
    }
    Ok(v)
}

/// A request from a client, one per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Serve one litmus source; answers one `jsonl_line` payload line.
    Check {
        /// File name used in the response line.
        file: String,
        /// Litmus source text.
        src: String,
        /// Restrict verdicts to these model names (all when absent).
        models: Option<Vec<String>>,
        /// Client-chosen trace ID; when present the response line is
        /// annotated with `trace_id` and the per-stage span timeline.
        trace: Option<String>,
    },
    /// Serve every `.litmus` file in a server-side directory; answers
    /// one payload line per file, in sorted file order.
    Batch {
        /// Directory path, resolved on the server.
        dir: String,
        /// Restrict verdicts to these model names (all when absent).
        models: Option<Vec<String>>,
    },
    /// Enumerate a program's candidate executions and answer the
    /// per-model allowed final-state table; one payload line.
    Outcomes {
        /// File name used in the response line.
        file: String,
        /// Litmus source text.
        src: String,
        /// Restrict the table to these model names (all when absent).
        models: Option<Vec<String>>,
        /// Raise (or lower) the candidate-execution cap for this
        /// request; the server default applies when absent. Oversized
        /// programs still answer the same structured refusal.
        max_candidates: Option<u128>,
        /// Client-chosen trace ID; when present the response line is
        /// annotated with `trace_id` and the per-stage span timeline.
        trace: Option<String>,
    },
    /// [`Request::Outcomes`] over every `.litmus` file in a server-side
    /// directory, in sorted file order.
    OutcomesBatch {
        /// Directory path, resolved on the server.
        dir: String,
        /// Restrict the table to these model names (all when absent).
        models: Option<Vec<String>>,
        /// Per-request candidate-execution cap (server default when
        /// absent).
        max_candidates: Option<u128>,
    },
    /// Re-resolve the daemon's `--cat` files into every shard Session
    /// without a restart; answers one `{"ok":"reload",...}` line, or a
    /// structured `{"error":...,"code":"reload"}` frame on failure.
    Reload,
    /// List the registered models.
    Models,
    /// Cache hit-rates, per-shard depths (requests waiting for or
    /// holding the shard), walk progress and stage timings; answered
    /// without waiting for in-flight requests.
    Stats,
    /// The process-wide metrics registry: one JSON line by default, or
    /// Prometheus text exposition (multi-line) with `"format":"prom"`.
    Metrics {
        /// Answer Prometheus text exposition instead of JSON.
        prom: bool,
    },
    /// Stop accepting connections and exit once in-flight requests
    /// drain.
    Shutdown,
}

fn models_field(v: &Json) -> Result<Option<Vec<String>>, ProtocolError> {
    match v.get("models") {
        None | Some(Json::Null) => Ok(None),
        Some(m) => {
            let arr = m
                .as_arr()
                .ok_or_else(|| ProtocolError("\"models\" must be an array".into()))?;
            arr.iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| ProtocolError("\"models\" entries must be strings".into()))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some)
        }
    }
}

fn max_candidates_field(v: &Json) -> Result<Option<u128>, ProtocolError> {
    match v.get("max_candidates") {
        None | Some(Json::Null) => Ok(None),
        // The reader parses numbers as f64; integers stay exact up to
        // 2^53, far beyond any cap a server could serve anyway.
        Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 && *n <= 9.007199254740992e15 => {
            Ok(Some(*n as u128))
        }
        Some(_) => Err(ProtocolError(
            "\"max_candidates\" must be a positive integer".into(),
        )),
    }
}

fn trace_field(v: &Json) -> Result<Option<String>, ProtocolError> {
    match v.get("trace_id") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ProtocolError("\"trace_id\" must be a string".into())),
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, ProtocolError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtocolError(format!("missing string field \"{key}\"")))
}

impl Request {
    /// Parse one request line.
    pub(crate) fn parse(line: &str) -> Result<Request, ProtocolError> {
        let v = parse_json(line)?;
        let cmd = str_field(&v, "cmd")?;
        match cmd.as_str() {
            "check" => Ok(Request::Check {
                file: str_field(&v, "file")?,
                src: str_field(&v, "src")?,
                models: models_field(&v)?,
                trace: trace_field(&v)?,
            }),
            "batch" => Ok(Request::Batch {
                dir: str_field(&v, "dir")?,
                models: models_field(&v)?,
            }),
            // `outcomes` carries either a source (`file` + `src`) or a
            // server-side directory (`dir`).
            "outcomes" => {
                if v.get("dir").is_some() {
                    Ok(Request::OutcomesBatch {
                        dir: str_field(&v, "dir")?,
                        models: models_field(&v)?,
                        max_candidates: max_candidates_field(&v)?,
                    })
                } else {
                    Ok(Request::Outcomes {
                        file: str_field(&v, "file")?,
                        src: str_field(&v, "src")?,
                        models: models_field(&v)?,
                        max_candidates: max_candidates_field(&v)?,
                        trace: trace_field(&v)?,
                    })
                }
            }
            "reload" => Ok(Request::Reload),
            "models" => Ok(Request::Models),
            "stats" => Ok(Request::Stats),
            "metrics" => match v.get("format") {
                None | Some(Json::Null) => Ok(Request::Metrics { prom: false }),
                Some(Json::Str(f)) if f == "prom" => Ok(Request::Metrics { prom: true }),
                Some(Json::Str(f)) => err(format!("unknown metrics format {f:?}")),
                Some(_) => err("\"format\" must be a string"),
            },
            "shutdown" => Ok(Request::Shutdown),
            other => err(format!("unknown command {other:?}")),
        }
    }

    /// Render as a request line (no trailing newline) — the client
    /// half of `Request::parse`.
    pub fn to_line(&self) -> String {
        fn models_suffix(models: &Option<Vec<String>>) -> String {
            match models {
                None => String::new(),
                Some(ms) => format!(
                    ",\"models\":[{}]",
                    ms.iter()
                        .map(|m| format!("\"{}\"", json_escape(m)))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            }
        }
        fn cap_suffix(cap: &Option<u128>) -> String {
            match cap {
                None => String::new(),
                Some(c) => format!(",\"max_candidates\":{c}"),
            }
        }
        fn trace_suffix(trace: &Option<String>) -> String {
            match trace {
                None => String::new(),
                Some(t) => format!(",\"trace_id\":\"{}\"", json_escape(t)),
            }
        }
        match self {
            Request::Check {
                file,
                src,
                models,
                trace,
            } => format!(
                "{{\"cmd\":\"check\",\"file\":\"{}\",\"src\":\"{}\"{}{}}}",
                json_escape(file),
                json_escape(src),
                models_suffix(models),
                trace_suffix(trace)
            ),
            Request::Batch { dir, models } => format!(
                "{{\"cmd\":\"batch\",\"dir\":\"{}\"{}}}",
                json_escape(dir),
                models_suffix(models)
            ),
            Request::Outcomes {
                file,
                src,
                models,
                max_candidates,
                trace,
            } => format!(
                "{{\"cmd\":\"outcomes\",\"file\":\"{}\",\"src\":\"{}\"{}{}{}}}",
                json_escape(file),
                json_escape(src),
                models_suffix(models),
                cap_suffix(max_candidates),
                trace_suffix(trace)
            ),
            Request::OutcomesBatch {
                dir,
                models,
                max_candidates,
            } => format!(
                "{{\"cmd\":\"outcomes\",\"dir\":\"{}\"{}{}}}",
                json_escape(dir),
                models_suffix(models),
                cap_suffix(max_candidates)
            ),
            Request::Reload => "{\"cmd\":\"reload\"}".into(),
            Request::Models => "{\"cmd\":\"models\"}".into(),
            Request::Stats => "{\"cmd\":\"stats\"}".into(),
            Request::Metrics { prom: false } => "{\"cmd\":\"metrics\"}".into(),
            Request::Metrics { prom: true } => "{\"cmd\":\"metrics\",\"format\":\"prom\"}".into(),
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".into(),
        }
    }
}

/// An `{"error":...}` response line.
pub(crate) fn error_line(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json_escape(msg))
}

/// The structured busy response a connection-limited daemon answers
/// (and immediately closes) an over-limit connection with: machine
/// code, human message, and the limit so clients can size their retry
/// policy.
pub fn busy_line(max_conns: usize) -> String {
    format!(
        "{{\"error\":\"server busy: connection limit {max_conns} reached\",\
         \"code\":\"busy\",\"max_conns\":{max_conns}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_values() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":"x\n\"y\"","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\n\"y\""));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[2], Json::Num(-3.0));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse_json("\"caf\u{e9} \\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("café A"));
    }

    #[test]
    fn request_roundtrips_through_its_own_renderer() {
        let reqs = [
            Request::Check {
                file: "a b.litmus".into(),
                src: "sb (x86)\nthread 0:\n  x <- 1\nTest: x = 1\n".into(),
                models: Some(vec!["SC".into(), "x86-tm.cat".into()]),
                trace: None,
            },
            Request::Check {
                file: "plain".into(),
                src: "s".into(),
                models: None,
                trace: Some("req-42 \"quoted\"".into()),
            },
            Request::Batch {
                dir: "target/corpus".into(),
                models: None,
            },
            Request::Outcomes {
                file: "sb.litmus".into(),
                src: "sb (x86)\nthread 0:\n  x <- 1\n".into(),
                models: Some(vec!["SC".into()]),
                max_candidates: None,
                trace: Some("trace-7".into()),
            },
            Request::Outcomes {
                file: "big.litmus".into(),
                src: "big (x86)\nthread 0:\n  x <- 1\n".into(),
                models: None,
                max_candidates: Some(1 << 20),
                trace: None,
            },
            Request::OutcomesBatch {
                dir: "target/corpus".into(),
                models: None,
                max_candidates: Some(131072),
            },
            Request::Reload,
            Request::Models,
            Request::Stats,
            Request::Metrics { prom: false },
            Request::Metrics { prom: true },
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_named() {
        assert!(Request::parse("{\"cmd\":\"fly\"}")
            .unwrap_err()
            .to_string()
            .contains("unknown command"));
        assert!(Request::parse("{\"cmd\":\"check\"}")
            .unwrap_err()
            .to_string()
            .contains("missing string field \"file\""));
        assert!(Request::parse("not json").is_err());
        // Nesting is bounded, so a line of brackets cannot exhaust the
        // stack; the bound still admits any realistic request.
        let deep = "[".repeat(200_000);
        assert!(Request::parse(&deep)
            .unwrap_err()
            .to_string()
            .contains("nesting deeper than 64"));
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nest(MAX_DEPTH + 1)).is_err());
        assert!(
            Request::parse("{\"cmd\":\"check\",\"file\":\"f\",\"src\":\"s\",\"models\":3}")
                .is_err()
        );
        assert!(
            Request::parse("{\"cmd\":\"check\",\"file\":\"f\",\"src\":\"s\",\"trace_id\":7}")
                .unwrap_err()
                .to_string()
                .contains("trace_id")
        );
        assert!(Request::parse("{\"cmd\":\"metrics\",\"format\":\"xml\"}")
            .unwrap_err()
            .to_string()
            .contains("unknown metrics format"));
        for bad in ["0", "-4", "1.5", "\"many\"", "1e300"] {
            let line = format!(
                "{{\"cmd\":\"outcomes\",\"file\":\"f\",\"src\":\"s\",\"max_candidates\":{bad}}}"
            );
            assert!(
                Request::parse(&line)
                    .unwrap_err()
                    .to_string()
                    .contains("max_candidates"),
                "{bad}"
            );
        }
    }

    #[test]
    fn error_lines_escape() {
        assert_eq!(
            error_line("bad \"thing\"\n"),
            "{\"error\":\"bad \\\"thing\\\"\\n\"}"
        );
    }
}
