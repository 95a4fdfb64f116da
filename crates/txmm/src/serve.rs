//! Batch litmus serving: answer model verdicts and hardware-oracle
//! observability for whole directories of litmus files from one
//! long-lived [`Session`], streaming results as JSONL.
//!
//! One line per test (deterministic — timing and cache metadata live in
//! [`TestReport`] and the daemon's `stats` answer, not on the data
//! line, so repeated and concurrently-served runs are byte-identical):
//!
//! ```json
//! {"file":"01-sb.litmus","name":"sb","arch":"x86","events":4,
//!  "verdicts":{"SC":{"consistent":false,"violations":["Order"]},
//!              "x86":{"consistent":true,"violations":[]}},
//!  "observable":true}
//! ```
//!
//! Failures (unreadable file, parse error, test not identifying a
//! well-formed execution) keep the stream going:
//!
//! ```json
//! {"file":"broken.litmus","error":"litmus parse error on line 3: ..."}
//! ```
//!
//! Serving one test is a four-stage pipeline — *parse* (litmus text →
//! AST), *convert* (AST → pinned candidate execution), *verdict*
//! (cached model checking) and *observe* (cached hardware simulation) —
//! and the stages are exposed separately (`parse_request` /
//! `check_parsed`) so the socket daemon can parse and convert before
//! it takes a Session shard's lock, and hold the lock only for the
//! verdict and observe stages. Each stage is timed on its own, on the
//! thread that runs it (for a single request, its connection thread);
//! the daemon books its wait for the shard lock under
//! [`StageMicros::other`].

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use txmm_core::Execution;
use txmm_hwsim::{Outcome, OutcomeSet};
use txmm_litmus::{execution_from_litmus, parse_litmus, LitmusTest};
use txmm_models::{Arch, Verdict};
use txmm_obs::json_escape;

use crate::outcomes::OutcomeReport;
use crate::session::{ModelRef, Session};

/// Per-stage serving times for one test, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMicros {
    /// Litmus text → AST.
    pub parse: u64,
    /// AST → pinned candidate execution.
    pub convert: u64,
    /// Model checking (including verdict-cache lookups).
    pub verdict: u64,
    /// Hardware-simulator observability (including its cache lookups).
    pub observe: u64,
    /// Everything between the named stages: report assembly, stats
    /// snapshots, and (under the daemon) the wait for the shard lock.
    /// Kept explicit so the stages always sum to the recorded
    /// end-to-end time instead of silently under-reporting.
    pub other: u64,
}

impl StageMicros {
    /// Total serving time across every stage, `other` included.
    pub(crate) fn total(&self) -> u64 {
        self.parse + self.convert + self.verdict + self.observe + self.other
    }

    /// Attribute the gap between an end-to-end measurement and the
    /// already-recorded stages to `other`, restoring the invariant
    /// `total() == end_to_end` (saturating: a shorter measurement —
    /// clock skew across threads — adds nothing).
    pub(crate) fn absorb_gap(&mut self, end_to_end: u64) {
        self.other += end_to_end.saturating_sub(self.total());
    }
}

/// A litmus test parsed and converted, ready for the checking stages.
/// The daemon builds it before it locks a Session shard, and routes by
/// its execution's canonical key.
pub(crate) struct ParsedTest {
    /// The execution's canonical key, once the daemon has routed by it;
    /// [`check_parsed`] computes it when it is `None`.
    pub key: Option<Vec<u8>>,
    /// File name (as given).
    pub file: String,
    /// Test name from the header line.
    pub name: String,
    /// Architecture from the header line.
    pub arch: Arch,
    /// The candidate execution the test pins down.
    pub exec: Execution,
    /// Parse-stage time, in microseconds.
    pub parse_micros: u64,
    /// Convert-stage time, in microseconds.
    pub convert_micros: u64,
    /// Unattributed time inside the parse/convert call (error
    /// handling, struct assembly) — flows into [`StageMicros::other`].
    pub other_micros: u64,
}

/// The served result for one litmus file.
pub struct TestReport {
    /// File name (as given).
    pub file: String,
    /// Test name from the header line.
    pub name: String,
    /// Architecture from the header line.
    pub arch: Arch,
    /// Event count of the reconstructed execution.
    pub events: usize,
    /// Per-model verdicts, in registry order.
    pub verdicts: Vec<(String, Verdict)>,
    /// Hardware-simulator observability (`None` when no simulator
    /// exists for the architecture).
    pub observable: Option<bool>,
    /// Did every requested verdict come from the verdict cache? (The
    /// stage-accurate meaning of "warm": no model was re-checked,
    /// regardless of which shard or pass interned the execution.)
    pub cached: bool,
    /// Per-stage serving times.
    pub stages: StageMicros,
}

impl TestReport {
    /// Total serving time across all stages, in microseconds.
    #[cfg(test)]
    pub(crate) fn micros(&self) -> u64 {
        self.stages.total()
    }
}

/// A test that could not be served, with the failing stage's message.
#[derive(Debug, Clone)]
pub struct TestFailure {
    /// File name (as given).
    pub file: String,
    /// What went wrong.
    pub error: String,
}

impl TestFailure {
    /// The failure's JSONL line (no trailing newline), the same for
    /// `check` and `outcomes`: `{"file":…,"error":…}`.
    pub(crate) fn jsonl_line(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"error\":\"{}\"}}",
            json_escape(&self.file),
            json_escape(&self.error)
        )
    }
}

/// A litmus file's name (as displayed) and text; an unreadable file is
/// the test's failure.
pub fn read_source(path: &Path) -> Result<(String, String), TestFailure> {
    let file = path.display().to_string();
    match std::fs::read_to_string(path) {
        Ok(src) => Ok((file, src)),
        Err(e) => Err(TestFailure {
            file,
            error: e.to_string(),
        }),
    }
}

/// The parse and convert stages: litmus text → pinned candidate
/// execution, each stage timed separately.
pub(crate) fn parse_request(file: &str, src: &str) -> Result<ParsedTest, TestFailure> {
    let whole = Instant::now();
    let span = txmm_obs::span!("serve.parse");
    let t = match parse_litmus(src) {
        Ok(t) => t,
        Err(e) => {
            return Err(TestFailure {
                file: file.to_string(),
                error: e.to_string(),
            })
        }
    };
    let parse_micros = span.finish();
    let span = txmm_obs::span!("serve.convert");
    let x = match execution_from_litmus(&t) {
        Ok(x) => x,
        Err(e) => {
            return Err(TestFailure {
                file: file.to_string(),
                error: e.to_string(),
            })
        }
    };
    let convert_micros = span.finish();
    Ok(ParsedTest {
        key: None,
        file: file.to_string(),
        name: t.name,
        arch: t.arch,
        exec: x,
        parse_micros,
        convert_micros,
        other_micros: (whole.elapsed().as_micros() as u64)
            .saturating_sub(parse_micros + convert_micros),
    })
}

/// The verdict and observe stages against one [`Session`] (or Session
/// shard). The execution is interned once, under the key the test
/// carries or one computed here, and both stages look it up by id.
/// `cached` is derived from the verdict-miss delta of exactly this
/// call, so it stays accurate when many tests interleave on a shared
/// pool.
pub(crate) fn check_parsed(
    session: &mut Session,
    t: &ParsedTest,
    models: Option<&[ModelRef]>,
) -> TestReport {
    let whole = Instant::now();
    let misses_before = session.stats().verdict_misses;
    let span = txmm_obs::span!("serve.verdict");
    let id = match &t.key {
        Some(key) => session.intern_keyed(key, &t.exec),
        None => session.intern(&t.exec),
    };
    let all: Vec<ModelRef>;
    let models = match models {
        Some(ms) => ms,
        None => {
            all = session.models().collect();
            &all
        }
    };
    // Selected (or all) models share one analysis for their cache
    // misses inside verdicts_interned.
    let verdicts: Vec<(String, Verdict)> = session
        .verdicts_interned(id, models)
        .into_iter()
        .map(|(m, v)| (session.model(m).name().to_string(), v))
        .collect();
    let cached = session.stats().verdict_misses == misses_before;
    let verdict_micros = span.finish();
    let span = txmm_obs::span!("serve.observe");
    let observable = session.observable_interned(id, t.arch);
    let observe_micros = span.finish();
    let mut stages = StageMicros {
        parse: t.parse_micros,
        convert: t.convert_micros,
        verdict: verdict_micros,
        observe: observe_micros,
        other: t.other_micros,
    };
    stages.other +=
        (whole.elapsed().as_micros() as u64).saturating_sub(verdict_micros + observe_micros);
    TestReport {
        file: t.file.clone(),
        name: t.name.clone(),
        arch: t.arch,
        events: t.exec.len(),
        verdicts,
        observable,
        cached,
        stages,
    }
}

/// Serve one litmus source text: all four stages on the caller's
/// thread.
pub fn serve_source(
    session: &mut Session,
    file: &str,
    src: &str,
    models: Option<&[ModelRef]>,
) -> Result<TestReport, TestFailure> {
    let whole = Instant::now();
    let t = parse_request(file, src)?;
    let mut r = check_parsed(session, &t, models);
    // The stages each self-account their own wall time; the residual
    // glue between the two calls lands in `other`, so r.micros()
    // equals this function's end-to-end time.
    r.stages.absorb_gap(whole.elapsed().as_micros() as u64);
    Ok(r)
}

/// Serve one litmus file from disk.
pub fn serve_file(
    session: &mut Session,
    path: &Path,
    models: Option<&[ModelRef]>,
) -> Result<TestReport, TestFailure> {
    let (file, src) = read_source(path)?;
    serve_source(session, &file, &src, models)
}

/// The `.litmus` files directly inside a directory, sorted by name.
pub fn collect_litmus_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    Ok(files)
}

/// Render one served result as a JSONL line (no trailing newline).
pub fn jsonl_line(served: &Result<TestReport, TestFailure>) -> String {
    let r = match served {
        Ok(r) => r,
        Err(f) => return f.jsonl_line(),
    };
    let verdicts = r
        .verdicts
        .iter()
        .map(|(name, v)| {
            let violations = v
                .violations()
                .iter()
                .map(|a| format!("\"{}\"", json_escape(a)))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "\"{}\":{{\"consistent\":{},\"violations\":[{}]}}",
                json_escape(name),
                v.is_consistent(),
                violations
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let observable = match r.observable {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"file\":\"{}\",\"name\":\"{}\",\"arch\":\"{}\",\"events\":{},\
         \"verdicts\":{{{}}},\"observable\":{}}}",
        json_escape(&r.file),
        json_escape(&r.name),
        json_escape(r.arch.name()),
        r.events,
        verdicts,
        observable
    )
}

/// Splice a trace echo — `trace_id`, the recorded span timeline, and a
/// drop counter when the timeline overflowed — into an already-rendered
/// JSONL object line, just before its closing brace. Data lines stay
/// byte-identical unless the client explicitly sent a `trace_id`, so
/// the daemon's determinism guarantees are untouched for everyone else.
pub(crate) fn attach_trace(line: &str, trace: &txmm_obs::Trace) -> String {
    let Some(head) = line.strip_suffix('}') else {
        return line.to_string();
    };
    let (spans, dropped) = trace.snapshot();
    let spans = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"span\":\"{}\",\"start_micros\":{},\"micros\":{}}}",
                json_escape(s.name),
                s.start_micros,
                s.micros
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let mut out = format!(
        "{head},\"trace_id\":\"{}\",\"spans\":[{spans}]",
        json_escape(trace.id())
    );
    if dropped > 0 {
        out.push_str(&format!(",\"spans_dropped\":{dropped}"));
    }
    out.push('}');
    out
}

// ---- Outcome serving ---------------------------------------------------

/// Parse a litmus source for the outcome engine. Unlike
/// [`parse_request`] this does **not** reconstruct a pinned execution —
/// the outcome engine answers programs whose postcondition pins
/// nothing (or is absent entirely).
pub(crate) fn parse_outcomes_request(file: &str, src: &str) -> Result<LitmusTest, TestFailure> {
    parse_litmus(src).map_err(|e| TestFailure {
        file: file.to_string(),
        error: e.to_string(),
    })
}

/// Serve one litmus source through the outcome engine.
pub fn serve_outcomes_source(
    session: &mut Session,
    file: &str,
    src: &str,
    models: Option<&[ModelRef]>,
) -> Result<OutcomeReport, TestFailure> {
    let t = parse_outcomes_request(file, src)?;
    session
        .outcomes(file, &t, models)
        .map_err(|error| TestFailure {
            file: file.to_string(),
            error,
        })
}

/// Render one final state as a compact JSON object: register files,
/// memory (trailing zeros trimmed), and — only when present —
/// transaction commit flags and multi-write coherence orders.
fn outcome_json(o: &Outcome) -> String {
    let regs = o
        .regs
        .iter()
        .map(|r| {
            format!(
                "[{}]",
                r.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let mem_len = o
        .memory
        .iter()
        .rposition(|&v| v != 0)
        .map(|i| i + 1)
        .unwrap_or(0);
    let mem = o.memory[..mem_len]
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut out = format!("{{\"regs\":[{regs}],\"mem\":[{mem}]");
    if !o.txn_ok.is_empty() {
        let ok = o
            .txn_ok
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(",\"ok\":[{ok}]"));
    }
    let co: Vec<String> = o
        .co_order
        .iter()
        .enumerate()
        .filter(|(_, vs)| vs.len() >= 2)
        .map(|(l, vs)| {
            format!(
                "\"{l}\":[{}]",
                vs.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
            )
        })
        .collect();
    if !co.is_empty() {
        out.push_str(&format!(",\"co\":{{{}}}", co.join(",")));
    }
    out.push('}');
    out
}

/// An allowed set as the JSON array an `outcomes` line carries; the
/// Session renders each set it stores once, with this.
pub(crate) fn outcome_set_json(set: &OutcomeSet) -> String {
    let outcomes = set.iter().map(outcome_json).collect::<Vec<_>>().join(",");
    format!("[{outcomes}]")
}

/// Render one outcome-engine result as a JSONL line (no trailing
/// newline) — deterministic, so daemon `outcomes` answers are
/// byte-identical to one-shot `txmm outcomes` over the same tests.
/// Each model's outcomes are its stored set's pre-rendered array,
/// spliced into one string sized up front.
pub fn outcomes_jsonl_line(served: &Result<OutcomeReport, TestFailure>) -> String {
    let r = match served {
        Ok(r) => r,
        Err(f) => return f.jsonl_line(),
    };
    let (file, name) = (json_escape(&r.file), json_escape(&r.name));
    let models: usize = r
        .per_model
        .iter()
        .map(|m| m.model.len() + m.allowed.json().len() + 40)
        .sum();
    let mut out = String::with_capacity(160 + file.len() + name.len() + models);
    let _ = write!(
        out,
        "{{\"file\":\"{file}\",\"name\":\"{name}\",\"arch\":\"{}\",\"events\":{},\
         \"txns\":{},\"candidates\":{},\"classes\":{},\"models\":{{",
        json_escape(r.arch.name()),
        r.events,
        r.txns,
        r.candidates,
        r.classes,
    );
    for (i, m) in r.per_model.iter().enumerate() {
        let post = match m.post_allowed {
            Some(true) => "\"allowed\"",
            Some(false) => "\"forbidden\"",
            None => "null",
        };
        let comma = if i > 0 { "," } else { "" };
        let model = json_escape(m.model);
        let _ = write!(out, "{comma}\"{model}\":{{\"post\":{post},\"outcomes\":");
        out.push_str(m.allowed.json());
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_litmus::litmus_from_execution;
    use txmm_litmus::render::pseudocode;
    use txmm_models::catalog;

    fn sb_source() -> String {
        let t = litmus_from_execution("sb", &catalog::sb(None, false, false), Arch::X86);
        pseudocode(&t)
    }

    #[test]
    fn serves_generated_source() {
        let mut s = Session::new();
        let r = serve_source(&mut s, "sb.litmus", &sb_source(), None).expect("sb must serve");
        assert_eq!(r.name, "sb");
        assert_eq!(r.arch, Arch::X86);
        assert_eq!(r.events, 4);
        assert!(!r.cached);
        assert_eq!(r.observable, Some(true));
        let sc = r.verdicts.iter().find(|(n, _)| n == "SC").unwrap();
        assert!(!sc.1.is_consistent());
        let x86 = r.verdicts.iter().find(|(n, _)| n == "x86").unwrap();
        assert!(x86.1.is_consistent());
        // Second serving of the same test hits the cache.
        let r2 =
            serve_source(&mut s, "sb.litmus", &sb_source(), None).expect("sb must serve twice");
        assert!(r2.cached);
        assert_eq!(r.verdicts.len(), r2.verdicts.len());
    }

    #[test]
    fn long_transactional_threads_get_a_verdict() {
        // One thread of 11 single-store transactions: 33 instructions,
        // past a 32-bit commit mask.
        for arch in ["ARMv8", "Power"] {
            let mut src = format!("long ({arch})\nInitially: x = 0\nthread 0:\n");
            for k in 0..11 {
                src += &format!("  txbegin (fail: ok{k} <- 0)\n  x <- {}\n  txend\n", k + 1);
            }
            src += "Test: ok0 = 1 /\\ ok10 = 1 /\\ x = 11\n";
            let mut s = Session::new();
            let r = serve_source(&mut s, "long.litmus", &src, None).expect("serves");
            assert_eq!(r.observable, Some(true), "{arch}");
        }
    }

    #[test]
    fn stage_timings_cover_the_whole_serve() {
        let mut s = Session::new();
        let t = parse_request("sb.litmus", &sb_source()).expect("parses");
        let r = check_parsed(&mut s, &t, None);
        assert_eq!(r.stages.parse, t.parse_micros);
        assert_eq!(r.stages.convert, t.convert_micros);
        assert_eq!(
            r.micros(),
            r.stages.parse
                + r.stages.convert
                + r.stages.verdict
                + r.stages.observe
                + r.stages.other
        );
        // `cached` is per-call: checking the same parsed test again on
        // the same session is a pure cache hit.
        let r2 = check_parsed(&mut s, &t, None);
        assert!(!r.cached);
        assert!(r2.cached);
    }

    #[test]
    fn absorb_gap_makes_stages_sum_to_end_to_end() {
        let mut st = StageMicros {
            parse: 10,
            convert: 5,
            verdict: 20,
            observe: 5,
            other: 2,
        };
        st.absorb_gap(50);
        assert_eq!(st.other, 10);
        assert_eq!(st.total(), 50);
        // A shorter (cross-thread-skewed) measurement adds nothing.
        st.absorb_gap(40);
        assert_eq!(st.total(), 50);
    }

    #[test]
    fn attach_trace_splices_the_span_timeline() {
        let mut s = Session::new();
        let trace = txmm_obs::Trace::new("abc-123");
        let served = txmm_obs::with_trace(Some(&trace), || {
            serve_source(&mut s, "sb.litmus", &sb_source(), None)
        });
        let plain = jsonl_line(&served);
        let traced = attach_trace(&plain, &trace);
        assert!(
            traced.starts_with(plain.strip_suffix('}').unwrap()),
            "{traced}"
        );
        assert!(traced.contains("\"trace_id\":\"abc-123\""), "{traced}");
        assert!(traced.contains("\"span\":\"serve.parse\""), "{traced}");
        assert!(traced.contains("\"span\":\"serve.verdict\""), "{traced}");
        assert!(traced.contains("\"span\":\"serve.observe\""), "{traced}");
        assert!(traced.ends_with('}') && !traced.contains('\n'), "{traced}");
        assert!(crate::protocol::parse_json(&traced).is_ok(), "{traced}");
    }

    #[test]
    fn cached_tracks_the_model_filter_not_the_arena() {
        // A test whose execution is already interned but whose
        // requested model has not been checked yet must NOT count as
        // cached — the old interned-delta definition got this wrong.
        let mut s = Session::new();
        let sc = [s.resolve("SC").unwrap()];
        let tsc = [s.resolve("TSC").unwrap()];
        let t = parse_request("sb.litmus", &sb_source()).expect("parses");
        let first = check_parsed(&mut s, &t, Some(&sc));
        assert!(!first.cached);
        let other_model = check_parsed(&mut s, &t, Some(&tsc));
        assert!(!other_model.cached, "TSC verdict was computed fresh");
        let warm = check_parsed(&mut s, &t, Some(&tsc));
        assert!(warm.cached);
    }

    #[test]
    fn failure_lines_keep_streaming() {
        let mut s = Session::new();
        let served = serve_source(&mut s, "bad.litmus", "t (Marvel)\n", None);
        let f = served.err().expect("must fail");
        assert!(f.error.contains("unknown architecture"));
        let line = jsonl_line(&Err(f));
        assert!(line.starts_with("{\"file\":\"bad.litmus\",\"error\":"));
    }

    #[test]
    fn jsonl_shape() {
        let mut s = Session::new();
        let served = serve_source(&mut s, "sb.litmus", &sb_source(), None);
        let line = jsonl_line(&served);
        assert!(line.contains("\"name\":\"sb\""));
        assert!(line.contains("\"arch\":\"x86\""));
        assert!(line.contains("\"observable\":true"));
        assert!(line.contains("\"verdicts\":{"));
        assert!(line.contains("\"SC\":{\"consistent\":false"));
        assert!(!line.contains('\n'));
        // Timing/cache metadata stays off the data line so output is
        // deterministic (the daemon relies on byte-identity).
        assert!(!line.contains("micros"));
        assert!(!line.contains("cached"));
    }

    #[test]
    fn outcomes_jsonl_shape() {
        let mut s = Session::new();
        let filter = [s.resolve("SC").unwrap(), s.resolve("x86").unwrap()];
        let served = serve_outcomes_source(&mut s, "sb.litmus", &sb_source(), Some(&filter));
        let line = outcomes_jsonl_line(&served);
        assert!(line.contains("\"name\":\"sb\""), "{line}");
        assert!(line.contains("\"candidates\":4"), "{line}");
        assert!(line.contains("\"classes\":3"), "{line}");
        assert!(line.contains("\"SC\":{\"post\":\"forbidden\""), "{line}");
        assert!(line.contains("\"x86\":{\"post\":\"allowed\""), "{line}");
        assert!(line.contains("\"regs\":[[0],[0]],\"mem\":[1,1]"), "{line}");
        assert!(!line.contains('\n'));
        assert!(crate::protocol::parse_json(&line).is_ok(), "{line}");
        // Deterministic: serving again renders the same bytes.
        let again = serve_outcomes_source(&mut s, "sb.litmus", &sb_source(), Some(&filter));
        assert_eq!(line, outcomes_jsonl_line(&again));
    }

    #[test]
    fn outcomes_serves_postcondition_free_sources() {
        // A program with no Test: line cannot be pinned (`check` path)
        // but the outcome engine still answers.
        let src = "free (x86)\nthread 0:\n  x <- 1\nthread 1:\n  r0 <- x\n";
        let mut s = Session::new();
        let sc = [s.resolve("SC").unwrap()];
        let r = serve_outcomes_source(&mut s, "free.litmus", src, Some(&sc)).expect("must serve");
        assert_eq!(r.per_model[0].post_allowed, None);
        assert_eq!(r.per_model[0].allowed.len(), 2, "r0 ∈ {{0, 1}}");
        let line = outcomes_jsonl_line(&Ok(r));
        assert!(line.contains("\"post\":null"), "{line}");
    }

    #[test]
    fn model_filter_restricts_verdicts() {
        let mut s = Session::new();
        let filter = [s.resolve("SC").unwrap(), s.resolve("TSC").unwrap()];
        let r = serve_source(&mut s, "sb.litmus", &sb_source(), Some(&filter)).expect("serves");
        assert_eq!(r.verdicts.len(), 2);
        assert_eq!(r.verdicts[0].0, "SC");
    }
}
