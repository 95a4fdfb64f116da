//! End-to-end observability: a client-chosen trace ID must come back on
//! the response with the per-stage span timeline, the `metrics` request
//! must serve valid Prometheus text exposition with non-zero
//! request-latency buckets, and the daemon `stats` JSON must keep every
//! key it had before the metrics registry migration.

mod common;

use std::io::BufReader;
use std::net::TcpStream;

use common::{corpus, roundtrip, start_daemon};
use txmm::protocol::{parse_json, Json, Request};

fn check_req(file: &str, src: &str, trace: Option<&str>) -> Request {
    Request::Check {
        file: file.to_string(),
        src: src.to_string(),
        models: None,
        trace: trace.map(str::to_string),
    }
}

#[test]
fn trace_id_comes_back_with_the_span_timeline() {
    let (addr, server) = start_daemon(2);
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let (file, src) = corpus().remove(0);

    // Untraced response: no trace metadata at all.
    let plain = roundtrip(&mut stream, &check_req(&file, &src, None));
    assert_eq!(plain.len(), 1);
    assert!(!plain[0].contains("trace_id"), "{}", plain[0]);
    assert!(!plain[0].contains("spans"), "{}", plain[0]);

    // Traced check: same payload plus trace_id + spans, still one JSON
    // line.
    let traced = roundtrip(&mut stream, &check_req(&file, &src, Some("req-0042")));
    assert_eq!(traced.len(), 1);
    let line = &traced[0];
    assert!(
        line.starts_with(plain[0].strip_suffix('}').unwrap()),
        "trace metadata extends the plain payload:\n{line}\n{}",
        plain[0]
    );
    let v = parse_json(line).expect("traced line is JSON");
    assert_eq!(v.get("trace_id").and_then(Json::as_str), Some("req-0042"));
    let spans = v.get("spans").and_then(Json::as_arr).expect("spans array");
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("span").and_then(Json::as_str).expect("span name"))
        .collect();
    for stage in [
        "serve.parse",
        "serve.convert",
        "serve.verdict",
        "serve.observe",
    ] {
        assert!(names.contains(&stage), "{stage} missing from {names:?}");
    }
    // vm.check fires inside the verdict stage when a .cat model runs;
    // with native models only it may be absent — but every span must
    // carry offsets sorted by start.
    let starts: Vec<f64> = spans
        .iter()
        .map(|s| match s.get("start_micros") {
            Some(Json::Num(n)) => *n,
            other => panic!("start_micros = {other:?}"),
        })
        .collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");

    // Traced outcomes request: the echo rides on outcome lines too.
    let traced = roundtrip(
        &mut stream,
        &Request::Outcomes {
            file: file.clone(),
            src: src.clone(),
            models: None,
            max_candidates: None,
            trace: Some("req-0043".into()),
        },
    );
    let v = parse_json(&traced[0]).expect("traced outcomes line is JSON");
    assert_eq!(v.get("trace_id").and_then(Json::as_str), Some("req-0043"));
    let spans = v.get("spans").and_then(Json::as_arr).expect("spans array");
    assert!(
        spans
            .iter()
            .any(|s| s.get("span").and_then(Json::as_str) == Some("serve.outcomes")),
        "{traced:?}"
    );

    // Error responses echo the trace too.
    let traced_err = roundtrip(
        &mut stream,
        &check_req("bad.litmus", "t (Marvel)\n", Some("req-0044")),
    );
    assert!(traced_err[0].contains("\"error\""), "{}", traced_err[0]);
    assert!(
        traced_err[0].contains("\"trace_id\":\"req-0044\""),
        "{}",
        traced_err[0]
    );

    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
}

/// A tiny Prometheus text-exposition parser: validates comment lines,
/// sample-line shape, label syntax, and returns the samples.
fn parse_exposition(lines: &[String]) -> Vec<(String, String, f64)> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !s.starts_with(|c: char| c.is_ascii_digit())
    }
    let mut samples = Vec::new();
    let mut typed: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.splitn(3, ' ');
            let kind = words.next().expect("comment kind");
            let name = words.next().unwrap_or_default();
            let text = words.next().unwrap_or_default();
            assert!(
                kind == "HELP" || kind == "TYPE",
                "unknown comment kind: {line}"
            );
            assert!(valid_name(name), "bad metric name in comment: {line}");
            if kind == "TYPE" {
                assert!(
                    matches!(text, "counter" | "gauge" | "histogram"),
                    "bad TYPE: {line}"
                );
                typed.push((name.to_string(), text.to_string()));
            }
            continue;
        }
        // Sample line: name{labels} value | name value.
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            assert_eq!(value, "+Inf", "unparseable sample value: {line}");
            f64::INFINITY
        });
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => {
                let l = l.strip_suffix('}').expect("closing brace");
                for pair in split_labels(l) {
                    let (k, v) = pair.split_once('=').expect("label k=v");
                    assert!(valid_name(k), "bad label name: {line}");
                    assert!(
                        v.starts_with('"') && v.ends_with('"'),
                        "unquoted label value: {line}"
                    );
                }
                (n.to_string(), l.to_string())
            }
            None => (series.to_string(), String::new()),
        };
        assert!(
            valid_name(
                name.trim_end_matches("_bucket")
                    .trim_end_matches("_sum")
                    .trim_end_matches("_count")
            ),
            "bad sample name: {line}"
        );
        // Every sample belongs to a # TYPE'd family.
        assert!(
            typed.iter().any(|(n, _)| {
                name == *n
                    || name == format!("{n}_bucket")
                    || name == format!("{n}_sum")
                    || name == format!("{n}_count")
            }),
            "sample without TYPE: {line}"
        );
        samples.push((name, labels, value));
    }
    samples
}

/// Split a label block on top-level commas (quoted values may contain
/// escaped quotes but never raw newlines).
fn split_labels(l: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_str, mut escape) = (0usize, false, false);
    for (i, c) in l.char_indices() {
        match c {
            _ if escape => escape = false,
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&l[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < l.len() {
        out.push(&l[start..]);
    }
    out
}

#[test]
fn metrics_request_serves_valid_prometheus_exposition() {
    let (addr, server) = start_daemon(2);
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));

    // Warm the daemon: two passes over a slice of the corpus.
    let slice: Vec<(String, String)> = corpus().into_iter().take(8).collect();
    for _ in 0..2 {
        for (file, src) in &slice {
            let got = roundtrip(&mut stream, &check_req(file, src, None));
            assert_eq!(got.len(), 1);
        }
    }

    let page = roundtrip(&mut stream, &Request::Metrics { prom: true });
    assert!(!page.is_empty());
    let samples = parse_exposition(&page);

    // The request-latency histogram has non-zero check buckets, and the
    // cumulative bucket counts are monotone with +Inf == _count.
    let check_buckets: Vec<&(String, String, f64)> = samples
        .iter()
        .filter(|(n, l, _)| {
            n == "txmm_request_duration_microseconds_bucket" && l.contains("cmd=\"check\"")
        })
        .collect();
    assert!(!check_buckets.is_empty(), "no check latency buckets");
    let counts: Vec<f64> = check_buckets.iter().map(|(_, _, v)| *v).collect();
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    assert!(
        *counts.last().unwrap() >= 16.0,
        "16 checks served: {counts:?}"
    );
    let inf = check_buckets
        .iter()
        .find(|(_, l, _)| l.contains("le=\"+Inf\""))
        .expect("+Inf bucket closes the histogram");
    let count = samples
        .iter()
        .find(|(n, l, _)| {
            n == "txmm_request_duration_microseconds_count" && l.contains("cmd=\"check\"")
        })
        .expect("_count sample");
    assert_eq!(inf.2, count.2, "+Inf bucket equals _count");

    // The migrated engine counters surface as registry families.
    for family in [
        "txmm_verdict_cache_hits_total",
        "txmm_verdict_cache_misses_total",
        "txmm_session_interned_executions",
        "txmm_span_duration_microseconds",
        "txmm_shard_queue_wait_microseconds",
        "txmm_requests_total",
        "txmm_prune_delta_answers_total",
        "txmm_prune_fallback_total",
        "txmm_prune_batch_size",
    ] {
        assert!(
            page.iter()
                .any(|l| l.starts_with(&format!("# TYPE {family} "))),
            "family {family} missing from exposition"
        );
    }
    // The warm pass hit the verdict cache.
    let hits: f64 = samples
        .iter()
        .filter(|(n, _, _)| n == "txmm_verdict_cache_hits_total")
        .map(|(_, _, v)| *v)
        .sum();
    assert!(hits >= 8.0, "warm pass produced verdict hits: {hits}");

    // JSON flavour: one line, parseable, same histogram reachable.
    let json = roundtrip(&mut stream, &Request::Metrics { prom: false });
    assert_eq!(json.len(), 1);
    let v = parse_json(&json[0]).expect("metrics JSON parses");
    let metrics = v.get("metrics").expect("metrics object");
    let dur = metrics
        .get("txmm_request_duration_microseconds{cmd=\"check\"}")
        .expect("check duration histogram in JSON dump");
    match dur.get("count") {
        Some(Json::Num(n)) => assert!(*n >= 16.0, "{}", json[0]),
        other => panic!("histogram count = {other:?}"),
    }

    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
}

#[test]
fn stats_json_keeps_every_preexisting_key() {
    let (addr, server) = start_daemon(2);
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let slice: Vec<(String, String)> = corpus().into_iter().take(6).collect();
    for _ in 0..2 {
        for (file, src) in &slice {
            roundtrip(&mut stream, &check_req(file, src, None));
        }
        for (file, src) in slice.iter().take(2) {
            roundtrip(
                &mut stream,
                &Request::Outcomes {
                    file: file.clone(),
                    src: src.clone(),
                    models: None,
                    max_candidates: None,
                    trace: None,
                },
            );
        }
    }
    let stats = roundtrip(&mut stream, &Request::Stats);
    assert_eq!(stats.len(), 1);
    let v = parse_json(&stats[0]).expect("stats is JSON");

    // Compatibility pin: every key the stats answer had before the
    // registry migration must still be present at the top level, but
    // for `compile_hits`, `compile_misses`, `compile_hit_rate` and
    // `compile_entries`, which were removed together with the
    // per-event-count `.cat` program cache they counted...
    for key in [
        "shards",
        "served",
        "failures",
        "interned",
        "verdict_hits",
        "verdict_misses",
        "verdict_hit_rate",
        "observability_hits",
        "observability_misses",
        "observability_hit_rate",
        "outcome_entries",
        "outcome_hits",
        "outcome_misses",
        "outcome_hit_rate",
        "outcome_candidates",
        "outcome_classes",
        "compile_micros",
        "prune_subtrees_cut",
        "prune_candidates_skipped",
        "prune_oracle_calls",
        "prune_oracle_micros",
        "prune_delta_answers",
        "prune_fallbacks",
        "prune_batches",
        "prune_batched_placements",
        "stage_micros",
        "per_shard",
    ] {
        assert!(v.get(key).is_some(), "stats lost key {key:?}: {}", stats[0]);
    }
    // ...the stage split keeps its four stages (plus the new `other`)...
    let stages = v.get("stage_micros").expect("stage_micros");
    for key in ["parse", "convert", "verdict", "observe", "other"] {
        assert!(stages.get(key).is_some(), "stage_micros lost {key:?}");
    }
    // ...and the per-shard entries keep their pre-migration fields
    // (the same three `compile_*` counters aside).
    let per_shard = v.get("per_shard").and_then(Json::as_arr).expect("array");
    assert_eq!(per_shard.len(), 2);
    for shard in per_shard {
        for key in [
            "shard",
            "served",
            "depth",
            "interned",
            "verdict_hits",
            "verdict_misses",
            "outcome_entries",
            "outcome_hits",
            "outcome_misses",
            "compile_micros",
            "prune_subtrees_cut",
            "prune_candidates_skipped",
            "prune_oracle_calls",
            "prune_oracle_micros",
            "prune_delta_answers",
            "prune_fallbacks",
            "prune_batches",
            "prune_batched_placements",
        ] {
            assert!(shard.get(key).is_some(), "per_shard lost {key:?}");
        }
    }
    // Every counter of the total is also a per-shard counter, and the
    // shards' values sum to it (only `shards`, `failures` and the hit
    // rates are pool-level).
    let Json::Obj(top) = &v else {
        panic!("stats is an object")
    };
    let counters: Vec<(&str, f64)> = top
        .iter()
        .filter(|(k, _)| !["shards", "failures"].contains(&k.as_str()) && !k.ends_with("_hit_rate"))
        .filter_map(|(k, v)| match v {
            Json::Num(n) => Some((k.as_str(), *n)),
            _ => None,
        })
        .collect();
    assert!(counters.len() >= 20, "{counters:?}");
    for (key, total) in counters {
        let per_shard: Vec<f64> = per_shard
            .iter()
            .map(|shard| match shard.get(key) {
                Some(Json::Num(n)) => *n,
                other => panic!("per_shard {key:?} = {other:?}"),
            })
            .collect();
        assert_eq!(per_shard.iter().sum::<f64>(), total, "{key}: {per_shard:?}");
    }

    // The new slowest-requests ring reports real traffic with wall
    // times (the checks and outcomes above all went through it).
    let slowest = v.get("slowest").and_then(Json::as_arr).expect("slowest");
    assert!(!slowest.is_empty(), "{}", stats[0]);
    for entry in slowest {
        assert!(entry.get("what").and_then(Json::as_str).is_some());
        assert!(matches!(entry.get("micros"), Some(Json::Num(_))));
    }
    let micros: Vec<f64> = slowest
        .iter()
        .map(|e| match e.get("micros") {
            Some(Json::Num(n)) => *n,
            other => panic!("micros = {other:?}"),
        })
        .collect();
    assert!(
        micros.windows(2).all(|w| w[0] >= w[1]),
        "slowest-first: {micros:?}"
    );

    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
}
