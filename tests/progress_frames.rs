//! Live walk telemetry, end to end: heartbeat frames must be valid
//! JSONL whose progress fractions climb monotonically, the final frame
//! must agree exactly with the walk's returned counts (pinned against
//! the |E| = 4 x86 golden class count), attaching telemetry must leave
//! served output byte-identical, and the metrics sidecar must answer
//! the daemon's `metrics` wire frame with the walk counters on it.

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

use txmm::models::{Arch, X86};
use txmm::obs::{serve_metrics, ProgressSink, Reporter, WalkProgress};
use txmm::protocol::{parse_json, Json};
use txmm::serve::{outcomes_jsonl_line, ServedOutcomes};
use txmm::session::Session;
use txmm::synth::{worker_count, EnumConfig, Walk};

fn num(v: &Json, key: &str) -> f64 {
    match v.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("expected number at {key:?}, got {other:?}"),
    }
}

fn frames_from(path: &std::path::Path) -> Vec<Json> {
    std::fs::read_to_string(path)
        .expect("progress file readable")
        .lines()
        .map(|l| {
            parse_json(l)
                .unwrap_or_else(|e| panic!("frame is not JSON ({e}): {l}"))
                .get("progress")
                .expect("frame has a progress object")
                .clone()
        })
        .collect()
}

/// One |E| = 4 x86 walk under a fast heartbeat: enough frames to check
/// monotonicity, and a final frame whose totals equal the returned
/// counts and the golden class count.
#[test]
fn heartbeat_frames_are_monotone_and_final_totals_match() {
    let progress = Arc::new(WalkProgress::new());
    let path = std::env::temp_dir().join(format!("txmm-progress-{}.jsonl", std::process::id()));
    let reporter = Reporter::start(
        progress.clone(),
        Duration::from_millis(5),
        ProgressSink::File(path.clone()),
    )
    .expect("reporter starts");
    let tm = X86::tm();
    let (n, stats) = Walk::new(&EnumConfig::hw(Arch::X86, 4))
        .consistent(&tm)
        .progress(Some(&progress))
        .count();
    reporter.finish();
    let frames = frames_from(&path);
    let _ = std::fs::remove_file(&path);

    assert!(!frames.is_empty(), "no progress frames were emitted");
    let last = frames.last().expect("final frame");
    assert_eq!(last.get("final"), Some(&Json::Bool(true)), "final marker");
    // The final frame's totals are the walk's totals.
    assert_eq!(n, 60_352, "golden |E|=4 x86 consistent class count");
    assert_eq!(num(last, "classes") as u64, n as u64);
    assert_eq!(num(last, "cuts") as u64, stats.subtrees_cut);
    assert_eq!(num(last, "skipped") as u64, stats.candidates_skipped);
    assert_eq!(
        num(last, "work_done") as u64,
        num(last, "work_total") as u64,
        "the weight plan must be fully consumed"
    );
    assert_eq!(num(last, "fraction"), 1.0);
    // Fractions, candidates and classes never move backwards.
    for pair in frames.windows(2) {
        assert!(num(&pair[1], "work_done") >= num(&pair[0], "work_done"));
        assert!(num(&pair[1], "candidates") >= num(&pair[0], "candidates"));
        assert!(num(&pair[1], "classes") >= num(&pair[0], "classes"));
    }
    // Worker lanes are present and account for every subtree.
    let workers = last.get("workers").and_then(Json::as_arr).expect("lanes");
    assert_eq!(workers.len(), worker_count().max(1));
    let jobs: f64 = workers.iter().map(|w| num(w, "jobs")).sum();
    assert_eq!(jobs as u64, num(last, "subtrees") as u64);
}

/// Serving outcome tables with telemetry attached must produce
/// byte-identical JSONL to a telemetry-free session.
#[test]
fn telemetry_leaves_served_outcomes_byte_identical() {
    use txmm::litmus::litmus_from_execution;
    use txmm::models::catalog;

    let tests = [
        ("sb", catalog::sb(None, false, false), Arch::X86),
        ("fig1", catalog::fig1(), Arch::X86),
        ("mp", catalog::mp(None, false, true), Arch::Power),
    ];
    let mut plain = Session::new();
    let mut telemetered = Session::new();
    let progress = Arc::new(WalkProgress::new());
    telemetered.set_walk_progress(Some(progress.clone()));
    for (name, x, arch) in tests {
        let t = litmus_from_execution(name, &x, arch);
        let file = format!("{name}.litmus");
        let a = plain.outcomes(&file, &t, None).expect("plain serves");
        let b = telemetered
            .outcomes(&file, &t, None)
            .expect("telemetered serves");
        assert_eq!(
            outcomes_jsonl_line(&ServedOutcomes::Report(a)),
            outcomes_jsonl_line(&ServedOutcomes::Report(b)),
            "{name}: telemetry changed the served line"
        );
    }
    let snap = progress.snapshot();
    assert!(snap.candidates > 0, "the walk never reported candidates");
    assert!(snap.done > 0 && snap.done == snap.total);
}

/// The corpus generator must emit the same files whether or not the
/// session carries telemetry (`txmm gen --progress` stdout contract).
#[test]
fn corpus_generation_is_identical_with_telemetry() {
    let plain = txmm::corpus::generate(3);
    let mut session = Session::new();
    let progress = Arc::new(WalkProgress::new());
    session.set_walk_progress(Some(progress.clone()));
    let telemetered = txmm::corpus::generate_on(&session, 3);
    assert_eq!(plain, telemetered);
    assert!(progress.snapshot().done > 0, "gen never reported progress");
}

/// The sidecar speaks the daemon's `metrics` frame: the walk counters
/// of an in-process walk are scrapeable over TCP mid-run.
#[test]
fn metrics_sidecar_exposes_walk_counters() {
    let progress = Arc::new(WalkProgress::new());
    let tm = X86::tm();
    let (_n, _stats) = Walk::new(&EnumConfig::hw(Arch::X86, 3))
        .consistent(&tm)
        .workers(2)
        .progress(Some(&progress))
        .count();
    let sidecar = serve_metrics("127.0.0.1:0").expect("sidecar binds");
    let mut stream =
        BufReader::new(std::net::TcpStream::connect(sidecar.addr()).expect("sidecar reachable"));
    stream
        .get_mut()
        .write_all(b"{\"cmd\":\"metrics\",\"format\":\"prom\"}\n")
        .expect("request sent");
    let mut body = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = stream.read_line(&mut line).expect("sidecar responds");
        if n == 0 || line.trim_end_matches('\n').is_empty() {
            break;
        }
        body.push_str(&line);
    }
    assert!(
        body.contains("txmm_walk_subtrees_total"),
        "walk counters missing from the scrape:\n{body}"
    );
    assert!(body.contains("txmm_build_info"), "build info missing");
}
