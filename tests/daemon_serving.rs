//! Integration tests for `txmm-serverd`: the socket daemon over the
//! sharded Session pool must answer concurrent clients byte-identically
//! to one-shot `txmm serve`, and shut down cleanly on request.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;

use common::{corpus, roundtrip, start_daemon, start_pool_daemon};
use txmm::daemon::{Daemon, ListenAddr, PoolConfig, SessionPool};
use txmm::protocol::Request;
use txmm::serve::{
    jsonl_line, outcomes_jsonl_line, serve_file, serve_outcomes_source, serve_source,
};
use txmm::session::Session;

#[test]
fn concurrent_clients_byte_identical_to_one_shot_serve() {
    let corpus = corpus();
    assert!(corpus.len() >= 50, "the full generated corpus");

    // One-shot reference lines, from a plain sequential Session.
    let mut session = Session::new();
    let expect: Vec<String> = corpus
        .iter()
        .map(|(f, s)| jsonl_line(&serve_source(&mut session, f, s, None)))
        .collect();

    let (addr, server) = start_daemon(4);

    // >= 4 concurrent clients, each checking the whole corpus over one
    // connection (interleaving shard traffic).
    let mut clients = Vec::new();
    for c in 0..5 {
        let addr = addr.clone();
        let corpus = corpus.clone();
        let expect = expect.clone();
        clients.push(thread::spawn(move || {
            let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
            for ((file, src), want) in corpus.iter().zip(&expect) {
                let got = roundtrip(
                    &mut stream,
                    &Request::Check {
                        file: file.clone(),
                        src: src.clone(),
                        models: None,
                        trace: None,
                    },
                );
                assert_eq!(got, vec![want.clone()], "client {c}: {file}");
            }
        }));
    }
    for c in clients {
        c.join().expect("client succeeds");
    }

    // stats reflects the traffic; models lists the registry.
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let stats = roundtrip(&mut stream, &Request::Stats);
    assert_eq!(stats.len(), 1);
    assert!(stats[0].contains("\"shards\":4"), "{}", stats[0]);
    assert!(stats[0].contains("\"failures\":0"), "{}", stats[0]);
    assert!(
        txmm::protocol::parse_json(&stats[0]).is_ok(),
        "stats is JSON: {}",
        stats[0]
    );
    let models = roundtrip(&mut stream, &Request::Models);
    assert!(models.iter().any(|l| l.contains("\"model\":\"x86-tm\"")));

    // Clean shutdown: acknowledged, and the accept loop exits.
    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("daemon thread exits cleanly");
}

#[test]
fn batch_request_matches_one_shot_directory_serve() {
    let dir = std::env::temp_dir().join(format!("txmm-daemon-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (i, (name, src)) in corpus().into_iter().enumerate() {
        std::fs::write(dir.join(format!("{i:02}-{name}")), src).expect("write");
    }

    // One-shot reference: serve_file over the sorted directory listing,
    // exactly what `txmm serve <dir>` prints.
    let files = txmm::serve::collect_litmus_files(&dir).expect("listing");
    let mut session = Session::new();
    let expect: Vec<String> = files
        .iter()
        .map(|f| jsonl_line(&serve_file(&mut session, f, None)))
        .collect();

    let (addr, server) = start_daemon(3);
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let got = roundtrip(
        &mut stream,
        &Request::Batch {
            dir: dir.display().to_string(),
            models: None,
        },
    );
    assert_eq!(got, expect, "batch output is byte-identical");

    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn outcomes_requests_byte_identical_to_one_shot() {
    // The daemon's `outcomes` answers must be byte-identical to the
    // one-shot engine over the same sources, with the shipped `.cat`
    // twins registered (so twins share stored sets) and at one and four
    // shards, on the pass that walks and on the pass the stored answers
    // serve, including the stats the outcome-set cache accumulates
    // along the way.
    let corpus: Vec<(String, String)> = corpus().into_iter().take(16).collect();
    let mut session = Session::with_shipped_cat();
    let expect: Vec<String> = corpus
        .iter()
        .map(|(f, s)| outcomes_jsonl_line(&serve_outcomes_source(&mut session, f, s, None)))
        .collect();

    for shards in [1, 4] {
        let (addr, server) = start_pool_daemon(&PoolConfig {
            shards,
            with_cat: true,
            ..PoolConfig::default()
        });
        let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
        for pass in 0..2 {
            for ((file, src), want) in corpus.iter().zip(&expect) {
                let got = roundtrip(
                    &mut stream,
                    &Request::Outcomes {
                        file: file.clone(),
                        src: src.clone(),
                        models: None,
                        max_candidates: None,
                        trace: None,
                    },
                );
                assert_eq!(
                    got,
                    vec![want.clone()],
                    "{shards} shards, pass {pass}: {file}"
                );
            }
        }
        // The second pass served every table from the outcome-set cache.
        let stats = roundtrip(&mut stream, &Request::Stats);
        let v = txmm::protocol::parse_json(&stats[0]).expect("stats is JSON");
        let num = |k: &str| match v.get(k) {
            Some(txmm::protocol::Json::Num(n)) => *n,
            other => panic!("stats[{k}] = {other:?}"),
        };
        assert!(num("outcome_entries") > 0.0, "{}", stats[0]);
        assert!(
            num("outcome_hits") >= num("outcome_misses"),
            "warm pass must hit: {}",
            stats[0]
        );
        assert!(
            num("outcome_candidates") >= num("outcome_classes"),
            "{}",
            stats[0]
        );
        assert!(stats[0].contains("\"outcome_hit_rate\":0."), "{}", stats[0]);
        // The oracle-backed models served their tables through the
        // pruned walk, so the prune counters tick and every shard
        // reports them (aggregate + one per shard).
        assert!(num("prune_oracle_calls") > 0.0, "{}", stats[0]);
        assert!(num("prune_oracle_micros") > 0.0, "{}", stats[0]);
        for key in [
            "\"prune_subtrees_cut\"",
            "\"prune_candidates_skipped\"",
            "\"prune_oracle_calls\"",
            "\"prune_oracle_micros\"",
            "\"prune_delta_answers\"",
            "\"prune_fallbacks\"",
            "\"prune_batches\"",
            "\"prune_batched_placements\"",
        ] {
            assert_eq!(
                stats[0].matches(key).count(),
                shards + 1,
                "{key}: {}",
                stats[0]
            );
        }

        let bye = roundtrip(&mut stream, &Request::Shutdown);
        assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
        server.join().expect("clean shutdown");
    }
}

/// Four competing writes to one location plus five reads: 4! coherence
/// orders × 5^5 rf choices = 75,000 candidate executions — past the
/// default 65,536 enumeration cap, so it can only be served by raising
/// `max_candidates` over the wire.
fn post_litmus_scale_source() -> String {
    "big (x86)\n\
     Initially: x = 0\n\
     thread 0:\n  x <- 1\n\
     thread 1:\n  x <- 2\n\
     thread 2:\n  x <- 3\n\
     thread 3:\n  x <- 4\n\
     thread 4:\n  r0 <- x\n  r1 <- x\n  r2 <- x\n  r3 <- x\n  r4 <- x\n\
     Test: 4:r0 = 0\n"
        .to_string()
}

#[test]
fn max_candidates_unlocks_post_litmus_scale_outcome_tables() {
    let (addr, server) = start_daemon(1);
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));

    // At the default cap the daemon refuses with a structured failure
    // naming both the program size and the limit.
    let refused = roundtrip(
        &mut stream,
        &Request::Outcomes {
            file: "big.litmus".into(),
            src: post_litmus_scale_source(),
            models: Some(vec!["x86".into()]),
            max_candidates: None,
            trace: None,
        },
    );
    assert!(refused[0].contains("\"error\""), "{}", refused[0]);
    assert!(refused[0].contains("75000"), "{}", refused[0]);
    assert!(refused[0].contains("65536"), "{}", refused[0]);

    // Raising the per-request cap serves the full table: the pruned
    // walk only materialises the coherent sliver of the 75,000-strong
    // candidate space.
    let served = roundtrip(
        &mut stream,
        &Request::Outcomes {
            file: "big.litmus".into(),
            src: post_litmus_scale_source(),
            models: Some(vec!["x86".into()]),
            max_candidates: Some(100_000),
            trace: None,
        },
    );
    assert!(!served[0].contains("\"error\""), "{}", served[0]);
    assert!(served[0].contains("\"candidates\":75000"), "{}", served[0]);
    assert!(served[0].contains("\"x86\":{"), "{}", served[0]);

    // The prune counters account for the part of the space the walk
    // never had to materialise.
    let stats = roundtrip(&mut stream, &Request::Stats);
    let v = txmm::protocol::parse_json(&stats[0]).expect("stats is JSON");
    let num = |k: &str| match v.get(k) {
        Some(txmm::protocol::Json::Num(n)) => *n,
        other => panic!("stats[{k}] = {other:?}"),
    };
    assert!(num("prune_subtrees_cut") > 0.0, "{}", stats[0]);
    assert_eq!(
        num("outcome_candidates") + num("prune_candidates_skipped"),
        75000.0,
        "{}",
        stats[0]
    );

    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
}

/// A daemon on `shards` shards serving `src` as the user model `probe`,
/// from a fresh file: the file, the address and the server thread.
fn probe_daemon(tag: &str, shards: usize, src: &str) -> (PathBuf, String, thread::JoinHandle<()>) {
    let dir = std::env::temp_dir().join(format!("txmm-daemon-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cat = dir.join("probe.cat");
    std::fs::write(&cat, src).expect("write cat");
    let pool = SessionPool::new(&PoolConfig {
        shards,
        cat_files: vec![cat.clone()],
        ..PoolConfig::default()
    })
    .expect("pool builds");
    let daemon = Daemon::bind(&ListenAddr::Tcp("127.0.0.1:0".into()), pool).expect("binds");
    let addr = daemon.local_addr().to_string();
    (
        cat,
        addr,
        thread::spawn(move || daemon.run().expect("daemon runs")),
    )
}

/// The corpus's plain store-buffering test.
fn plain_sb() -> (String, String) {
    corpus()
        .into_iter()
        .find(|(f, _)| f.contains("sb") && !f.contains("mfence") && !f.contains("txn"))
        .expect("sb test in the corpus")
}

/// `.cat` files past the parser's depth bound or the compiler's
/// register space: each reload answers a structured error frame, and the
/// daemon keeps serving the old program.
#[test]
fn reload_refuses_cat_files_past_the_limits() {
    let (cat, addr, server) = probe_daemon("limits", 1, "acyclic po | com as Order\n");
    let (file, src) = plain_sb();
    let check = Request::Check {
        file,
        src,
        models: Some(vec!["probe".into()]),
        trace: None,
    };
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let before = roundtrip(&mut stream, &check);
    assert!(
        before[0].contains("\"probe\":{\"consistent\":false"),
        "SC-strength probe forbids SB: {}",
        before[0]
    );

    let deep = format!(
        "acyclic {}po{} as Deep\n",
        "(".repeat(5_000),
        ")".repeat(5_000)
    );
    let long = format!("acyclic {} as Long\n", vec!["po"; 200_000].join("|"));
    let mut lets = String::from("let r0 = po\n");
    for k in 1..50_000 {
        lets += &format!("let r{k} = r{} | po\n", k - 1);
    }
    for (what, bad) in [("nesting", deep), ("chain", long), ("lets", lets)] {
        std::fs::write(&cat, bad).expect("rewrite cat");
        let err = roundtrip(&mut stream, &Request::Reload);
        assert!(err[0].starts_with("{\"error\""), "{what}: {}", err[0]);
        assert!(err[0].contains("\"code\":\"reload\""), "{what}: {}", err[0]);
        let still = roundtrip(&mut stream, &check);
        assert_eq!(still, before, "{what}: the old program keeps serving");
    }

    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cat.parent().expect("temp dir"));
}

#[test]
fn reload_swaps_cat_models_without_restart() {
    // A daemon started with --cat answers with the file's semantics;
    // rewriting the file and sending `reload` swaps the model in every
    // shard without dropping the connection, and a broken rewrite
    // answers a structured error while the old model keeps serving.
    let (cat, addr, server) = probe_daemon("reload", 2, "acyclic po | com as Order\n");
    let (file, src) = plain_sb();
    let check = Request::Outcomes {
        file: file.clone(),
        src: src.clone(),
        models: Some(vec!["probe".into()]),
        max_candidates: None,
        trace: None,
    };
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let before = roundtrip(&mut stream, &check);
    assert!(
        before[0].contains("\"probe\":{\"post\":\"forbidden\""),
        "SC-strength probe forbids SB: {}",
        before[0]
    );
    // The model's compile time is a counter series in the registry.
    let compile_nanos = |stream: &mut BufReader<TcpStream>| -> u64 {
        let page = roundtrip(stream, &Request::Metrics { prom: true });
        page.iter()
            .find_map(|l| l.strip_prefix("txmm_cat_compile_nanoseconds_total{model=\"probe\"} "))
            .expect("the probe model's compile-time series")
            .parse()
            .expect("a count")
    };
    let compiled_before = compile_nanos(&mut stream);

    // Weaken the model on disk and hot-reload.
    std::fs::write(&cat, "acyclic poloc | com as Coherence\n").expect("rewrite cat");
    let ok = roundtrip(&mut stream, &Request::Reload);
    assert_eq!(
        ok,
        vec![format!(
            "{{\"ok\":\"reload\",\"models\":[\"probe\"],\"shards\":2}}"
        )]
    );
    let after = roundtrip(&mut stream, &check);
    assert!(
        after[0].contains("\"probe\":{\"post\":\"allowed\""),
        "coherence-only probe allows SB: {}",
        after[0]
    );
    // The reload adds the new models' compile time, and the replaced
    // models' time stays in the series: a counter never falls.
    let compiled_after = compile_nanos(&mut stream);
    assert!(
        compiled_after > compiled_before,
        "compile-time series fell across reload: {compiled_before} -> {compiled_after}"
    );

    // A parse error aborts the reload with a structured frame...
    std::fs::write(&cat, "acyclic ((\n").expect("break cat");
    let err = roundtrip(&mut stream, &Request::Reload);
    assert!(err[0].starts_with("{\"error\""), "{}", err[0]);
    assert!(err[0].contains("\"code\":\"reload\""), "{}", err[0]);
    // ...and the previous model keeps serving, byte-identically.
    let still = roundtrip(&mut stream, &check);
    assert_eq!(still, after, "old model keeps serving after failed reload");

    // Compile time surfaces in stats: every shard compiled the model at
    // start and again at the reload. There is no program cache to
    // count hits, misses or entries of.
    let stats = roundtrip(&mut stream, &Request::Stats);
    let v = txmm::protocol::parse_json(&stats[0]).expect("stats is JSON");
    let num = |k: &str| match v.get(k) {
        Some(txmm::protocol::Json::Num(n)) => *n,
        other => panic!("stats[{k}] = {other:?}"),
    };
    assert!(num("compile_micros") > 0.0, "{}", stats[0]);
    for gone in [
        "compile_hits",
        "compile_misses",
        "compile_hit_rate",
        "compile_entries",
    ] {
        assert!(v.get(gone).is_none(), "{gone}: {}", stats[0]);
    }
    // Both shards report the per-shard compile fields (aggregate + 2).
    assert_eq!(
        stats[0].matches("\"compile_micros\"").count(),
        3,
        "{}",
        stats[0]
    );

    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cat.parent().expect("temp dir"));
}

#[test]
fn connection_limit_returns_structured_busy_error() {
    let pool = SessionPool::new(&PoolConfig {
        shards: 1,
        ..PoolConfig::default()
    })
    .expect("pool builds");
    let daemon = Daemon::bind(&ListenAddr::Tcp("127.0.0.1:0".into()), pool)
        .expect("binds")
        .with_max_conns(1);
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run().expect("daemon runs"));

    // First connection occupies the single slot (and proves it serves).
    let mut first = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let models = roundtrip(&mut first, &Request::Models);
    assert!(!models.is_empty());

    // Second connection is refused with one structured busy frame and a
    // close — not a hang, not a bare disconnect.
    let mut second = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let mut line = String::new();
    second.read_line(&mut line).expect("busy line");
    let busy = line.trim_end();
    assert_eq!(busy, txmm::protocol::busy_line(1), "{busy}");
    let v = txmm::protocol::parse_json(busy).expect("busy line is JSON");
    assert_eq!(v.get("code").and_then(|c| c.as_str()), Some("busy"));
    assert!(busy.contains("\"max_conns\":1"));
    line.clear();
    second.read_line(&mut line).expect("terminator");
    assert_eq!(line, "\n");
    line.clear();
    let n = second.read_line(&mut line).expect("eof");
    assert_eq!(n, 0, "over-limit connection is closed after the frame");

    // The occupied slot still serves; freeing it re-admits clients.
    let models = roundtrip(&mut first, &Request::Models);
    assert!(!models.is_empty());
    drop(first);
    let mut third = loop {
        // The slot frees when the handler notices the close (bounded by
        // its read timeout); probe with `models` until admitted — a
        // refused connection answers the busy frame instead.
        let mut c = BufReader::new(TcpStream::connect(&addr).expect("connect"));
        c.get_mut()
            .write_all(format!("{}\n", Request::Models.to_line()).as_bytes())
            .expect("send probe");
        let mut l = String::new();
        c.read_line(&mut l).expect("first line");
        if l.contains("\"code\":\"busy\"") {
            thread::sleep(std::time::Duration::from_millis(100));
            continue;
        }
        assert!(l.contains("\"model\""), "{l}");
        // Drain the rest of the models frame, then reuse the connection.
        loop {
            l.clear();
            let n = c.read_line(&mut l).expect("frame");
            if n == 0 || l == "\n" {
                break;
            }
        }
        break c;
    };
    let bye = roundtrip(&mut third, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("daemon thread exits cleanly");
}

#[test]
fn malformed_requests_keep_the_connection_alive() {
    let (addr, server) = start_daemon(1);
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    stream
        .get_mut()
        .write_all(b"this is not json\n")
        .expect("send garbage");
    let mut line = String::new();
    stream.read_line(&mut line).expect("error line");
    assert!(line.starts_with("{\"error\""), "{line}");
    line.clear();
    stream.read_line(&mut line).expect("terminator");
    assert_eq!(line, "\n");
    // A line of brackets far under the line limit would recurse past
    // the handler's stack; it gets an error frame instead.
    stream
        .get_mut()
        .write_all(format!("{}\n", "[".repeat(200_000)).as_bytes())
        .expect("send nested brackets");
    line.clear();
    stream.read_line(&mut line).expect("error line");
    assert!(line.starts_with("{\"error\""), "{line}");
    assert!(line.contains("nesting deeper than"), "{line}");
    line.clear();
    stream.read_line(&mut line).expect("terminator");
    assert_eq!(line, "\n");
    // A program one event past the cap is refused by name, as a check
    // and as an outcomes request.
    let mut src = String::from("big17 (x86)\nInitially: x = 0\nthread 0:\n");
    for v in 1..=8 {
        src += &format!("  x <- {v}\n");
    }
    src += "thread 1:\n";
    for r in 0..9 {
        src += &format!("  r{r} <- x\n");
    }
    src += "Test: 1:r0 = 0\n";
    let file = "big17.litmus".to_string();
    for req in [
        Request::Check {
            file: file.clone(),
            src: src.clone(),
            models: None,
            trace: None,
        },
        Request::Outcomes {
            file: file.clone(),
            src: src.clone(),
            models: None,
            max_candidates: None,
            trace: None,
        },
    ] {
        let got = roundtrip(&mut stream, &req);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(
            got[0].contains("\"error\":\"program has 17 events (max 16)\""),
            "{}",
            got[0]
        );
    }
    // Location ids past what the simulators model (8) and past what a
    // small location table would hold (64) get structured frames, and
    // the one shard keeps serving a good check after each.
    let (good_file, good_src) = corpus().swap_remove(0);
    let good = Request::Check {
        file: good_file,
        src: good_src,
        models: None,
        trace: None,
    };
    for loc in ["l9", "l100"] {
        let src = format!(
            "far (x86)\nInitially: {loc} = 0\nthread 0:\n  {loc} <- 1\n  r0 <- {loc}\n\
             thread 1:\n  r1 <- {loc}\nTest: 1:r1 = 0\n"
        );
        let file = format!("{loc}.litmus");
        let check = roundtrip(
            &mut stream,
            &Request::Check {
                file: file.clone(),
                src: src.clone(),
                models: None,
                trace: None,
            },
        );
        assert_eq!(check.len(), 1, "{check:?}");
        assert!(check[0].contains("\"verdicts\""), "{}", check[0]);
        assert!(check[0].contains("\"observable\":null"), "{}", check[0]);
        let after = roundtrip(&mut stream, &good);
        assert!(after[0].contains("\"verdicts\""), "{loc} check: {after:?}");
        let outcomes = roundtrip(
            &mut stream,
            &Request::Outcomes {
                file,
                src,
                models: None,
                max_candidates: None,
                trace: None,
            },
        );
        assert_eq!(outcomes.len(), 1, "{outcomes:?}");
        assert!(
            outcomes[0].contains("\"error\":\"program uses location"),
            "{}",
            outcomes[0]
        );
        let after = roundtrip(&mut stream, &good);
        assert!(
            after[0].contains("\"verdicts\""),
            "{loc} outcomes: {after:?}"
        );
    }
    // Register numbers past r255 (the first wraps the register-file
    // size to 0) and a self-dependency get error frames as a check and
    // as an outcomes request, and none of them panics.
    let panics = |stream: &mut BufReader<TcpStream>| -> u64 {
        let page = roundtrip(stream, &Request::Metrics { prom: true });
        page.iter()
            .find_map(|l| l.strip_prefix("txmm_request_panics_total "))
            .map_or(0, |v| v.trim().parse().expect("counter value"))
    };
    let panics_before = panics(&mut stream);
    let refused = [
        (
            format!("wrap (x86)\nthread 0:\n  r{} <- x\n", u64::MAX),
            "registers are r0..=r255",
        ),
        (
            "wide (x86)\nthread 0:\n  r1000000 <- x\n".to_string(),
            "registers are r0..=r255",
        ),
        (
            "selfdep (Power)\nthread 0:\n  r0 <- x // deps: addr#0\n  y <- 1\n\
             thread 1:\n  r0 <- y\n  x <- 1\n"
                .to_string(),
            "not an earlier event",
        ),
    ];
    for (src, why) in refused {
        let file = "refused.litmus".to_string();
        for req in [
            Request::Check {
                file: file.clone(),
                src: src.clone(),
                models: None,
                trace: None,
            },
            Request::Outcomes {
                file: file.clone(),
                src: src.clone(),
                models: None,
                max_candidates: None,
                trace: None,
            },
        ] {
            let got = roundtrip(&mut stream, &req);
            assert_eq!(got.len(), 1, "{got:?}");
            assert!(got[0].contains("\"error\":\""), "{}", got[0]);
            assert!(!got[0].contains("internal"), "{}", got[0]);
            assert!(got[0].contains(why), "{}", got[0]);
        }
    }
    assert_eq!(panics(&mut stream), panics_before);
    // The same connection still serves real requests.
    let models = roundtrip(&mut stream, &Request::Models);
    assert!(!models.is_empty());
    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
}

#[test]
fn a_test_past_the_machine_state_cap_answers_null() {
    // Four Power threads, each one store to its own location, then loads
    // of the other three: the machine gives up at its state cap instead
    // of holding the shard for minutes, and the check still answers.
    let locs = ["x", "y", "z", "w"];
    let mut src = "big (Power)\nInitially: x = 0\n".to_string();
    for t in 0..4 {
        src += &format!("thread {t}:\n  {} <- {}\n", locs[t], t + 1);
        for k in 1..4 {
            src += &format!("  r{} <- {}\n", k - 1, locs[(t + k) % 4]);
        }
    }
    src += "Test: 0:r0 = 0 /\\ 1:r0 = 0 /\\ 2:r0 = 0 /\\ 3:r0 = 0\n";
    let (addr, server) = start_daemon(1);
    let mut stream = BufReader::new(TcpStream::connect(&addr).expect("connects"));
    let check = roundtrip(
        &mut stream,
        &Request::Check {
            file: "big.litmus".into(),
            src,
            models: None,
            trace: None,
        },
    );
    assert_eq!(check.len(), 1, "{check:?}");
    assert!(check[0].contains("\"verdicts\""), "{}", check[0]);
    assert!(check[0].contains("\"observable\":null"), "{}", check[0]);
    roundtrip(&mut stream, &Request::Shutdown);
    server.join().expect("daemon exits");
}

#[cfg(unix)]
#[test]
fn unix_socket_transport() {
    let path = std::env::temp_dir().join(format!("txmm-daemon-{}.sock", std::process::id()));
    let pool = SessionPool::new(&PoolConfig {
        shards: 2,
        ..PoolConfig::default()
    })
    .expect("pool builds");
    let daemon = Daemon::bind(&ListenAddr::Unix(path.clone()), pool).expect("binds");
    assert_eq!(daemon.local_addr(), format!("unix:{}", path.display()));
    let server = thread::spawn(move || daemon.run().expect("runs"));

    let (file, src) = corpus().remove(0);
    let mut session = Session::new();
    let want = jsonl_line(&serve_source(&mut session, &file, &src, None));

    let mut stream = BufReader::new(
        std::os::unix::net::UnixStream::connect(&path).expect("connect over unix socket"),
    );
    let got = roundtrip(
        &mut stream,
        &Request::Check {
            file,
            src,
            models: None,
            trace: None,
        },
    );
    assert_eq!(got, vec![want]);
    let bye = roundtrip(&mut stream, &Request::Shutdown);
    assert_eq!(bye, vec!["{\"ok\":\"shutdown\"}".to_string()]);
    server.join().expect("clean shutdown");
    assert!(
        !PathBuf::from(&path).exists(),
        "socket file removed on shutdown"
    );
}
