//! The `txmm` command-line front-end: batch litmus serving on top of a
//! long-lived [`Session`], one-shot or as a socket daemon over the
//! sharded Session pool.
//!
//! ```text
//! txmm models                        list every registered model
//! txmm gen <dir> [--events N]        write a litmus corpus (catalog +
//!                                    synthesised Forbid/Allow tests)
//! txmm serve <dir|file...> [opts]    answer verdicts + observability
//!                                    as JSONL, one line per test
//! txmm outcomes <dir|file...> [opts] enumerate every candidate
//!                                    execution per program and answer
//!                                    the per-model allowed final-state
//!                                    table as JSONL
//! txmm serve --listen <addr> [opts]  run the txmm-serverd daemon on a
//!                                    TCP (host:port) or unix:<path>
//!                                    socket; --shards N splits the
//!                                    caches into N locked Sessions (at
//!                                    most N requests compute at once),
//!                                    --max-conns N caps concurrent
//!                                    connections (busy error past it)
//! txmm check <file...> [opts]        alias for serve
//! txmm client <addr> <request>       talk to a running daemon:
//!                                    check <file> | batch <dir> |
//!                                    outcomes <file|dir> | reload |
//!                                    models | stats | metrics |
//!                                    shutdown
//!
//! serve/check options:
//!   --model NAME   restrict verdicts to NAME (repeatable)
//!   --cat FILE     register a user-supplied .cat model (repeatable)
//!   --with-cat     also register the shipped .cat twins (<name>.cat)
//!   --warm         serve the corpus twice and report cold-vs-warm
//!                  timing (the analysis-cache speedup) on stderr
//!   --prom         dump the process metrics registry as Prometheus
//!                  text exposition on stderr after the run
//!
//! outcomes options (also accepted by `client ... outcomes`):
//!   --max-candidates N  raise (or lower) the candidate-count refusal
//!                       threshold from its default of 65536
//!
//! telemetry options (gen and outcomes):
//!   --progress[=SECS]     emit one JSONL progress frame per interval
//!                         (default 1s) on stderr: fraction done,
//!                         candidates/sec, ETA, per-worker utilisation
//!   --progress-file FILE  write the frames to FILE instead of stderr
//!   --metrics-listen ADDR serve the live metrics registry on a TCP
//!                         socket speaking the daemon's metrics frame,
//!                         so `txmm client ADDR metrics` scrapes a
//!                         one-shot run mid-walk
//!
//! client options:
//!   --trace ID     (check/outcomes) ask the daemon to echo ID back
//!                  with a per-stage span timeline on the response
//!   --prom         (metrics) fetch Prometheus text exposition instead
//!                  of the one-line JSON dump
//!   --watch SECS   (metrics) re-poll on an interval, reconnecting each
//!                  round, until the target goes away
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use txmm::daemon::{Daemon, ListenAddr, PoolConfig, SessionPool};
use txmm::protocol::Request;
use txmm::serve::{collect_litmus_files, jsonl_line, serve_file, Served};
use txmm::session::{ModelRef, Session};

fn usage() -> ExitCode {
    eprintln!(
        "usage: txmm <command>\n\
         \n\
         commands:\n\
         \u{20} models                        list registered models\n\
         \u{20} gen <dir> [--events N]        generate a litmus corpus\n\
         \u{20} serve <dir|file...> [opts]    serve verdicts as JSONL\n\
         \u{20} serve --listen <addr> [opts]  run the socket daemon\n\
         \u{20} outcomes <dir|file...> [opts] serve allowed-outcome tables\n\
         \u{20} check <file...> [opts]        alias for serve\n\
         \u{20} client <addr> <request>       query a running daemon\n\
         \n\
         serve options: --model NAME, --cat FILE, --with-cat, --warm, --prom,\n\
         \u{20}               --listen ADDR, --shards N, --max-conns N\n\
         outcomes options: serve options plus --workers N, --max-candidates N\n\
         \u{20} --workers N walks each program's abort splits over N\n\
         \u{20} work-stealing threads (default 1, fully sequential)\n\
         telemetry (gen/outcomes): --progress[=SECS] heartbeat JSONL frames on\n\
         \u{20} stderr, --progress-file FILE to redirect them, --metrics-listen\n\
         \u{20} ADDR to scrape live metrics from the one-shot process\n\
         client requests: check <file>, batch <dir>, outcomes <file|dir>,\n\
         \u{20}                reload, models, stats, metrics [--prom], shutdown\n\
         client options: --trace ID (check/outcomes span timeline),\n\
         \u{20}               --watch SECS (re-poll metrics on an interval)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("models") => cmd_models(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("serve") | Some("check") => cmd_serve(&args[1..]),
        Some("outcomes") => cmd_outcomes(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        _ => usage(),
    }
}

fn cmd_models(args: &[String]) -> ExitCode {
    let mut session = Session::with_shipped_cat();
    for path in flag_values(args, "--cat") {
        if let Err(e) = session.register_cat_file(&PathBuf::from(path)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    for m in session.models().collect::<Vec<_>>() {
        let model = session.model(m);
        println!(
            "{:<14} arch={:<6} tm={}",
            model.name(),
            model.arch().name(),
            model.is_tm()
        );
    }
    ExitCode::SUCCESS
}

/// Positional (non-flag) arguments: skips `--flag value` pairs for the
/// value-taking flags and bare `--flags` entirely.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--model" | "--cat" | "--events" | "--listen" | "--shards" | "--max-conns"
            | "--workers" | "--max-candidates" | "--trace" | "--progress-file"
            | "--metrics-listen" | "--watch" => i += 2,
            a if a.starts_with("--") => i += 1,
            a => {
                out.push(a);
                i += 1;
            }
        }
    }
    out
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let Some(&dir) = positionals(args).first() else {
        eprintln!(
            "usage: txmm gen <dir> [--events N] [--progress[=SECS]] [--progress-file FILE] \
             [--metrics-listen ADDR]"
        );
        return ExitCode::FAILURE;
    };
    let events = match flag_values(args, "--events").first() {
        None => 3,
        Some(v) => match txmm::corpus::parse_event_bound(v) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: --events: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let dir = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let telemetry = match parse_telemetry(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut session = Session::new();
    if let Some(t) = &telemetry {
        session.set_walk_progress(Some(t.progress.clone()));
    }
    let corpus = txmm::corpus::generate_on(&session, events);
    if let Some(t) = telemetry {
        t.finish();
    }
    for (i, (name, text)) in corpus.iter().enumerate() {
        let path = dir.join(format!("{i:02}-{name}.litmus"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!("wrote {} litmus files to {}", corpus.len(), dir.display());
    ExitCode::SUCCESS
}

/// Walk telemetry requested on the command line: the shared progress
/// accumulator plus the optional heartbeat reporter and metrics
/// sidecar it feeds. `None` when no telemetry flag was given, so the
/// default paths carry zero overhead.
struct Telemetry {
    progress: std::sync::Arc<txmm::obs::WalkProgress>,
    reporter: Option<txmm::obs::Reporter>,
    sidecar: Option<txmm::obs::MetricsSidecar>,
}

impl Telemetry {
    /// Stop the heartbeat (emitting the final frame, totals now equal
    /// the walk's returned counts) and close the sidecar listener.
    fn finish(self) {
        if let Some(r) = self.reporter {
            r.finish();
        }
        drop(self.sidecar);
    }
}

/// Parse `--progress[=SECS]`, `--progress-file FILE` and
/// `--metrics-listen ADDR`. Progress frames and sidecar announcements
/// go to stderr (or the file), never stdout: JSONL output stays
/// byte-identical with telemetry on.
fn parse_telemetry(args: &[String]) -> Result<Option<Telemetry>, String> {
    let mut interval: Option<f64> = None;
    for a in args {
        if a == "--progress" {
            interval = Some(1.0);
        } else if let Some(v) = a.strip_prefix("--progress=") {
            match v.parse::<f64>() {
                Ok(secs) if secs > 0.0 => interval = Some(secs),
                _ => {
                    return Err(format!(
                        "--progress={v}: expected a positive number of seconds"
                    ))
                }
            }
        }
    }
    let file = flag_values(args, "--progress-file")
        .last()
        .map(PathBuf::from);
    let listen = flag_values(args, "--metrics-listen").last().copied();
    if interval.is_none() && file.is_none() && listen.is_none() {
        return Ok(None);
    }
    txmm::obs::publish_process_info();
    let progress = std::sync::Arc::new(txmm::obs::WalkProgress::new());
    let sidecar = match listen {
        Some(addr) => {
            let s = txmm::obs::serve_metrics(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!("metrics sidecar listening on {}", s.addr());
            Some(s)
        }
        None => None,
    };
    // A sidecar alone still wants the walk counters ticking, but only
    // an explicit --progress[-file] starts the heartbeat thread.
    let reporter = if interval.is_some() || file.is_some() {
        let sink = match file {
            Some(p) => txmm::obs::ProgressSink::File(p),
            None => txmm::obs::ProgressSink::Stderr,
        };
        let iv = std::time::Duration::from_secs_f64(interval.unwrap_or(1.0));
        Some(
            txmm::obs::Reporter::start(progress.clone(), iv, sink)
                .map_err(|e| format!("cannot start progress reporter: {e}"))?,
        )
    } else {
        None
    };
    Ok(Some(Telemetry {
        progress,
        reporter,
        sidecar,
    }))
}

fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            if let Some(v) = it.next() {
                out.push(v.as_str());
            }
        }
    }
    out
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parse `--max-candidates N` into an enumeration cap; `None` when the
/// flag is absent (keep the session default of 2^16).
fn parse_max_candidates(args: &[String]) -> Result<Option<u128>, String> {
    match flag_values(args, "--max-candidates").last() {
        None => Ok(None),
        Some(v) => match v.parse::<u128>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "--max-candidates must be a positive integer, got {v:?}"
            )),
        },
    }
}

/// Daemon mode: `txmm serve --listen <addr>`.
fn cmd_serve_daemon(args: &[String], listen: &str) -> ExitCode {
    let shards: usize = flag_values(args, "--shards")
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let cfg = PoolConfig {
        shards,
        with_cat: has_flag(args, "--with-cat"),
        cat_files: flag_values(args, "--cat")
            .iter()
            .map(PathBuf::from)
            .collect(),
    };
    let pool = match SessionPool::new(&cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shards = pool.shard_count();
    let max_conns: usize = flag_values(args, "--max-conns")
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let daemon = match Daemon::bind(&ListenAddr::parse(listen), pool) {
        Ok(d) => d.with_max_conns(max_conns),
        Err(e) => {
            eprintln!("error: cannot listen on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "txmm-serverd listening on {} ({} shards)",
        daemon.local_addr(),
        shards
    );
    match daemon.run() {
        Ok(()) => {
            eprintln!("txmm-serverd: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Connect to a daemon at `addr` (`host:port` or `unix:<path>`).
fn connect(addr: &str) -> std::io::Result<Box<dyn ReadWrite>> {
    #[cfg(unix)]
    if let Some(path) = addr.strip_prefix("unix:") {
        return Ok(Box::new(std::os::unix::net::UnixStream::connect(path)?));
    }
    Ok(Box::new(std::net::TcpStream::connect(addr)?))
}

trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

fn cmd_client(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let (addr, what, arg) = match pos.as_slice() {
        [addr, what] => (*addr, *what, None),
        [addr, what, arg] => (*addr, *what, Some(*arg)),
        _ => {
            eprintln!(
                "usage: txmm client <addr> check <file> | batch <dir> | models | stats | \
                 metrics [--prom] | shutdown [--model NAME] [--trace ID]"
            );
            return ExitCode::FAILURE;
        }
    };
    let trace = flag_values(args, "--trace").last().map(|s| s.to_string());
    let model_names = flag_values(args, "--model");
    let models = if model_names.is_empty() {
        None
    } else {
        Some(model_names.iter().map(|s| s.to_string()).collect())
    };
    let max_candidates = match parse_max_candidates(args) {
        Ok(cap) => cap,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let request = match (what, arg) {
        ("check", Some(file)) => {
            let src = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            Request::Check {
                file: file.to_string(),
                src,
                models,
                trace,
            }
        }
        ("batch", Some(dir)) => Request::Batch {
            dir: dir.to_string(),
            models,
        },
        // A directory asks the server to batch over it; a file ships
        // its source inline.
        ("outcomes", Some(path)) if std::path::Path::new(path).is_dir() => Request::OutcomesBatch {
            dir: path.to_string(),
            models,
            max_candidates,
        },
        ("outcomes", Some(file)) => {
            let src = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            Request::Outcomes {
                file: file.to_string(),
                src,
                models,
                max_candidates,
                trace,
            }
        }
        ("reload", None) => Request::Reload,
        ("models", None) => Request::Models,
        ("stats", None) => Request::Stats,
        ("metrics", None) => Request::Metrics {
            prom: has_flag(args, "--prom"),
        },
        ("shutdown", None) => Request::Shutdown,
        _ => {
            eprintln!("error: unknown client request {what} {arg:?}");
            return ExitCode::FAILURE;
        }
    };
    // `metrics --watch SECS` polls on an interval, reconnecting each
    // round (one-shot sidecars and daemons alike serve one frame per
    // connection), until the target goes away or the user interrupts.
    let watch = flag_values(args, "--watch")
        .last()
        .map(|s| s.parse::<f64>());
    let watch = match watch {
        None => None,
        Some(Ok(secs)) if secs > 0.0 => Some(secs),
        Some(_) => {
            eprintln!("error: --watch expects a positive number of seconds");
            return ExitCode::FAILURE;
        }
    };
    if let Some(secs) = watch {
        if !matches!(request, Request::Metrics { .. }) {
            eprintln!("error: --watch only applies to the metrics request");
            return ExitCode::FAILURE;
        }
        use std::io::IsTerminal;
        let clear = std::io::stdout().is_terminal();
        loop {
            if clear {
                // Clear between frames, watch(1)-style, when
                // interactive; piped output stays plain JSONL.
                print!("\x1b[2J\x1b[H");
            }
            match client_round_trip(addr, &request) {
                Ok(_) => {}
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let _ = std::io::Write::flush(&mut std::io::stdout());
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        }
    }
    match client_round_trip(addr, &request) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failures) => {
            eprintln!("{failures} error responses");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One request/response frame against a daemon or metrics sidecar:
/// connect, send, print response lines up to the blank terminator.
/// Returns how many of them were error responses.
fn client_round_trip(addr: &str, request: &Request) -> Result<usize, String> {
    let stream = connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut stream = BufReader::new(stream);
    stream
        .get_mut()
        .write_all(format!("{}\n", request.to_line()).as_bytes())
        .map_err(|_| format!("cannot send request to {addr}"))?;
    let mut failures = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        match stream.read_line(&mut line) {
            Ok(0) => break, // server closed
            Ok(_) => {
                let l = line.trim_end_matches('\n');
                if l.is_empty() {
                    break; // frame terminator
                }
                if l.starts_with("{\"error\"") || l.contains("\"error\":") {
                    failures += 1;
                }
                println!("{l}");
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(failures)
}

/// One-shot outcome serving: `txmm outcomes <dir|file...>` — the
/// program-level twin of `cmd_serve`, enumerating every candidate
/// execution per test and printing the per-model allowed-outcome table,
/// one JSONL line per test (byte-identical to the daemon's `outcomes`
/// answers over the same tests).
fn cmd_outcomes(args: &[String]) -> ExitCode {
    use txmm::serve::{outcomes_jsonl_line, serve_outcomes_file, ServedOutcomes};

    let paths: Vec<PathBuf> = positionals(args).into_iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        eprintln!(
            "usage: txmm outcomes <dir|file...> [--model NAME] [--cat FILE] [--with-cat] \
             [--warm] [--workers N] [--max-candidates N]"
        );
        return ExitCode::FAILURE;
    }

    let mut session = if has_flag(args, "--with-cat") {
        Session::with_shipped_cat()
    } else {
        Session::new()
    };
    let workers: usize = flag_values(args, "--workers")
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    session.set_outcome_workers(workers);
    match parse_max_candidates(args) {
        Ok(Some(cap)) => session.set_max_candidates(cap),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    for path in flag_values(args, "--cat") {
        if let Err(e) = session.register_cat_file(&PathBuf::from(path)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let model_names = flag_values(args, "--model");
    let filter: Option<Vec<ModelRef>> = if model_names.is_empty() {
        None
    } else {
        let mut ms = Vec::new();
        for name in model_names {
            match session.resolve(name) {
                Some(m) => ms.push(m),
                None => {
                    eprintln!("error: unknown model {name} (try `txmm models`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some(ms)
    };

    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            match collect_litmus_files(&p) {
                Ok(fs) => files.extend(fs),
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
            }
        } else {
            files.push(p);
        }
    }
    if files.is_empty() {
        eprintln!("error: no .litmus files found");
        return ExitCode::FAILURE;
    }

    let telemetry = match parse_telemetry(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &telemetry {
        session.set_walk_progress(Some(t.progress.clone()));
    }

    let mut failures = 0usize;
    let mut pass = |session: &mut Session, print: bool| -> u128 {
        let mut serving = 0u128;
        for f in &files {
            let start = Instant::now();
            let served = serve_outcomes_file(session, f, filter.as_deref());
            serving += start.elapsed().as_micros();
            if print {
                if matches!(served, ServedOutcomes::Failure(_)) {
                    failures += 1;
                }
                println!("{}", outcomes_jsonl_line(&served));
            }
        }
        serving
    };

    let cold = pass(&mut session, true);
    if let Some(t) = telemetry {
        t.finish();
    }
    let s = session.stats();
    if has_flag(args, "--warm") {
        let warm = pass(&mut session, false);
        let s = session.stats();
        eprintln!(
            "served {} outcome tables: cold {}us, warm {}us ({:.1}x speedup); \
             {} candidates in {} classes, {} outcome entries, \
             {} outcome hits / {} misses",
            files.len(),
            cold,
            warm,
            cold as f64 / warm.max(1) as f64,
            s.outcome_candidates,
            s.outcome_classes,
            s.outcome_entries,
            s.outcome_hits,
            s.outcome_misses,
        );
    } else {
        eprintln!(
            "served {} outcome tables in {}us; {} candidates in {} classes \
             ({} outcome entries)",
            files.len(),
            cold,
            s.outcome_candidates,
            s.outcome_classes,
            s.outcome_entries,
        );
    }
    if has_flag(args, "--prom") {
        eprint!("{}", txmm::obs::global().render_prom());
    }
    if failures > 0 {
        eprintln!("{failures} tests failed to serve");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    if let Some(listen) = flag_values(args, "--listen").first() {
        return cmd_serve_daemon(args, listen);
    }
    // Positional arguments are directories or litmus files.
    let paths: Vec<PathBuf> = positionals(args).into_iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        eprintln!(
            "usage: txmm serve <dir|file...> [--model NAME] [--cat FILE] [--with-cat] [--warm]\n\
             \u{20}      txmm serve --listen <addr> [--shards N] [--max-conns N] [--cat FILE] [--with-cat]"
        );
        return ExitCode::FAILURE;
    }

    let mut session = if has_flag(args, "--with-cat") {
        Session::with_shipped_cat()
    } else {
        Session::new()
    };
    for path in flag_values(args, "--cat") {
        if let Err(e) = session.register_cat_file(&PathBuf::from(path)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let model_names = flag_values(args, "--model");
    let filter: Option<Vec<ModelRef>> = if model_names.is_empty() {
        None
    } else {
        let mut ms = Vec::new();
        for name in model_names {
            match session.resolve(name) {
                Some(m) => ms.push(m),
                None => {
                    eprintln!("error: unknown model {name} (try `txmm models`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some(ms)
    };

    // Expand directories into their .litmus files.
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            match collect_litmus_files(&p) {
                Ok(fs) => files.extend(fs),
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
            }
        } else {
            files.push(p);
        }
    }
    if files.is_empty() {
        eprintln!("error: no .litmus files found");
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    // Each pass times ONLY the serving work (parse, convert, check,
    // observe) so the cold/warm comparison measures the caches, not
    // JSONL formatting or stdout throughput; a --warm rerun serves the
    // same files, so failures are counted in the first pass only.
    let mut pass = |session: &mut Session, print: bool| -> u128 {
        let mut serving = 0u128;
        for f in &files {
            let start = Instant::now();
            let served = serve_file(session, f, filter.as_deref());
            serving += start.elapsed().as_micros();
            if print {
                if matches!(served, Served::Failure(_)) {
                    failures += 1;
                }
                println!("{}", jsonl_line(&served));
            }
        }
        serving
    };

    let cold = pass(&mut session, true);
    if has_flag(args, "--warm") {
        let warm = pass(&mut session, false);
        let s = session.stats();
        eprintln!(
            "served {} tests: cold {}us, warm {}us ({:.1}x speedup); \
             {} interned, {} verdict hits / {} misses",
            files.len(),
            cold,
            warm,
            cold as f64 / warm.max(1) as f64,
            s.interned,
            s.verdict_hits,
            s.verdict_misses,
        );
    } else {
        let s = session.stats();
        eprintln!(
            "served {} tests in {}us; {} interned, {} verdict hits / {} misses",
            files.len(),
            cold,
            s.interned,
            s.verdict_hits,
            s.verdict_misses,
        );
    }
    if has_flag(args, "--prom") {
        eprint!("{}", txmm::obs::global().render_prom());
    }
    if failures > 0 {
        eprintln!("{failures} tests failed to serve");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_refuses_event_bounds_past_the_cap() {
        let dir = std::env::temp_dir().join(format!("txmm-gen-cap-{}", std::process::id()));
        for bad in ["17", "65"] {
            let args: Vec<String> = [dir.to_str().expect("utf-8 path"), "--events", bad]
                .map(String::from)
                .to_vec();
            assert_eq!(cmd_gen(&args), ExitCode::FAILURE, "--events {bad}");
        }
        assert!(!dir.exists(), "refused before creating the directory");
    }
}
