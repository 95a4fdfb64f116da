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
//! telemetry options (gen and outcomes; parsed by txmm::obs::Telemetry,
//! like those of the table1, fig7 and prune_counts drivers):
//!   --progress[=SECS]     emit one JSONL progress frame per interval
//!                         (default 1s, SECS > 0) on stderr: fraction
//!                         done, candidates/sec, ETA, per-worker
//!                         utilisation
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
//!
//! The flags are listed once (`VALUE_FLAGS`, `BARE_FLAGS`) and a
//! command line is parsed once, before any command starts: an unknown
//! flag, or a value flag at the end of the line or followed by another
//! flag, exits 1 with `error: ...` and the usage, and prints nothing on
//! stdout. Every command builds its Session as the daemon builds each
//! shard's ([`PoolConfig::build_session`]), and the one-shot
//! `serve`/`check` and `outcomes` share one file loop (`serve_files`).

use std::io::{BufRead, BufReader, IsTerminal, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use txmm::daemon::{Daemon, ListenAddr, PoolConfig, SessionPool};
use txmm::obs::Telemetry;
use txmm::protocol::{parse_json, Request};
use txmm::serve::{
    collect_litmus_files, jsonl_line, outcomes_jsonl_line, read_source, serve_outcomes_source,
    serve_source, TestFailure,
};
use txmm::session::{ModelRef, Session, SessionStats};

/// Every flag that takes a value, as `--flag VALUE`.
const VALUE_FLAGS: [&str; 11] = [
    "--model",
    "--cat",
    "--events",
    "--listen",
    "--shards",
    "--max-conns",
    "--max-candidates",
    "--trace",
    "--progress-file",
    "--metrics-listen",
    "--watch",
];

/// Every flag that takes none; `--progress=SECS` is `--progress` with
/// its interval attached.
const BARE_FLAGS: [&str; 4] = ["--with-cat", "--warm", "--prom", "--progress"];

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
         outcomes options: serve options plus --max-candidates N\n\
         telemetry (gen/outcomes): --progress[=SECS] heartbeat JSONL frames on\n\
         \u{20} stderr, --progress-file FILE to redirect them, --metrics-listen\n\
         \u{20} ADDR to scrape live metrics from the one-shot process\n\
         client requests: check <file>, batch <dir>, outcomes <file|dir>,\n\
         \u{20}                reload, models, stats, metrics [--prom], shutdown\n\
         client options: --trace ID (check/outcomes span timeline),\n\
         \u{20}               --watch SECS (re-poll metrics on an interval)\n\
         \n\
         An unknown flag, or a value flag without its value, is refused\n\
         before any command starts."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

/// Dispatch one command line (without the program name). The flags are
/// parsed once, before any command does work; a command's error is
/// printed as `error: ...` and exits 1.
fn run(words: &[String]) -> ExitCode {
    let Some((cmd, words)) = words.split_first() else {
        return usage();
    };
    let args = match Args::parse(words) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let done = match cmd.as_str() {
        "models" => cmd_models(&args),
        "gen" => cmd_gen(&args),
        "serve" | "check" => cmd_serve(&args),
        "outcomes" => cmd_outcomes(&args),
        "client" => cmd_client(&args),
        _ => return usage(),
    };
    done.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// The words after the command, parsed once: positionals, every value
/// flag with its value, and the bare flags.
struct Args<'a> {
    /// The words as given, for [`Telemetry::from_args`].
    words: &'a [String],
    pos: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    bare: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// An unknown `--flag`, or a value flag followed by nothing or by
    /// another flag, is an error, so no word is ever taken for a path or
    /// a value by mistake.
    fn parse(words: &'a [String]) -> Result<Args<'a>, String> {
        let mut args = Args {
            words,
            pos: Vec::new(),
            values: Vec::new(),
            bare: Vec::new(),
        };
        let mut it = words.iter().map(String::as_str);
        while let Some(w) = it.next() {
            if VALUE_FLAGS.contains(&w) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => args.values.push((w, v)),
                    _ => return Err(format!("{w} expects a value")),
                }
            } else if BARE_FLAGS.contains(&w) || w.starts_with("--progress=") {
                args.bare.push(w);
            } else if w.starts_with("--") {
                return Err(format!("unknown option {w}"));
            } else {
                args.pos.push(w);
            }
        }
        Ok(args)
    }

    /// Every value given for `flag`, in order.
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.values
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).last()
    }

    fn has(&self, flag: &str) -> bool {
        self.bare.contains(&flag)
    }

    /// A count flag's value, 0 when absent; garbage is an error.
    fn count(&self, flag: &str) -> Result<usize, String> {
        self.value(flag).map_or(Ok(0), |v| {
            v.parse()
                .map_err(|_| format!("{flag} expects a non-negative integer, got {v:?}"))
        })
    }

    /// `--max-candidates N`: the outcome engine's candidate cap, `None`
    /// (keep the default of 2^16) when absent.
    fn max_candidates(&self) -> Result<Option<u128>, String> {
        let Some(v) = self.value("--max-candidates") else {
            return Ok(None);
        };
        match v.parse::<u128>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "--max-candidates must be a positive integer, got {v:?}"
            )),
        }
    }

    /// The models `--with-cat` and `--cat` ask for; every command's
    /// Session is built from it by [`PoolConfig::build_session`].
    fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            shards: 0,
            with_cat: self.has("--with-cat"),
            cat_files: self.values("--cat").map(PathBuf::from).collect(),
        }
    }
}

fn cmd_models(args: &Args) -> Result<ExitCode, String> {
    let cfg = PoolConfig {
        with_cat: true,
        ..args.pool_config()
    };
    let session = cfg.build_session()?;
    for m in session.models() {
        let model = session.model(m);
        println!(
            "{:<14} arch={:<6} tm={}",
            model.name(),
            model.arch().name(),
            model.is_tm()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_gen(args: &Args) -> Result<ExitCode, String> {
    let Some(&dir) = args.pos.first() else {
        eprintln!(
            "usage: txmm gen <dir> [--events N] [--progress[=SECS]] [--progress-file FILE] \
             [--metrics-listen ADDR]"
        );
        return Ok(ExitCode::FAILURE);
    };
    let events = match args.value("--events") {
        None => 3,
        Some(v) => txmm::corpus::parse_event_bound(v).map_err(|e| format!("--events: {e}"))?,
    };
    let telemetry = Telemetry::from_args(args.words)?;
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut session = Session::new();
    session.set_walk_progress(telemetry.as_ref().map(|t| t.progress.clone()));
    let corpus = txmm::corpus::generate_on(&session, events);
    if let Some(t) = telemetry {
        t.finish();
    }
    for (i, (name, text)) in corpus.iter().enumerate() {
        let path = dir.join(format!("{i:02}-{name}.litmus"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!("wrote {} litmus files to {}", corpus.len(), dir.display());
    Ok(ExitCode::SUCCESS)
}

/// Daemon mode: `txmm serve --listen <addr>`.
fn cmd_serve_daemon(args: &Args, listen: &str) -> Result<ExitCode, String> {
    let cfg = PoolConfig {
        shards: args.count("--shards")?,
        ..args.pool_config()
    };
    let max_conns = args.count("--max-conns")?;
    let pool = SessionPool::new(&cfg)?;
    let shards = pool.shard_count();
    let daemon = Daemon::bind(&ListenAddr::parse(listen), pool)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?
        .with_max_conns(max_conns);
    eprintln!(
        "txmm-serverd listening on {} ({} shards)",
        daemon.local_addr(),
        shards
    );
    daemon.run().map_err(|e| e.to_string())?;
    eprintln!("txmm-serverd: clean shutdown");
    Ok(ExitCode::SUCCESS)
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

fn cmd_client(args: &Args) -> Result<ExitCode, String> {
    let (addr, what, arg) = match args.pos[..] {
        [addr, what] => (addr, what, None),
        [addr, what, arg] => (addr, what, Some(arg)),
        _ => {
            eprintln!(
                "usage: txmm client <addr> check <file> | batch <dir> | outcomes <file|dir> | \
                 reload | models | stats | metrics [--prom] | shutdown [--model NAME] [--trace ID]"
            );
            return Ok(ExitCode::FAILURE);
        }
    };
    let trace = args.value("--trace").map(str::to_string);
    let models: Vec<String> = args.values("--model").map(str::to_string).collect();
    let models = (!models.is_empty()).then_some(models);
    let max_candidates = args.max_candidates()?;
    let read =
        |file: &str| std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"));
    let request = match (what, arg) {
        ("check", Some(file)) => Request::Check {
            file: file.to_string(),
            src: read(file)?,
            models,
            trace,
        },
        ("batch", Some(dir)) => Request::Batch {
            dir: dir.to_string(),
            models,
        },
        // A directory asks the server to batch over it; a file ships
        // its source inline.
        ("outcomes", Some(path)) if Path::new(path).is_dir() => Request::OutcomesBatch {
            dir: path.to_string(),
            models,
            max_candidates,
        },
        ("outcomes", Some(file)) => Request::Outcomes {
            file: file.to_string(),
            src: read(file)?,
            models,
            max_candidates,
            trace,
        },
        ("reload", None) => Request::Reload,
        ("models", None) => Request::Models,
        ("stats", None) => Request::Stats,
        ("metrics", None) => Request::Metrics {
            prom: args.has("--prom"),
        },
        ("shutdown", None) => Request::Shutdown,
        _ => return Err(format!("unknown client request {what} {arg:?}")),
    };
    // `metrics --watch SECS` polls on an interval, reconnecting each
    // round (one-shot sidecars and daemons alike serve one frame per
    // connection), until the target goes away or the user interrupts.
    if let Some(secs) = args.value("--watch") {
        let interval = secs.parse::<f64>().ok();
        let interval = interval.and_then(|s| Duration::try_from_secs_f64(s).ok());
        let interval = interval
            .filter(|iv| !iv.is_zero())
            .ok_or("--watch expects a positive number of seconds")?;
        if !matches!(request, Request::Metrics { .. }) {
            return Err("--watch only applies to the metrics request".into());
        }
        let clear = std::io::stdout().is_terminal();
        loop {
            if clear {
                // Clear between frames, watch(1)-style, when
                // interactive; piped output stays plain JSONL.
                print!("\x1b[2J\x1b[H");
            }
            client_round_trip(addr, &request)?;
            let _ = std::io::stdout().flush();
            std::thread::sleep(interval);
        }
    }
    match client_round_trip(addr, &request)? {
        0 => Ok(ExitCode::SUCCESS),
        failures => {
            eprintln!("{failures} error responses");
            Ok(ExitCode::FAILURE)
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
                failures += usize::from(is_error_response(l));
                println!("{l}");
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(failures)
}

/// An error response is a JSON object with a top-level `error` key. A
/// payload that only mentions the word (a model or test named `error`)
/// and a non-JSON line (a Prometheus page) are not.
fn is_error_response(line: &str) -> bool {
    parse_json(line).is_ok_and(|v| v.get("error").is_some())
}

/// `serve_source` or `serve_outcomes_source`.
type Serve<R> = fn(&mut Session, &str, &str, Option<&[ModelRef]>) -> Result<R, TestFailure>;

/// What the one-shot `serve`/`check` and `outcomes` commands differ in.
struct OneShot<R> {
    /// Printed when no path is given.
    usage: &'static str,
    /// What one line answers, for the stderr summary.
    noun: &'static str,
    /// Serve one litmus source: `(session, file, source, models)`.
    serve: Serve<R>,
    /// Render one served result as its JSONL line.
    render: fn(&Result<R, TestFailure>) -> String,
    /// The Session counters the stderr summary ends with.
    counts: fn(&SessionStats) -> String,
}

/// `txmm serve|check <dir|file...>`: one verdict line per test, or the
/// socket daemon under `--listen`.
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    if let Some(listen) = args.value("--listen") {
        return cmd_serve_daemon(args, listen);
    }
    let session = args.pool_config().build_session()?;
    serve_files(
        args,
        session,
        OneShot {
            usage: "usage: txmm serve <dir|file...> [--model NAME] [--cat FILE] [--with-cat] \
                    [--warm]\n\
                    \u{20}      txmm serve --listen <addr> [--shards N] [--max-conns N] \
                    [--cat FILE] [--with-cat]",
            noun: "tests",
            serve: serve_source,
            render: jsonl_line,
            counts: |s| {
                format!(
                    "{} interned, {} verdict hits / {} misses",
                    s.interned, s.verdict_hits, s.verdict_misses
                )
            },
        },
    )
}

/// `txmm outcomes <dir|file...>`: the program-level twin of `serve`,
/// enumerating every candidate execution per test and printing the
/// per-model allowed-outcome table, one JSONL line per test
/// (byte-identical to the daemon's `outcomes` answers over the same
/// tests).
fn cmd_outcomes(args: &Args) -> Result<ExitCode, String> {
    let mut session = args.pool_config().build_session()?;
    if let Some(cap) = args.max_candidates()? {
        session.set_max_candidates(cap);
    }
    let telemetry = Telemetry::from_args(args.words)?;
    session.set_walk_progress(telemetry.as_ref().map(|t| t.progress.clone()));
    let done = serve_files(
        args,
        session,
        OneShot {
            usage: "usage: txmm outcomes <dir|file...> [--model NAME] [--cat FILE] [--with-cat] \
                    [--warm] [--max-candidates N]",
            noun: "outcome tables",
            serve: serve_outcomes_source,
            render: outcomes_jsonl_line,
            counts: |s| {
                format!(
                    "{} candidates in {} classes, {} outcome entries, \
                     {} outcome hits / {} misses",
                    s.outcome_candidates,
                    s.outcome_classes,
                    s.outcome_entries,
                    s.outcome_hits,
                    s.outcome_misses
                )
            },
        },
    );
    if let Some(t) = telemetry {
        t.finish();
    }
    done
}

/// The one-shot file loop: resolve `--model`, expand each directory
/// into its `.litmus` files, serve every file once printing its JSONL
/// line, serve them all again under `--warm`, summarise on stderr, dump
/// the metrics registry under `--prom`, and fail if any file failed.
fn serve_files<R>(args: &Args, mut session: Session, cmd: OneShot<R>) -> Result<ExitCode, String> {
    if args.pos.is_empty() {
        eprintln!("{}", cmd.usage);
        return Ok(ExitCode::FAILURE);
    }
    let filter = args
        .values("--model")
        .map(|name| {
            session
                .resolve(name)
                .ok_or_else(|| format!("unknown model {name} (try `txmm models`)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let filter = (!filter.is_empty()).then_some(filter);
    let mut files = Vec::new();
    for p in args.pos.iter().map(Path::new) {
        if p.is_dir() {
            let found = collect_litmus_files(p);
            files.extend(found.map_err(|e| format!("cannot read {}: {e}", p.display()))?);
        } else {
            files.push(p.to_path_buf());
        }
    }
    if files.is_empty() {
        return Err("no .litmus files found".to_string());
    }
    let mut failures = 0usize;
    // Each pass times ONLY the serving calls, so the cold/warm
    // comparison measures the caches, not JSONL formatting or stdout
    // throughput; a --warm rerun serves the same files, so failures are
    // counted in the first pass only.
    let mut pass = |session: &mut Session, print: bool| -> u128 {
        let mut micros = 0u128;
        for f in &files {
            let start = Instant::now();
            let served = read_source(f)
                .and_then(|(file, src)| (cmd.serve)(session, &file, &src, filter.as_deref()));
            micros += start.elapsed().as_micros();
            if print {
                failures += usize::from(served.is_err());
                println!("{}", (cmd.render)(&served));
            }
        }
        micros
    };
    let cold = pass(&mut session, true);
    let warm = args.has("--warm").then(|| pass(&mut session, false));
    let (n, noun, counts) = (files.len(), cmd.noun, (cmd.counts)(&session.stats()));
    match warm {
        Some(warm) => eprintln!(
            "served {n} {noun}: cold {cold}us, warm {warm}us ({:.1}x speedup); {counts}",
            cold as f64 / warm.max(1) as f64
        ),
        None => eprintln!("served {n} {noun} in {cold}us; {counts}"),
    }
    if args.has("--prom") {
        eprint!("{}", txmm::obs::global().render_prom());
    }
    if failures > 0 {
        eprintln!("{failures} tests failed to serve");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn gen_refuses_event_bounds_past_the_cap() {
        let dir = std::env::temp_dir().join(format!("txmm-gen-cap-{}", std::process::id()));
        for bad in ["17", "65"] {
            let args = words(&["gen", dir.to_str().expect("utf-8 path"), "--events", bad]);
            assert_eq!(run(&args), ExitCode::FAILURE, "--events {bad}");
        }
        assert!(!dir.exists(), "refused before creating the directory");
    }

    /// An unknown flag, `--workers` among them, is a usage error: its
    /// value is not taken for a path, and no command starts.
    #[test]
    fn unknown_flags_are_refused_before_any_work() {
        let dir = std::env::temp_dir().join(format!("txmm-flag-{}", std::process::id()));
        let dir = dir.to_str().expect("utf-8 path");
        for (flag, value) in [("--bogus", "4"), ("--workers", "2")] {
            let args = words(&["f.litmus", flag, value]);
            assert_eq!(
                Args::parse(&args).err(),
                Some(format!("unknown option {flag}")),
                "{flag}"
            );
            for cmd in ["gen", "outcomes", "serve"] {
                let args = words(&[cmd, dir, flag, value]);
                assert_eq!(run(&args), ExitCode::FAILURE, "{cmd} {flag}");
            }
        }
        assert!(!std::path::Path::new(dir).exists(), "gen never started");
        // The known flags still parse, bare and valued alike.
        let args = words(&["a", "--with-cat", "--progress=2", "--model", "x86", "b"]);
        let args = Args::parse(&args).expect("known flags");
        assert_eq!(args.pos, ["a", "b"]);
        assert_eq!(args.value("--model"), Some("x86"));
        assert!(args.has("--with-cat"));
    }

    /// A value flag at the end of the line, or followed by another flag,
    /// is refused for every command before it starts: it never falls
    /// back to its default (`--model` to every model, `--listen` to the
    /// one-shot path).
    #[test]
    fn value_flags_without_a_value_are_refused() {
        let dir = std::env::temp_dir().join(format!("txmm-novalue-{}", std::process::id()));
        let dir = dir.to_str().expect("utf-8 path");
        for flag in VALUE_FLAGS {
            let want = Some(format!("{flag} expects a value"));
            for tail in [&[flag][..], &[flag, "--warm"]] {
                let args = words(&[&[dir][..], tail].concat());
                assert_eq!(Args::parse(&args).err(), want, "{tail:?}");
            }
            for cmd in ["models", "gen", "serve", "check", "outcomes", "client"] {
                assert_eq!(
                    run(&words(&[cmd, dir, flag])),
                    ExitCode::FAILURE,
                    "{cmd} {flag}"
                );
            }
        }
        assert!(!std::path::Path::new(dir).exists(), "gen never started");
    }

    #[test]
    fn garbage_counts_are_refused() {
        for flag in ["--shards", "--max-conns"] {
            let args = words(&["--listen", "127.0.0.1:0", flag, "abc"]);
            let e = Args::parse(&args)
                .expect("parses")
                .count(flag)
                .expect_err(flag);
            assert_eq!(
                e,
                format!("{flag} expects a non-negative integer, got \"abc\"")
            );
            let args = words(&[flag, "4"]);
            assert_eq!(Args::parse(&args).expect("parses").count(flag), Ok(4));
            assert_eq!(Args::parse(&[]).expect("parses").count(flag), Ok(0));
        }
    }

    #[test]
    fn only_error_frames_count_as_error_responses() {
        let verdict = "{\"file\":\"f.litmus\",\"name\":\"sb\",\"arch\":\"x86\",\"events\":4,\
                       \"verdicts\":{\"error\":{\"consistent\":true,\"violations\":[]}},\
                       \"observable\":true}";
        assert!(!is_error_response(verdict));
        assert!(is_error_response(
            "{\"file\":\"f.litmus\",\"error\":\"litmus parse error\"}"
        ));
        assert!(is_error_response(
            "{\"error\":\"server busy\",\"code\":\"busy\",\"max_conns\":1}"
        ));
        assert!(!is_error_response("txmm_requests_total{cmd=\"error\"} 3"));
        assert!(!is_error_response("# HELP txmm_x \"error\": none"));
    }
}
