//! The `txmm` command-line front-end: batch litmus serving on top of a
//! long-lived [`Session`], one-shot or as a socket daemon over the
//! sharded Session pool, and the paper's evaluation runs
//! ([`txmm::paper`]).
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
//! txmm table1 [--events N]           Table 1: Forbid/Allow synthesis
//!                                    for x86 and Power at every
//!                                    |E| <= N (default 4), each test
//!                                    run on the hardware machine
//! txmm fig7 [--events N]             Fig. 7: when each x86 Forbid test
//!                                    of |E| = N (default 4) was found
//! txmm table2 [--verbose]            Table 2: monotonicity, compilation
//!                                    and lock elision; --verbose prints
//!                                    the counterexample executions
//! txmm catalog [--verbose]           every named execution of the paper
//!                                    with its verdicts; --verbose adds
//!                                    the litmus listings
//! txmm walk <model> [--events N]     count the classes of |E| = N
//!                                    (default 4) that the native
//!                                    <model> deems consistent, with
//!                                    prune counters
//!
//! serve/check options:
//!   --model NAME   restrict verdicts to NAME (repeatable)
//!   --cat FILE     register a user-supplied .cat model (repeatable;
//!                  also read by models and the daemon)
//!   --with-cat     also register the shipped .cat twins (<name>.cat;
//!                  also read by the daemon)
//!   --warm         serve the corpus twice and report cold-vs-warm
//!                  timing (the analysis-cache speedup) on stderr
//!   --prom         dump the process metrics registry as Prometheus
//!                  text exposition on stderr after the run
//!
//! outcomes options (also accepted by `client ... outcomes`):
//!   --max-candidates N  raise (or lower) the candidate-count refusal
//!                       threshold from its default of 65536
//!
//! telemetry options (gen, outcomes, table1, fig7 and walk; parsed by
//! txmm::obs::Telemetry):
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
//! One table lists the flags and words each command reads (`COMMANDS`,
//! and `DAEMON` for `serve --listen`), and one list the flags that take a
//! value (`VALUE_FLAGS`, with the telemetry flags'). A command
//! line is parsed once, before any command starts: a flag the command
//! does not read (an unknown one among them), a word past the ones it
//! takes, or a value flag at the end of the line or followed by another
//! flag, exits 1 with `error: ...` and the usage, and prints nothing on
//! stdout. Every command writes its stdout through one
//! writer; when the reader goes away (`txmm serve DIR | head -1`), the
//! command stops and exits 0. Every command builds its Session as the
//! daemon builds each shard's ([`PoolConfig::build_session`]), and the
//! one-shot `serve`/`check` and `outcomes` share one file loop
//! (`serve_files`).

use std::error::Error;
use std::io::{self, BufRead, BufReader, IsTerminal, Read, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use txmm::daemon::{Daemon, ListenAddr, PoolConfig, SessionPool};
use txmm::obs::Telemetry;
use txmm::paper;
use txmm::protocol::{parse_json, Request};
use txmm::serve::{
    collect_litmus_files, jsonl_line, outcomes_jsonl_line, read_source, serve_outcomes_source,
    serve_source, TestFailure,
};
use txmm::session::{ModelRef, Session, SessionStats};

/// Every flag of the CLI's own that takes a value, as `--flag VALUE`;
/// [`Telemetry::FLAGS`] says which telemetry flags take one.
const VALUE_FLAGS: [&str; 9] = [
    "--model",
    "--cat",
    "--events",
    "--listen",
    "--shards",
    "--max-conns",
    "--max-candidates",
    "--trace",
    "--watch",
];

/// What a command reads: its name, how many words it takes besides its
/// flags, its flags, and whether it reads the [`Telemetry::FLAGS`] too.
type Command = (
    &'static str,
    RangeInclusive<usize>,
    &'static [&'static str],
    bool,
);

/// Each command's row. Any flag a command does not read, and too few or
/// too many words, is refused before the command starts. `check` is
/// `serve`, which under `--listen` is the daemon, [`DAEMON`]. A flag
/// outside [`VALUE_FLAGS`] and [`Telemetry::FLAGS`] takes no value;
/// `--progress=SECS` is `--progress` with its interval attached.
#[rustfmt::skip]
const COMMANDS: [Command; 10] = [
    ("models", 0..=0, &["--cat"], false),
    ("gen", 1..=1, &["--events"], true),
    ("serve", 1..=usize::MAX, &["--model", "--cat", "--with-cat", "--warm", "--prom"], false),
    ("outcomes", 1..=usize::MAX, &["--model", "--cat", "--with-cat", "--warm", "--prom", "--max-candidates"], true),
    ("client", 2..=3, &["--model", "--max-candidates", "--trace", "--prom", "--watch"], false),
    ("table1", 0..=0, &["--events"], true),
    ("fig7", 0..=0, &["--events"], true),
    ("table2", 0..=0, &["--verbose"], false),
    ("catalog", 0..=0, &["--verbose"], false),
    ("walk", 1..=1, &["--events"], true),
];

/// `serve --listen <addr>`, the daemon: no word, and its own flags.
const DAEMON: Command = (
    "serve",
    0..=0,
    &["--listen", "--cat", "--with-cat", "--shards", "--max-conns"],
    false,
);

/// What a command returns: its exit code, or an error for `run` to
/// print (a failed write to stdout among them).
type Done<T = ExitCode> = Result<T, Box<dyn Error>>;

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
         \u{20} table1 [--events N]           Table 1: synthesis at every |E| <= N (4)\n\
         \u{20} fig7 [--events N]             Fig. 7: synthesis times at |E| = N (4)\n\
         \u{20} table2 [--verbose]            Table 2: the metatheory matrix\n\
         \u{20} catalog [--verbose]           every named paper execution + verdicts\n\
         \u{20} walk <model> [--events N]     count consistent classes at |E| = N (4)\n\
         \n\
         serve options: --model NAME, --cat FILE, --with-cat, --warm, --prom\n\
         daemon options: --cat FILE, --with-cat, --shards N, --max-conns N\n\
         outcomes options: serve options plus --max-candidates N\n\
         models options: --cat FILE\n\
         --verbose: table2 prints its counterexamples, catalog its litmus listings\n\
         telemetry (gen/outcomes/table1/fig7/walk): --progress[=SECS] heartbeat\n\
         \u{20} JSONL frames on stderr, --progress-file FILE to redirect them,\n\
         \u{20} --metrics-listen ADDR to scrape live metrics from the process\n\
         client requests: check <file>, batch <dir>, outcomes <file|dir>,\n\
         \u{20}                reload, models, stats, metrics [--prom], shutdown\n\
         client options: --model NAME, --max-candidates N, --trace ID\n\
         \u{20}               (check/outcomes span timeline), --watch SECS\n\
         \u{20}               (re-poll metrics on an interval)\n\
         \n\
         A flag the command does not read, a missing or extra word, or a value\n\
         flag without its value, is refused before any command starts."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args, &mut io::stdout().lock())
}

/// Dispatch one command line (without the program name), writing the
/// command's stdout to `out`. The flags are parsed once, before any
/// command does work; a command's error is printed as `error: ...` and
/// exits 1, and a closed `out` (a broken pipe) ends it with exit 0.
fn run(words: &[String], out: &mut impl Write) -> ExitCode {
    let Some((cmd, words)) = words.split_first() else {
        return usage();
    };
    let args = match Args::parse(cmd, words) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let verbose = args.has("--verbose");
    let done = match cmd.as_str() {
        "models" => cmd_models(&args, out),
        "gen" => cmd_gen(&args),
        "serve" | "check" => cmd_serve(&args, out),
        "outcomes" => cmd_outcomes(&args, out),
        "client" => cmd_client(&args, out),
        "table1" => cmd_synthesis(&args, out, paper::table1),
        "fig7" => cmd_synthesis(&args, out, paper::fig7),
        "table2" => written(paper::table2(out, verbose)),
        "catalog" => written(paper::catalog(out, verbose)),
        "walk" => cmd_walk(&args, out),
        _ => unreachable!("Args::parse refuses unknown commands"),
    };
    match done {
        Ok(code) => code,
        Err(e) if reader_gone(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Did writing stdout fail because its reader went away (`txmm serve
/// DIR | head -1`)? The command then ends quietly.
fn reader_gone(e: &(dyn Error + 'static)) -> bool {
    let e = e.downcast_ref::<io::Error>();
    e.is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
}

/// A report written in full exits 0.
fn written(report: io::Result<()>) -> Done {
    report?;
    Ok(ExitCode::SUCCESS)
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
    /// An unknown command, a flag `cmd` does not read (an unknown one
    /// among them), too few or too many words for `cmd`, or a value flag
    /// followed by nothing or by another flag, is an error, so no word is
    /// ever taken for a path or a value by mistake, and none is silently
    /// ignored.
    fn parse(cmd: &str, words: &'a [String]) -> Result<Args<'a>, String> {
        let mut args = Args {
            words,
            pos: Vec::new(),
            values: Vec::new(),
            bare: Vec::new(),
        };
        let mut it = words.iter().map(String::as_str);
        while let Some(w) = it.next() {
            if VALUE_FLAGS.contains(&w) || Telemetry::FLAGS.contains(&(w, true)) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => args.values.push((w, v)),
                    _ => return Err(format!("{w} expects a value")),
                }
            } else if w.starts_with("--") {
                args.bare.push(w);
            } else {
                args.pos.push(w);
            }
        }
        let name = if cmd == "check" { "serve" } else { cmd };
        let row = match args.value("--listen") {
            Some(_) if name == "serve" => Some(&DAEMON),
            _ => COMMANDS.iter().find(|c| c.0 == name),
        };
        let Some((_, takes, flags, telemetry)) = row else {
            return Err(format!("unknown command {cmd}"));
        };
        let bare = args.bare.iter().map(|&w| match w.split_once('=') {
            Some((flag, _)) if Telemetry::FLAGS.contains(&(flag, false)) => flag,
            _ => w,
        });
        let mut given = args.values.iter().map(|&(flag, _)| flag).chain(bare);
        let telemetry_flag = |flag: &&str| Telemetry::FLAGS.iter().any(|(f, _)| f == flag);
        let read = |flag: &&str| flags.contains(flag) || *telemetry && telemetry_flag(flag);
        if let Some(flag) = given.find(|flag| !read(flag)) {
            return Err(format!("unknown option {flag}"));
        }
        match args.pos.get(*takes.end()) {
            Some(w) => Err(format!("unexpected argument {w:?}")),
            None if args.pos.len() < *takes.start() => Err(format!("{cmd} is missing an argument")),
            None => Ok(args),
        }
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

    /// `--events N`, `default` when absent; see
    /// [`txmm::corpus::parse_event_bound`].
    fn events(&self, default: usize) -> Result<usize, String> {
        self.value("--events").map_or(Ok(default), |v| {
            txmm::corpus::parse_event_bound(v).map_err(|e| format!("--events: {e}"))
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

fn cmd_models(args: &Args, out: &mut impl Write) -> Done {
    let cfg = PoolConfig {
        with_cat: true,
        ..args.pool_config()
    };
    let session = cfg.build_session()?;
    for m in session.models() {
        let model = session.model(m);
        writeln!(
            out,
            "{:<14} arch={:<6} tm={}",
            model.name(),
            model.arch().name(),
            model.is_tm()
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Attach the telemetry the flags ask for to `session`, run `f` on it,
/// then stop the telemetry: the final frame's totals are the walks'.
fn with_telemetry<T>(
    args: &Args,
    mut session: Session,
    f: impl FnOnce(&mut Session) -> Done<T>,
) -> Done<T> {
    let telemetry = Telemetry::from_args(args.words)?;
    session.set_walk_progress(telemetry.as_ref().map(|t| t.progress.clone()));
    let done = f(&mut session);
    if let Some(t) = telemetry {
        t.finish();
    }
    done
}

fn cmd_gen(args: &Args) -> Done {
    let events = args.events(3)?;
    let dir = PathBuf::from(args.pos[0]);
    let corpus = with_telemetry(args, Session::new(), |session| {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(txmm::corpus::generate_on(session, events))
    })?;
    for (i, (name, text)) in corpus.iter().enumerate() {
        let path = dir.join(format!("{i:02}-{name}.litmus"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!("wrote {} litmus files to {}", corpus.len(), dir.display());
    Ok(ExitCode::SUCCESS)
}

/// `txmm table1|fig7 [--events N]`: `run` at the bound (default 4).
fn cmd_synthesis<W: Write>(
    args: &Args,
    out: &mut W,
    run: fn(&mut W, &mut Session, usize) -> io::Result<()>,
) -> Done {
    let events = args.events(4)?;
    with_telemetry(args, Session::new(), |session| {
        written(run(out, session, events))
    })
}

/// `txmm walk <model> [--events N]`: one consistent walk of a native
/// model the Session registry resolves, at |E| = N (4).
fn cmd_walk(args: &Args, out: &mut impl Write) -> Done {
    let name = args.pos[0];
    let events = args.events(4)?;
    let session = Session::new();
    let model = session
        .resolve(name)
        .ok_or_else(|| format!("unknown model {name} (try `txmm models`)"))?;
    with_telemetry(args, session, |session| {
        written(paper::walk(out, session, model, events))
    })
}

/// Daemon mode: `txmm serve --listen <addr>`.
fn cmd_serve_daemon(args: &Args, listen: &str) -> Done {
    let cfg = PoolConfig {
        shards: args.count("--shards")?,
        ..args.pool_config()
    };
    let max_conns = args.count("--max-conns")?;
    let addr = ListenAddr::parse(listen)?;
    let pool = SessionPool::new(&cfg)?;
    let shards = pool.shard_count();
    let daemon = Daemon::bind(&addr, pool)
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

/// Connect to a daemon at a parsed address.
fn connect(addr: &ListenAddr) -> io::Result<Box<dyn ReadWrite>> {
    match addr {
        ListenAddr::Tcp(a) => Ok(Box::new(std::net::TcpStream::connect(a)?)),
        #[cfg(unix)]
        ListenAddr::Unix(path) => Ok(Box::new(std::os::unix::net::UnixStream::connect(path)?)),
        #[cfg(not(unix))]
        ListenAddr::Unix(_) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

fn cmd_client(args: &Args, out: &mut impl Write) -> Done {
    let (addr, what, arg) = (args.pos[0], args.pos[1], args.pos.get(2).copied());
    let listen = ListenAddr::parse(addr)?;
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
        _ => return Err(format!("unknown client request {what} {arg:?}").into()),
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
        let clear = io::stdout().is_terminal();
        loop {
            if clear {
                // Clear between frames, watch(1)-style, when
                // interactive; piped output stays plain JSONL.
                write!(out, "\x1b[2J\x1b[H")?;
            }
            client_round_trip(addr, &listen, &request, out)?;
            out.flush()?;
            std::thread::sleep(interval);
        }
    }
    match client_round_trip(addr, &listen, &request, out)? {
        0 => Ok(ExitCode::SUCCESS),
        failures => {
            eprintln!("{failures} error responses");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// One request/response frame against a daemon or metrics sidecar at
/// `listen` (written `addr`): connect, send, write response lines to
/// `out` up to the blank terminator. Returns how many of them were
/// error responses.
fn client_round_trip(
    addr: &str,
    listen: &ListenAddr,
    request: &Request,
    out: &mut impl Write,
) -> Done<usize> {
    let stream = connect(listen).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
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
                writeln!(out, "{l}")?;
            }
            Err(e) => return Err(e.to_string().into()),
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
fn cmd_serve(args: &Args, out: &mut impl Write) -> Done {
    if let Some(listen) = args.value("--listen") {
        return cmd_serve_daemon(args, listen);
    }
    let mut session = args.pool_config().build_session()?;
    serve_files(
        args,
        &mut session,
        out,
        OneShot {
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
fn cmd_outcomes(args: &Args, out: &mut impl Write) -> Done {
    let mut session = args.pool_config().build_session()?;
    if let Some(cap) = args.max_candidates()? {
        session.set_max_candidates(cap);
    }
    with_telemetry(args, session, |session| {
        serve_files(
            args,
            session,
            out,
            OneShot {
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
        )
    })
}

/// The one-shot file loop: resolve `--model`, expand each directory
/// into its `.litmus` files, serve every file once writing its JSONL
/// line to `out`, serve them all again under `--warm`, summarise on
/// stderr, dump the metrics registry under `--prom`, and fail if any
/// file failed.
fn serve_files<R>(
    args: &Args,
    session: &mut Session,
    out: &mut impl Write,
    cmd: OneShot<R>,
) -> Done {
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
        return Err("no .litmus files found".into());
    }
    let mut failures = 0usize;
    // Each pass times ONLY the serving calls, so the cold/warm
    // comparison measures the caches, not JSONL formatting or stdout
    // throughput; a --warm rerun serves the same files, so failures are
    // counted in the first pass only.
    let mut pass = |session: &mut Session, print: bool| -> io::Result<u128> {
        let mut micros = 0u128;
        for f in &files {
            let start = Instant::now();
            let served = read_source(f)
                .and_then(|(file, src)| (cmd.serve)(session, &file, &src, filter.as_deref()));
            micros += start.elapsed().as_micros();
            if print {
                failures += usize::from(served.is_err());
                writeln!(out, "{}", (cmd.render)(&served))?;
            }
        }
        Ok(micros)
    };
    let cold = pass(session, true)?;
    let warm = args.has("--warm").then(|| pass(session, false));
    let warm = warm.transpose()?;
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

    /// Run a command line; its exit code and what it wrote to stdout.
    fn output(line: &[&str]) -> (ExitCode, Vec<u8>) {
        let mut out = Vec::new();
        (run(&words(line), &mut out), out)
    }

    #[test]
    fn gen_refuses_event_bounds_past_the_cap() {
        let dir = std::env::temp_dir().join(format!("txmm-gen-cap-{}", std::process::id()));
        for bad in ["17", "65"] {
            let line = ["gen", dir.to_str().expect("utf-8 path"), "--events", bad];
            assert_eq!(output(&line).0, ExitCode::FAILURE, "--events {bad}");
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
                Args::parse("outcomes", &args).err(),
                Some(format!("unknown option {flag}")),
                "{flag}"
            );
            for cmd in ["gen", "outcomes", "serve"] {
                assert_eq!(output(&[cmd, dir, flag, value]).0, ExitCode::FAILURE);
            }
        }
        assert!(!std::path::Path::new(dir).exists(), "gen never started");
        // The known flags still parse, bare and valued alike.
        let args = words(&["a", "--with-cat", "--progress=2", "--model", "x86", "b"]);
        let args = Args::parse("outcomes", &args).expect("known flags");
        assert_eq!(args.pos, ["a", "b"]);
        assert_eq!(args.value("--model"), Some("x86"));
        assert!(args.has("--with-cat"));
    }

    /// A known flag is read only by the commands `COMMANDS` gives it to:
    /// every other command refuses it like an unknown flag, before it
    /// starts, instead of running without it.
    #[test]
    fn flags_a_command_does_not_read_are_refused() {
        let dir = std::env::temp_dir().join(format!("txmm-unread-{}", std::process::id()));
        let dir = dir.to_str().expect("utf-8 path");
        for (line, flag) in [
            (
                &[
                    "outcomes",
                    "f.litmus",
                    "--listen",
                    "127.0.0.1:0",
                    "--events",
                    "9",
                ][..],
                "--listen",
            ),
            (&["serve", dir, "--progress=1", "--events", "6"], "--events"),
            (&["check", dir, "--progress=1"], "--progress"),
            (&["serve", dir, "--shards", "2"], "--shards"),
            (&["serve", "--listen", "127.0.0.1:0", "--warm"], "--warm"),
            (&["gen", dir, "--shards", "9", "--model", "x86"], "--shards"),
            (&["models", "--with-cat"], "--with-cat"),
            (
                &["client", "127.0.0.1:0", "stats", "--cat", "x.cat"],
                "--cat",
            ),
            (&["table1", "--verbose"], "--verbose"),
            (&["table2", "--events", "6"], "--events"),
            (
                &["catalog", "--progress-file", "p.jsonl"],
                "--progress-file",
            ),
            (&["walk", "x86-tm", "--model", "x86"], "--model"),
            (&["walk", "x86-tm.cat", "--with-cat"], "--with-cat"),
            (&["walk", "my", "--cat", "my.cat"], "--cat"),
        ] {
            let (cmd, rest) = line.split_first().expect("a command");
            let want = Some(format!("unknown option {flag}"));
            assert_eq!(Args::parse(cmd, &words(rest)).err(), want, "{line:?}");
            if !line.contains(&"--listen") {
                assert_eq!(output(line), (ExitCode::FAILURE, Vec::new()), "{line:?}");
            }
        }
        assert!(!std::path::Path::new(dir).exists(), "gen never started");
        // The daemon the benchmark starts, and a serve with every flag.
        let daemon = words(&["--listen", "127.0.0.1:0", "--with-cat", "--shards", "2"]);
        assert!(Args::parse("serve", &daemon).is_ok());
        let serve = words(&[
            "d",
            "--model",
            "x86",
            "--cat",
            "c",
            "--with-cat",
            "--warm",
            "--prom",
        ]);
        assert!(Args::parse("check", &serve).is_ok());
        // Only a real command names a row: not the daemon's flag spelled
        // into the command word.
        for cmd in ["bogus", "serve --listen"] {
            for rest in [&[][..], &["--listen", "127.0.0.1:0"]] {
                let want = Some(format!("unknown command {cmd}"));
                assert_eq!(Args::parse(cmd, &words(rest)).err(), want);
                assert_eq!(output(&[&[cmd][..], rest].concat()).0, ExitCode::FAILURE);
            }
        }
        // Each command takes its own number of words.
        for (line, want) in [
            (&["gen"][..], "gen is missing an argument"),
            (&["serve"], "serve is missing an argument"),
            (&["client", "127.0.0.1:0"], "client is missing an argument"),
            (&["models", "x"], "unexpected argument \"x\""),
            (&["gen", "a", "b"], "unexpected argument \"b\""),
            (
                &["serve", "--listen", "127.0.0.1:0", "d"],
                "unexpected argument \"d\"",
            ),
        ] {
            let (cmd, rest) = line.split_first().expect("a command");
            assert_eq!(Args::parse(cmd, &words(rest)).err().as_deref(), Some(want));
        }
    }

    /// The paper's runs refuse an unknown model (`walk` resolves native
    /// models only, so a shipped `.cat` twin is unknown to it), a bound
    /// out of range or not theirs, and a word they do not take, and
    /// print nothing on stdout; so do the daemon and the client given an
    /// address they cannot use.
    #[test]
    fn paper_runs_refuse_bad_models_and_bounds() {
        for line in [
            &["walk", "x86-6"][..],
            &["walk", "x86-tm.cat"],
            &["walk"],
            &["walk", "x86-tm", "power-tm"],
            &["walk", "x86-tm", "--events", "0"],
            &["table2", "--events", "6"],
            &["table1", "--events", "17"],
            &["table1", "5"],
            &["fig7", "--events", "four"],
            &["catalog", "litmus"],
            // `unix:` with no path names no socket a client can reach.
            &["serve", "--listen", "unix:"],
            &["client", "unix:", "stats"],
        ] {
            assert_eq!(output(line), (ExitCode::FAILURE, Vec::new()), "{line:?}");
        }
        assert_eq!(
            Args::parse("table1", &words(&["5"])).err(),
            Some("unexpected argument \"5\"".into())
        );
    }

    /// A stdout that fails with a broken pipe ends the command with exit
    /// 0; any other write error is an error.
    #[test]
    fn a_closed_stdout_ends_the_command_quietly() {
        struct Closed(io::ErrorKind);
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(self.0.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for line in [&["models"][..], &["table2"], &["catalog", "--verbose"]] {
            let line = words(line);
            let pipe = &mut Closed(io::ErrorKind::BrokenPipe);
            assert_eq!(run(&line, pipe), ExitCode::SUCCESS, "{line:?}");
            let full = &mut Closed(io::ErrorKind::StorageFull);
            assert_eq!(run(&line, full), ExitCode::FAILURE, "{line:?}");
        }
    }

    /// A value flag at the end of the line, or followed by another flag,
    /// is refused for every command before it starts: it never falls
    /// back to its default (`--model` to every model, `--listen` to the
    /// one-shot path).
    #[test]
    fn value_flags_without_a_value_are_refused() {
        let dir = std::env::temp_dir().join(format!("txmm-novalue-{}", std::process::id()));
        let dir = dir.to_str().expect("utf-8 path");
        let telemetry = Telemetry::FLAGS.iter().filter(|&&(_, value)| value);
        for flag in VALUE_FLAGS.into_iter().chain(telemetry.map(|&(f, _)| f)) {
            let want = Some(format!("{flag} expects a value"));
            for tail in [&[flag][..], &[flag, "--warm"]] {
                let args = words(&[&[dir][..], tail].concat());
                assert_eq!(Args::parse("serve", &args).err(), want, "{tail:?}");
            }
            for (cmd, ..) in COMMANDS {
                assert_eq!(
                    output(&[cmd, dir, flag]).0,
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
            let e = Args::parse("serve", &args)
                .expect("parses")
                .count(flag)
                .expect_err(flag);
            assert_eq!(
                e,
                format!("{flag} expects a non-negative integer, got \"abc\"")
            );
            let args = words(&["--listen", "127.0.0.1:0", flag, "4"]);
            let args = Args::parse("serve", &args).expect("parses");
            assert_eq!(args.count(flag), Ok(4));
            let file = words(&["f.litmus"]);
            let args = Args::parse("serve", &file).expect("parses");
            assert_eq!(args.count(flag), Ok(0));
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
