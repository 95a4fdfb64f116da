//! The serving workloads: a `txmm serve --listen` daemon (2 shards, the
//! 10 native models plus their 10 compiled `.cat` twins) driven closed
//! loop by two client connections, because the daemon's callers wait
//! for each reply.
//!
//! * `serve-cold`: every request is a distinct program, so every one
//!   misses the Session caches and parsing, native and VM checks, the
//!   simulators and the pruned outcome walks do the work; slow outcome
//!   jobs also make checks queue behind them on the shared shards.
//! * `serve-warm`: the standard 50-test corpus, primed during set-up and
//!   re-requested in seeded order, so nearly every answer is a cache hit
//!   and the round trip is transport, framing, dispatch and lookups.
//!
//! The traced run also replays the same stream in-process: through a
//! 2-shard `SessionPool` from two client threads, then single-threaded
//! through the Session-level calls (timed and untimed, interleaved). It
//! splits each request kind's client round trip into layer means that
//! add up to it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use txmm::daemon::{PoolConfig, SessionPool};
use txmm::litmus::{execution_from_litmus, parse_litmus, program_key};
use txmm::protocol::{parse_json, Json, Request};
use txmm::session::{ModelRef, Session};
use txmm::synth::canon_key;

use crate::gen::{self, Kind, Req};
use crate::metrics::Report;
use crate::stats::{self, fnv};
use crate::Outcome;

const SHARDS: usize = 2;
const CLIENTS: usize = 2;

/// Nominal request rates used to turn `--seconds` into a fixed stream
/// length (equal on every commit, so memory and CPU compare).
const COLD_RATE: f64 = 1700.0;
const WARM_RATE: f64 = 8000.0;

/// Set-up repetitions whose median is `setup_s`.
const COLD_SETUP_REPS: usize = 9;
const WARM_SETUP_REPS: usize = 5;

/// Largest tolerated `bench.unattributed_share` on a serving workload:
/// the layer means come from separate replays of one stream, which the
/// host's load can slow by different amounts.
pub const TOLERANCE: f64 = 0.25;

/// A spawned `txmm serve --listen` process. Dropping it kills and reaps
/// the process if [`DaemonProc::shutdown`] did not already.
struct DaemonProc {
    child: Child,
    addr: String,
    pid: String,
    stderr: Option<thread::JoinHandle<()>>,
}

impl DaemonProc {
    fn spawn() -> Result<DaemonProc, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
            .with_file_name("txmm");
        let mut child = Command::new(&exe)
            .args(["serve", "--listen", "127.0.0.1:0", "--with-cat"])
            .args(["--shards", &SHARDS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let pid = child.id().to_string();
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        // "txmm-serverd listening on 127.0.0.1:PORT (2 shards)"
        let addr = loop {
            match lines.next() {
                Some(Ok(l)) => {
                    if let Some(rest) = l.split("listening on ").nth(1) {
                        break rest.split_whitespace().next().unwrap_or("").to_string();
                    }
                    eprintln!("txmm: {l}");
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".into());
                }
            }
        };
        // Keep draining so the daemon never blocks on a full pipe.
        let stderr = thread::spawn(move || {
            for l in lines.map_while(Result::ok) {
                if !l.contains("clean shutdown") {
                    eprintln!("txmm: {l}");
                }
            }
        });
        Ok(DaemonProc {
            child,
            addr,
            pid,
            stderr: Some(stderr),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr)
    }

    /// Ask for a clean shutdown and reap the process.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.round_trip(&format!("{}\n", Request::Shutdown.to_line())));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
                _ => return Err("daemon did not shut down".into()),
            }
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One client connection speaking the JSONL protocol.
struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        s.set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        Ok(Client {
            stream: BufReader::new(s),
        })
    }

    /// Send one request line and read its response frame (the lines up
    /// to the blank terminator).
    fn round_trip(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.stream
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut out = Vec::new();
        loop {
            let mut l = String::new();
            match self.stream.read_line(&mut l) {
                Ok(0) => return Err("daemon closed the connection mid-frame".into()),
                Ok(_) if l == "\n" => return Ok(out),
                Ok(_) => out.push(l.trim_end_matches('\n').to_string()),
                Err(e) => return Err(format!("receive failed: {e}")),
            }
        }
    }

    fn one_line(&mut self, req: &Request) -> Result<String, String> {
        let mut lines = self.round_trip(&format!("{}\n", req.to_line()))?;
        match lines.len() {
            1 => Ok(lines.pop().expect("one line")),
            n => Err(format!("expected one response line, got {n}")),
        }
    }
}

/// `(native, .cat twin)` model-name pairs, from a `models` frame.
fn twins(models: &[String]) -> Vec<(String, String)> {
    let names: Vec<String> = models
        .iter()
        .filter_map(|l| {
            parse_json(l)
                .ok()?
                .get("model")?
                .as_str()
                .map(str::to_string)
        })
        .collect();
    names
        .iter()
        .filter(|n| !n.ends_with(".cat"))
        .filter(|n| names.contains(&format!("{n}.cat")))
        .map(|n| (n.clone(), format!("{n}.cat")))
        .collect()
}

/// Check one response frame: a non-error payload in which every native
/// model answers exactly as its independently implemented `.cat` twin.
fn check_frame(kind: Kind, lines: &[String], twins: &[(String, String)]) -> Result<(), String> {
    let [line] = lines else {
        return Err(format!("expected one payload line, got {}", lines.len()));
    };
    if line.contains("\"error\"") {
        return Err(format!("error frame: {line}"));
    }
    let v = parse_json(line).map_err(|e| format!("unparsable frame ({e}): {line}"))?;
    let section = match kind {
        Kind::Check => "verdicts",
        Kind::Outcomes => "models",
    };
    let answers = v
        .get(section)
        .ok_or_else(|| format!("frame has no {section}: {line}"))?;
    for (native, cat) in twins {
        let (a, b) = (answers.get(native), answers.get(cat));
        let same = match kind {
            Kind::Check => {
                let consistent = |x: Option<&Json>| x.and_then(|x| x.get("consistent")).cloned();
                consistent(a).is_some() && consistent(a) == consistent(b)
            }
            Kind::Outcomes => a.is_some() && a == b,
        };
        if !same {
            return Err(format!("{native} and {cat} disagree: {line}"));
        }
    }
    Ok(())
}

/// What the closed loop observed.
struct Drive {
    wall_s: f64,
    /// Round-trip microseconds per request, by kind.
    rtt_us: HashMap<&'static str, Vec<f64>>,
    /// `(stream index, response frame)` for every request.
    frames: Vec<(usize, Vec<String>)>,
}

fn kind_name(k: Kind) -> &'static str {
    match k {
        Kind::Check => "check",
        Kind::Outcomes => "outcomes",
    }
}

/// Drive `reqs` through the daemon closed loop from [`CLIENTS`]
/// connections sharing one cursor.
fn drive(daemon: &DaemonProc, reqs: &[Req]) -> Result<Drive, String> {
    let cursor = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(reqs.len()));
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let outcome: Result<(), String> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (cursor, results) = (&cursor, &results);
                scope.spawn(move || -> Result<(), String> {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = reqs.get(i) else { break };
                        let t0 = Instant::now();
                        let frame = client.round_trip(&r.line)?;
                        mine.push((i, t0.elapsed().as_secs_f64() * 1e6, frame));
                    }
                    results.lock().expect("results lock").extend(mine);
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("client thread panicked"))
    });
    outcome?;
    let wall_s = start.elapsed().as_secs_f64();
    let mut rtt_us: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut frames = Vec::with_capacity(reqs.len());
    for (i, us, frame) in results.into_inner().expect("results lock") {
        rtt_us.entry(kind_name(reqs[i].kind)).or_default().push(us);
        frames.push((i, frame));
    }
    frames.sort_unstable_by_key(|f| f.0);
    Ok(Drive {
        wall_s,
        rtt_us,
        frames,
    })
}

/// A daemon ready to serve the stream, with what set-up produced.
struct Ready {
    daemon: DaemonProc,
    twins: Vec<(String, String)>,
    /// Warm only: FNV of the priming answer per `(kind, corpus index)`.
    primed: HashMap<(Kind, usize), u64>,
}

/// Spawn, wait for the first `models` reply, and (warm) prime the
/// corpus. Returns the daemon and the set-up seconds.
fn set_up(priming: &[Req], out: &mut Outcome) -> Result<(Ready, f64), String> {
    let start = Instant::now();
    let daemon = DaemonProc::spawn()?;
    let mut client = daemon.connect()?;
    let models = client.round_trip(&format!("{}\n", Request::Models.to_line()))?;
    let twins = twins(&models);
    let mut primed = HashMap::new();
    for r in priming {
        let frame = client.round_trip(&r.line)?;
        if let Some(l) = frame.first() {
            primed.insert((r.kind, r.program), fnv(l.as_bytes()));
        }
        let checked = check_frame(r.kind, &frame, &twins);
        out.check(checked.is_ok(), || {
            format!("priming {}: {checked:?}", r.file)
        });
    }
    let secs = start.elapsed().as_secs_f64();
    out.check(twins.len() == 10, || {
        format!("expected 10 native/.cat twins, got {}", twins.len())
    });
    Ok((
        Ready {
            daemon,
            twins,
            primed,
        },
        secs,
    ))
}

/// Set up `reps` times (all but the last daemon shut down again) and
/// report the median set-up time.
fn set_up_median(reps: usize, priming: &[Req], out: &mut Outcome) -> Result<(Ready, f64), String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 1..reps {
        let (ready, secs) = set_up(priming, &mut Outcome::default())?;
        ready.daemon.shutdown()?;
        times.push(secs);
    }
    let (ready, secs) = set_up(priming, out)?;
    times.push(secs);
    Ok((ready, stats::median(&times).expect("a set-up")))
}

/// Check every frame of a drive: non-error, twins agree, and on the
/// warm stream byte-identical to the priming answer.
fn check_frames(reqs: &[Req], d: &Drive, ready: &Ready, warm: bool, out: &mut Outcome) {
    for (i, frame) in &d.frames {
        let r = &reqs[*i];
        if warm {
            let expect = ready.primed.get(&(r.kind, r.program));
            let got = frame.first().map(|l| fnv(l.as_bytes()));
            out.check(frame.len() == 1 && got.as_ref() == expect, || {
                format!("warm answer to {} differs from its priming answer", r.file)
            });
        } else {
            let checked = check_frame(r.kind, frame, &ready.twins);
            out.check(checked.is_ok(), || format!("{}: {checked:?}", r.file));
        }
    }
    out.check(d.frames.len() == reqs.len(), || {
        format!("{} of {} requests answered", d.frames.len(), reqs.len())
    });
}

fn stream(warm: bool, seed: u64, seconds: u64) -> (Vec<Req>, Vec<Req>) {
    if warm {
        let corpus = gen::corpus();
        let n = (seconds as f64 * WARM_RATE) as usize;
        (gen::priming(&corpus), gen::warm(seed, n, &corpus))
    } else {
        let n = (seconds as f64 * COLD_RATE) as usize;
        (Vec::new(), gen::cold(seed, n))
    }
}

fn informational(report: &mut Report, d: &Drive, reqs: &[Req]) {
    for kind in ["check", "outcomes"] {
        let xs = d.rtt_us.get(kind).cloned().unwrap_or_default();
        report.info_percentile(&format!("{kind}_p50_us"), &xs, 0.50, "us");
        report.info_percentile(&format!("{kind}_p99_us"), &xs, 0.99, "us");
    }
    report.info(
        "requests_per_s",
        stats::ratio(reqs.len() as f64, d.wall_s),
        "1/s",
        reqs.len(),
    );
}

/// Run a serving workload (untraced or traced).
pub fn run(
    warm: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: &mut Outcome,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let (priming, reqs) = stream(warm, seed, seconds);
    report.note(format!(
        "request stream: {} requests, digest {:016x}, generated in {:.3} s",
        reqs.len(),
        gen::digest(&reqs),
        start.elapsed().as_secs_f64()
    ));
    let reps = if warm {
        WARM_SETUP_REPS
    } else {
        COLD_SETUP_REPS
    };
    let (ready, setup_s) = if traced {
        set_up(&priming, out)?
    } else {
        set_up_median(reps, &priming, out)?
    };
    let cpu0 = crate::procfs::cpu_seconds(&ready.daemon.pid).ok_or("daemon /proc/<pid>/stat")?;
    let d = drive(&ready.daemon, &reqs)?;
    let cpu_s =
        crate::procfs::cpu_seconds(&ready.daemon.pid).ok_or("daemon /proc/<pid>/stat")? - cpu0;
    let peak = crate::procfs::peak_rss_mb(&ready.daemon.pid).ok_or("daemon VmHWM")?;
    let frames = if traced {
        let mut c = ready.daemon.connect()?;
        Some((
            c.one_line(&Request::Stats)?,
            c.one_line(&Request::Metrics { prom: false })?,
        ))
    } else {
        None
    };
    check_frames(&reqs, &d, &ready, warm, out);
    informational(report, &d, &reqs);
    let Ready { daemon, .. } = ready;
    daemon.shutdown()?;
    match frames {
        None => {
            report.set("setup_s", setup_s);
            report.set("peak_rss_mb", peak);
            report.set("wall_s", d.wall_s);
            report.set("cpu_s", cpu_s);
        }
        Some((stats_frame, metrics_frame)) => {
            traced_layers(
                report,
                out,
                &priming,
                &reqs,
                &d,
                &stats_frame,
                &metrics_frame,
            )?;
        }
    }
    Ok(())
}

fn num(v: &Json, key: &str) -> f64 {
    match v.get(key) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// Summed per-request microseconds of one kind, by layer.
#[derive(Default, Clone, Copy)]
struct Layers {
    n: f64,
    parse: f64,
    convert: f64,
    canon_key: f64,
    program_key: f64,
    verdict_native: f64,
    verdict_cat: f64,
    observe: f64,
    outcomes_native: f64,
    outcomes_cat: f64,
}

impl Layers {
    fn session_total(&self) -> f64 {
        self.parse
            + self.convert
            + self.canon_key
            + self.program_key
            + self.verdict_native
            + self.verdict_cat
            + self.observe
            + self.outcomes_native
            + self.outcomes_cat
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Run `f`, adding its microseconds to `slot` when `acc` is timing.
fn lap<T>(
    acc: &mut Option<&mut Layers>,
    slot: fn(&mut Layers) -> &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    match acc {
        Some(l) => {
            let t = Instant::now();
            let v = f();
            *slot(l) += us(t);
            v
        }
        None => f(),
    }
}

/// One request through the Session-level calls, each timed into `acc`
/// or, with `None`, untimed (the overhead base).
fn session_request(
    session: &mut Session,
    groups: &[Vec<ModelRef>; 2],
    r: &Req,
    mut acc: Option<&mut Layers>,
) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", r.file);
    let test = lap(&mut acc, |l| &mut l.parse, || parse_litmus(&r.src)).map_err(|e| fail(&e))?;
    match r.kind {
        Kind::Check => {
            let x = lap(
                &mut acc,
                |l| &mut l.convert,
                || execution_from_litmus(&test),
            )
            .map_err(|e| fail(&e))?;
            lap(
                &mut acc,
                |l| &mut l.canon_key,
                || std::hint::black_box(canon_key(&x)),
            );
            lap(
                &mut acc,
                |l| &mut l.verdict_native,
                || session.verdicts_for(&x, &groups[0]),
            );
            lap(
                &mut acc,
                |l| &mut l.verdict_cat,
                || session.verdicts_for(&x, &groups[1]),
            );
            lap(
                &mut acc,
                |l| &mut l.observe,
                || session.observable(&x, test.arch),
            );
        }
        Kind::Outcomes => {
            lap(
                &mut acc,
                |l| &mut l.program_key,
                || std::hint::black_box(program_key(&test)),
            );
            lap(
                &mut acc,
                |l| &mut l.outcomes_native,
                || session.outcomes(&r.file, &test, Some(&groups[0])),
            )?;
            lap(
                &mut acc,
                |l| &mut l.outcomes_cat,
                || session.outcomes(&r.file, &test, Some(&groups[1])),
            )?;
        }
    }
    if let Some(l) = acc {
        l.n += 1.0;
    }
    Ok(())
}

/// What the two single-threaded Session replays observed.
struct SessionReplay {
    untimed_s: f64,
    timed_s: f64,
    /// Per kind, summed layer microseconds of the timed replay.
    layers: [Layers; 2],
    /// The timed replay's Session counters.
    stats: txmm::session::SessionStats,
}

/// Replay the stream single-threaded through two fresh Sessions, one
/// untimed and one with every layer call timed, alternating request by
/// request so both see the same host conditions. Which Session serves a
/// request first alternates too: the second one finds the request's
/// data already in the CPU caches.
fn session_replays(priming: &[Req], reqs: &[Req]) -> Result<SessionReplay, String> {
    let mut untimed = Session::with_shipped_cat();
    let mut timed = Session::with_shipped_cat();
    let (cat, native): (Vec<ModelRef>, Vec<ModelRef>) = timed
        .models()
        .partition(|&m| timed.model(m).name().ends_with(".cat"));
    let groups = [native, cat];
    for r in priming {
        session_request(&mut untimed, &groups, r, None)?;
        session_request(&mut timed, &groups, r, None)?;
    }
    let mut out = SessionReplay {
        untimed_s: 0.0,
        timed_s: 0.0,
        layers: [Layers::default(); 2],
        stats: Default::default(),
    };
    for (i, r) in reqs.iter().enumerate() {
        for timed_turn in [i % 2 == 1, i % 2 == 0] {
            let t = Instant::now();
            if timed_turn {
                let acc = Some(&mut out.layers[r.kind as usize]);
                session_request(&mut timed, &groups, r, acc)?;
                out.timed_s += t.elapsed().as_secs_f64();
            } else {
                session_request(&mut untimed, &groups, r, None)?;
                out.untimed_s += t.elapsed().as_secs_f64();
            }
        }
    }
    out.stats = timed.stats();
    Ok(out)
}

/// What the `SessionPool` replay observed.
struct PoolReplay {
    /// Per kind: `(requests, summed pool µs)`.
    per_kind: [(f64, f64); 2],
    /// FNV of every answer, by stream index.
    answers: Vec<u64>,
}

/// Replay the stream through a 2-shard `SessionPool` from the same two
/// client threads.
fn pool_replay(priming: &[Req], reqs: &[Req]) -> Result<PoolReplay, String> {
    let pool = SessionPool::new(&PoolConfig {
        shards: SHARDS,
        with_cat: true,
        cat_files: Vec::new(),
    })?;
    let call = |r: &Req| match r.kind {
        Kind::Check => pool.check(&r.file, &r.src, None),
        Kind::Outcomes => pool.outcomes(&r.file, &r.src, None, None),
    };
    for r in priming {
        call(r);
    }
    let cursor = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(reqs.len()));
    thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(r) = reqs.get(i) else { break };
                    let t = Instant::now();
                    let line = call(r);
                    mine.push((i, us(t), fnv(line.as_bytes())));
                }
                results.lock().expect("results lock").extend(mine);
            });
        }
    });
    pool.shutdown();
    let mut replay = PoolReplay {
        per_kind: [(0.0, 0.0); 2],
        answers: vec![0; reqs.len()],
    };
    for (i, t, h) in results.into_inner().expect("results lock") {
        let k = &mut replay.per_kind[reqs[i].kind as usize];
        k.0 += 1.0;
        k.1 += t;
        replay.answers[i] = h;
    }
    Ok(replay)
}

fn traced_layers(
    report: &mut Report,
    out: &mut Outcome,
    priming: &[Req],
    reqs: &[Req],
    d: &Drive,
    stats_frame: &str,
    metrics_frame: &str,
) -> Result<(), String> {
    // Daemon-side counters from the stats and metrics frames.
    let s = parse_json(stats_frame).map_err(|e| format!("stats frame: {e}"))?;
    report.set(
        "session.verdict_hit_ratio",
        stats::hit_ratio(
            num(&s, "verdict_hits") as u64,
            num(&s, "verdict_misses") as u64,
        ),
    );
    report.set(
        "session.outcome_hit_ratio",
        stats::hit_ratio(
            num(&s, "outcome_hits") as u64,
            num(&s, "outcome_misses") as u64,
        ),
    );
    report.set("session.interned", num(&s, "interned"));
    report.set("session.outcome_entries", num(&s, "outcome_entries"));
    report.set("cat.compile_us", num(&s, "compile_micros"));
    let served: Vec<u64> = s
        .get("per_shard")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|sh| num(sh, "served") as u64)
        .collect();
    report.set("daemon.shard_skew", stats::skew(&served));
    let m = parse_json(metrics_frame).map_err(|e| format!("metrics frame: {e}"))?;
    let queue_p99 = match m.get("metrics") {
        Some(Json::Obj(series)) => series
            .iter()
            .filter(|(k, _)| k.starts_with("txmm_shard_queue_wait_microseconds"))
            .map(|(_, v)| num(v, "p99"))
            .fold(0.0, f64::max),
        _ => 0.0,
    };
    report.set("daemon.queue_wait_p99_us", queue_p99);

    // In-process replays of the same stream.
    let pool = pool_replay(priming, reqs)?;
    for (i, frame) in &d.frames {
        let same = frame.len() == 1 && fnv(frame[0].as_bytes()) == pool.answers[*i];
        out.check(same, || {
            format!("{}: pool answer differs from the daemon's", reqs[*i].file)
        });
    }
    let replay = session_replays(priming, reqs)?;
    report.set(
        "bench.trace_overhead",
        stats::overhead(replay.timed_s, replay.untimed_s),
    );
    let st = replay.stats;
    let [check, outcomes] = replay.layers;
    let per = |sum: f64, l: &Layers| stats::ratio(sum, l.n);
    report.set(
        "litmus.parse_us",
        stats::ratio(check.parse + outcomes.parse, check.n + outcomes.n),
    );
    report.set("litmus.convert_us", per(check.convert, &check));
    report.set("synth.canon_key_us", per(check.canon_key, &check));
    report.set(
        "litmus.program_key_us",
        per(outcomes.program_key, &outcomes),
    );
    report.set(
        "session.verdict_native_us",
        per(check.verdict_native, &check),
    );
    report.set("session.verdict_cat_us", per(check.verdict_cat, &check));
    report.set("hwsim.observe_us", per(check.observe, &check));
    report.set(
        "session.outcomes_native_us",
        per(outcomes.outcomes_native, &outcomes),
    );
    report.set(
        "session.outcomes_cat_us",
        per(outcomes.outcomes_cat, &outcomes),
    );
    let per_outcomes = |v: u64| stats::ratio(v as f64, outcomes.n);
    report.set(
        "session.outcome_candidates",
        per_outcomes(st.outcome_candidates),
    );
    report.set("session.outcome_classes", per_outcomes(st.outcome_classes));
    report.set("session.prune_fallbacks", per_outcomes(st.prune_fallbacks));
    report.set(
        "session.prune_delta_answers",
        per_outcomes(st.prune_delta_answers),
    );

    // Per kind: session layers + dispatch + transport = client round trip.
    let (mut attributed, mut total) = (0.0, 0.0);
    for (k, l) in [(Kind::Check, &check), (Kind::Outcomes, &outcomes)] {
        let name = kind_name(k);
        let rtt = stats::mean(d.rtt_us.get(name).map(Vec::as_slice).unwrap_or_default());
        let (n_pool, sum_pool) = pool.per_kind[k as usize];
        let pool_us = stats::ratio(sum_pool, n_pool);
        let session_us = per(l.session_total(), l);
        let dispatch = pool_us - session_us;
        let transport = rtt - pool_us;
        let (dispatch_key, transport_key) = match k {
            Kind::Check => ("daemon.dispatch_us.check", "daemon.transport_us.check"),
            Kind::Outcomes => (
                "daemon.dispatch_us.outcomes",
                "daemon.transport_us.outcomes",
            ),
        };
        report.set(dispatch_key, dispatch);
        report.set(transport_key, transport);
        report.note(format!(
            "{name}: round trip {rtt:.1} us = session {session_us:.1} + dispatch {dispatch:.1} \
             + transport {transport:.1} (n={})",
            l.n
        ));
        // A negative residual means two replays disagree about a layer:
        // its magnitude counts as unattributed time.
        attributed += l.n * (session_us + dispatch.max(0.0) + transport.max(0.0));
        total += l.n * rtt;
    }
    let unattributed = stats::unattributed_share(attributed, total);
    report.set("bench.unattributed_share", unattributed);
    out.check(unattributed <= TOLERANCE, || {
        format!("serving: unattributed share {unattributed:.4} exceeds {TOLERANCE}")
    });
    Ok(())
}
