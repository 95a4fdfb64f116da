//! Live walk telemetry: progress accounting for long enumeration
//! walks, a heartbeat reporter emitting machine-readable JSONL frames,
//! and a read-only metrics sidecar for one-shot processes.
//!
//! A [`WalkProgress`] is the shared accumulator: the walk driver
//! declares total work up front (in subtree *weight units*, a
//! closed-form per-subtree size proxy), workers flush per-subtree
//! deltas — weight done, candidates emitted, classes kept, prune cuts
//! — through lock-free atomics, and every delta is mirrored into the
//! process-wide registry as `txmm_walk_*` series so the exposition
//! (daemon or sidecar) sees the walk mid-flight. Per-worker
//! [`WorkerLane`]s add busy/steal/idle accounting for utilisation.
//!
//! The [`Reporter`] samples a snapshot on an interval and writes one
//! JSON object per line (fraction done, candidates/sec, a smoothed
//! ETA, per-worker utilisation) to stderr or a file — never stdout,
//! which stays byte-identical to an untelemetered run. The
//! [`MetricsSidecar`] is a tiny TCP listener speaking the daemon's
//! `metrics` request frame, so `txmm client ADDR metrics [--prom]`
//! scrapes a long one-shot walk without a daemon in front of it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::{global, Counter, Gauge};

/// Lock-free per-worker accounting: jobs run, jobs stolen, and wall
/// time split busy (inside a job) vs idle (waiting for work). One lane
/// per pool worker, registered by the pool itself.
#[derive(Default)]
pub struct WorkerLane {
    pub jobs: AtomicU64,
    pub steals: AtomicU64,
    pub busy_micros: AtomicU64,
    pub idle_micros: AtomicU64,
}

/// A point-in-time copy of one [`WorkerLane`].
#[derive(Debug, Clone, Copy)]
pub struct LaneSnapshot {
    pub jobs: u64,
    pub steals: u64,
    pub busy_micros: u64,
    pub idle_micros: u64,
}

impl LaneSnapshot {
    /// Busy fraction of this lane's observed (busy + idle) time.
    pub(crate) fn utilisation(&self) -> f64 {
        let total = self.busy_micros + self.idle_micros;
        if total == 0 {
            0.0
        } else {
            self.busy_micros as f64 / total as f64
        }
    }
}

/// Shared progress accumulator for one logical walk (an enumeration,
/// a synthesis sweep, an outcome table build). Cheap to share across
/// threads (`Arc<WalkProgress>`); every mutation is a relaxed atomic.
///
/// Every counter delta is mirrored into the global registry:
///
/// | series | kind | meaning |
/// |---|---|---|
/// | `txmm_walk_subtrees_total` | counter | frontier subtrees completed |
/// | `txmm_walk_candidates_total` | counter | candidates emitted by the walk |
/// | `txmm_walk_classes_total` | counter | classes kept after the leaf check |
/// | `txmm_walk_cuts_total` | counter | prune cuts taken |
/// | `txmm_walk_skipped_total` | counter | candidates skipped by cuts |
/// | `txmm_walk_work_done` | gauge | weight units completed (this walk) |
/// | `txmm_walk_work_total` | gauge | weight units planned (0 = unknown) |
/// | `txmm_walk_workers` | gauge | pool workers registered |
pub struct WalkProgress {
    started: Instant,
    total: AtomicU64,
    done: AtomicU64,
    subtrees: AtomicU64,
    candidates: AtomicU64,
    classes: AtomicU64,
    cuts: AtomicU64,
    skipped: AtomicU64,
    lanes: Mutex<Vec<Arc<WorkerLane>>>,
    g_subtrees: Counter,
    g_candidates: Counter,
    g_classes: Counter,
    g_cuts: Counter,
    g_skipped: Counter,
    g_done: Gauge,
    g_total: Gauge,
    g_workers: Gauge,
}

impl Default for WalkProgress {
    fn default() -> Self {
        WalkProgress::new()
    }
}

impl WalkProgress {
    /// A fresh accumulator whose registry handles live as long as it
    /// does. Create one per walk (or one per long-lived shard), not
    /// per subtree.
    pub fn new() -> WalkProgress {
        let obs = global();
        WalkProgress {
            started: Instant::now(),
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            subtrees: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            classes: AtomicU64::new(0),
            cuts: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            lanes: Mutex::new(Vec::new()),
            g_subtrees: obs.counter(
                "txmm_walk_subtrees_total",
                "Frontier subtrees completed by enumeration walks.",
            ),
            g_candidates: obs.counter(
                "txmm_walk_candidates_total",
                "Candidates emitted by enumeration walks.",
            ),
            g_classes: obs.counter(
                "txmm_walk_classes_total",
                "Classes kept after the walk's leaf check.",
            ),
            g_cuts: obs.counter(
                "txmm_walk_cuts_total",
                "Prune cuts taken during enumeration walks.",
            ),
            g_skipped: obs.counter(
                "txmm_walk_skipped_total",
                "Candidates skipped by prune cuts during walks.",
            ),
            g_done: obs.gauge(
                "txmm_walk_work_done",
                "Weight units of walk work completed.",
            ),
            g_total: obs.gauge(
                "txmm_walk_work_total",
                "Weight units of walk work planned (0 when unknown).",
            ),
            g_workers: obs.gauge(
                "txmm_walk_workers",
                "Pool workers registered with the walk.",
            ),
        }
    }

    /// Declare `units` more planned work (weight units). Callable
    /// repeatedly — a session accumulating several walks adds each
    /// walk's plan as it starts.
    pub fn add_total(&self, units: u64) {
        self.total.fetch_add(units, Ordering::Relaxed);
        self.g_total.add(units as i64);
    }

    /// Flush one completed subtree: its weight, the candidates it
    /// emitted, and the prune-cut deltas accumulated while walking it.
    pub fn subtree_done(&self, weight: u64, candidates: u64, cuts: u64, skipped: u64) {
        self.done.fetch_add(weight, Ordering::Relaxed);
        self.subtrees.fetch_add(1, Ordering::Relaxed);
        self.candidates.fetch_add(candidates, Ordering::Relaxed);
        self.cuts.fetch_add(cuts, Ordering::Relaxed);
        self.skipped.fetch_add(skipped, Ordering::Relaxed);
        self.g_done.add(weight as i64);
        self.g_subtrees.inc();
        self.g_candidates.add(candidates);
        self.g_cuts.add(cuts);
        self.g_skipped.add(skipped);
    }

    /// Record `n` classes kept by the leaf check.
    pub fn add_classes(&self, n: u64) {
        self.classes.fetch_add(n, Ordering::Relaxed);
        self.g_classes.add(n);
    }

    /// Register `n` pool workers, returning their lanes. Repeated pool
    /// runs within one walk append new lanes (utilisation is per run).
    pub fn register_workers(&self, n: usize) -> Vec<Arc<WorkerLane>> {
        let fresh: Vec<Arc<WorkerLane>> = (0..n).map(|_| Arc::new(WorkerLane::default())).collect();
        let mut lanes = self.lanes.lock().expect("lanes");
        lanes.extend(fresh.iter().cloned());
        self.g_workers.set(lanes.len() as i64);
        fresh
    }

    /// Consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let lanes = self.lanes.lock().expect("lanes");
        ProgressSnapshot {
            elapsed: self.started.elapsed(),
            total: self.total.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed),
            subtrees: self.subtrees.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            classes: self.classes.load(Ordering::Relaxed),
            cuts: self.cuts.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            workers: lanes
                .iter()
                .map(|l| LaneSnapshot {
                    jobs: l.jobs.load(Ordering::Relaxed),
                    steals: l.steals.load(Ordering::Relaxed),
                    busy_micros: l.busy_micros.load(Ordering::Relaxed),
                    idle_micros: l.idle_micros.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`WalkProgress`].
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    pub elapsed: Duration,
    pub total: u64,
    pub done: u64,
    pub subtrees: u64,
    pub candidates: u64,
    pub classes: u64,
    pub cuts: u64,
    pub skipped: u64,
    pub workers: Vec<LaneSnapshot>,
}

impl ProgressSnapshot {
    /// Fraction of planned work completed; `None` when no total was
    /// declared. Clamped to 1.0 (weights are a proxy, not a promise).
    pub(crate) fn fraction(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some((self.done as f64 / self.total as f64).min(1.0))
        }
    }

    /// One JSONL progress frame. `rate` is the smoothed candidates/sec
    /// estimate, `eta` the smoothed seconds-remaining estimate (both
    /// `None` before the reporter has two samples or without a total).
    pub(crate) fn frame(&self, rate: Option<f64>, eta: Option<f64>, last: bool) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"progress\":{{\"elapsed_secs\":{:.3}",
            self.elapsed.as_secs_f64()
        ));
        match self.fraction() {
            Some(f) => out.push_str(&format!(",\"fraction\":{f:.6}")),
            None => out.push_str(",\"fraction\":null"),
        }
        out.push_str(&format!(
            ",\"work_done\":{},\"work_total\":{},\"subtrees\":{},\"candidates\":{},\
             \"classes\":{},\"cuts\":{},\"skipped\":{}",
            self.done,
            self.total,
            self.subtrees,
            self.candidates,
            self.classes,
            self.cuts,
            self.skipped
        ));
        match rate {
            Some(r) => out.push_str(&format!(",\"candidates_per_sec\":{r:.1}")),
            None => out.push_str(",\"candidates_per_sec\":null"),
        }
        match eta {
            Some(e) => out.push_str(&format!(",\"eta_secs\":{e:.1}")),
            None => out.push_str(",\"eta_secs\":null"),
        }
        out.push_str(&format!(",\"resident_bytes\":{}", resident_bytes()));
        out.push_str(",\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"jobs\":{},\"steals\":{},\"utilisation\":{:.3}}}",
                w.jobs,
                w.steals,
                w.utilisation()
            ));
        }
        out.push(']');
        out.push_str(&format!(",\"final\":{last}}}}}"));
        out
    }
}

// ---- Process gauges ------------------------------------------------------

/// `txmm_build_info{version=...} 1` plus the resident-set gauge the
/// reporter samples. Registered once per process, first use wins.
fn process_gauges() -> &'static (Gauge, Gauge) {
    static GAUGES: OnceLock<(Gauge, Gauge)> = OnceLock::new();
    GAUGES.get_or_init(|| {
        let obs = global();
        let build = obs.gauge_with(
            "txmm_build_info",
            "Build information; the value is always 1.",
            &[("version", env!("CARGO_PKG_VERSION"))],
        );
        build.set(1);
        let resident = obs.gauge(
            "txmm_process_resident_bytes",
            "Resident set size of this process (0 where unsupported).",
        );
        resident.set(resident_bytes() as i64);
        (build, resident)
    })
}

/// Publish the `txmm_build_info` / `txmm_process_resident_bytes`
/// gauges (idempotent). Call once from any long-running entry point.
pub(crate) fn publish_process_info() {
    process_gauges();
}

/// Resident set size in bytes: `/proc/self/statm` field 2 × the
/// conventional 4 KiB page on Linux, 0 elsewhere.
pub(crate) fn resident_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(s) = std::fs::read_to_string("/proc/self/statm") {
            if let Some(pages) = s.split_whitespace().nth(1) {
                if let Ok(p) = pages.parse::<u64>() {
                    return p * 4096;
                }
            }
        }
    }
    0
}

// ---- The heartbeat reporter ---------------------------------------------

/// Where progress frames go. Never stdout: the walk's own output must
/// stay byte-identical with telemetry enabled.
pub enum ProgressSink {
    Stderr,
    File(PathBuf),
}

enum SinkWriter {
    Stderr,
    File(std::fs::File),
}

impl SinkWriter {
    fn write_line(&mut self, line: &str) {
        match self {
            SinkWriter::Stderr => {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{line}");
                let _ = err.flush();
            }
            SinkWriter::File(f) => {
                let _ = writeln!(f, "{line}");
                let _ = f.flush();
            }
        }
    }
}

/// Background heartbeat: samples a [`WalkProgress`] every `interval`,
/// smooths the candidate rate with an EWMA, refreshes the resident-set
/// gauge, and writes one JSONL frame per sample. [`Reporter::finish`]
/// stops the thread and emits a last frame (`"final":true`) whose
/// totals are read *after* the walk returned, so they equal the walk's
/// returned counts.
pub struct Reporter {
    progress: Arc<WalkProgress>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    sink: Arc<Mutex<SinkWriter>>,
}

impl Reporter {
    /// Start the heartbeat thread. Opening the sink file eagerly
    /// surfaces path errors before the walk starts.
    pub fn start(
        progress: Arc<WalkProgress>,
        interval: Duration,
        sink: ProgressSink,
    ) -> std::io::Result<Reporter> {
        publish_process_info();
        let writer = match sink {
            ProgressSink::Stderr => SinkWriter::Stderr,
            ProgressSink::File(p) => SinkWriter::File(std::fs::File::create(p)?),
        };
        let sink = Arc::new(Mutex::new(writer));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let progress = progress.clone();
            let stop = stop.clone();
            let sink = sink.clone();
            std::thread::Builder::new()
                .name("txmm-progress".into())
                .spawn(move || {
                    let mut rate: Option<f64> = None;
                    let mut unit_rate: Option<f64> = None;
                    let mut prev: Option<(Duration, u64, u64)> = None;
                    // Sample in short slices so finish() returns
                    // promptly even with a long interval.
                    let tick = interval
                        .min(Duration::from_millis(50))
                        .max(Duration::from_millis(1));
                    let mut next_frame = Instant::now() + interval;
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        if Instant::now() < next_frame {
                            std::thread::sleep(tick);
                            continue;
                        }
                        next_frame += interval;
                        let snap = progress.snapshot();
                        process_gauges().1.set(resident_bytes() as i64);
                        if let Some((t0, cand0, done0)) = prev {
                            let dt = (snap.elapsed - t0).as_secs_f64();
                            if dt > 0.0 {
                                let inst = (snap.candidates - cand0) as f64 / dt;
                                rate = Some(match rate {
                                    Some(r) => 0.7 * r + 0.3 * inst,
                                    None => inst,
                                });
                                let inst_u = (snap.done - done0) as f64 / dt;
                                unit_rate = Some(match unit_rate {
                                    Some(r) => 0.7 * r + 0.3 * inst_u,
                                    None => inst_u,
                                });
                            }
                        }
                        prev = Some((snap.elapsed, snap.candidates, snap.done));
                        let eta = match (unit_rate, snap.total) {
                            (Some(r), total) if r > 0.0 && total > snap.done => {
                                Some((total - snap.done) as f64 / r)
                            }
                            _ => None,
                        };
                        let line = snap.frame(rate, eta, false);
                        sink.lock().expect("progress sink").write_line(&line);
                    }
                })?
        };
        Ok(Reporter {
            progress,
            stop,
            handle: Some(handle),
            sink,
        })
    }

    /// Stop the heartbeat and emit the final frame. Call after the
    /// walk has returned so the frame's totals match its counts.
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        process_gauges().1.set(resident_bytes() as i64);
        let snap = self.progress.snapshot();
        let line = snap.frame(None, Some(0.0), true);
        self.sink.lock().expect("progress sink").write_line(&line);
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---- The metrics sidecar -------------------------------------------------

/// A read-only TCP listener exposing the global registry with the
/// daemon's `metrics` wire frame: one JSON request line in, response
/// lines out, a blank line terminating each response. Anything other
/// than a `metrics` request gets an error frame — the sidecar mutates
/// nothing.
pub struct MetricsSidecar {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsSidecar {
    /// The address actually bound (useful with a `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsSidecar {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Serve the global registry on `addr` until the returned handle is
/// dropped. Std-only: a non-blocking accept loop on one thread, one
/// short-lived thread per connection.
pub fn serve_metrics(addr: &str) -> std::io::Result<MetricsSidecar> {
    publish_process_info();
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("txmm-metrics".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = std::thread::Builder::new()
                                .name("txmm-metrics-conn".into())
                                .spawn(move || serve_conn(stream));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?
    };
    Ok(MetricsSidecar {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

fn serve_conn(stream: TcpStream) {
    // A stuck client must not pin the connection thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut out = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let req = line.trim();
        if req.is_empty() {
            continue;
        }
        let response = if req.contains("\"cmd\":\"metrics\"") || req == "metrics" {
            if req.contains("\"format\":\"prom\"") {
                process_gauges().1.set(resident_bytes() as i64);
                global()
                    .render_prom()
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .collect::<Vec<_>>()
                    .join("\n")
            } else {
                process_gauges().1.set(resident_bytes() as i64);
                global().render_json()
            }
        } else {
            "{\"error\":\"metrics sidecar: only the metrics command is served\"}".to_string()
        };
        if out.write_all(format!("{response}\n\n").as_bytes()).is_err() {
            return;
        }
        let _ = out.flush();
    }
}

/// Live walk telemetry asked for on the command line:
/// `--progress[=SECS]` starts a heartbeat [`Reporter`] on stderr (or on
/// FILE with `--progress-file FILE`), and `--metrics-listen ADDR` a
/// `MetricsSidecar`. Hand `progress` to the walks, and call
/// [`Telemetry::finish`] after the last one so the final frame's totals
/// match the run.
pub struct Telemetry {
    /// The shared accumulator the walks report into.
    pub progress: Arc<WalkProgress>,
    reporter: Option<Reporter>,
    _sidecar: Option<MetricsSidecar>,
}

impl Telemetry {
    /// The flags [`Telemetry::from_args`] reads, each with whether it
    /// takes the next word as its value. `--progress` may instead carry
    /// its interval attached, as `--progress=SECS`.
    pub const FLAGS: [(&'static str, bool); 3] = [
        ("--progress", false),
        ("--progress-file", true),
        ("--metrics-listen", true),
    ];

    /// Parse the telemetry flags out of command-line words and start
    /// what they ask for; `None` (no overhead) when none is present.
    /// Every other word is skipped: the caller refuses what it does not
    /// read. `SECS` must be a positive number of seconds; a flag without
    /// its value, an unwritable progress file or a busy metrics address
    /// is an error, reported before any walk starts. A sidecar alone
    /// still gets the walk counters ticking, but only `--progress` or
    /// `--progress-file` starts the heartbeat.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<Option<Telemetry>, String> {
        let [(progress, _), (progress_file, _), _] = Self::FLAGS;
        let mut interval: Option<Duration> = None;
        let (mut file, mut listen) = (None, None);
        let mut words = args.iter().map(AsRef::as_ref);
        while let Some(a) = words.next() {
            if Self::FLAGS.contains(&(a, true)) {
                let v = words.next().filter(|v| !v.starts_with("--"));
                let v = v.ok_or_else(|| format!("{a} expects a value"))?;
                if a == progress_file {
                    file = Some(PathBuf::from(v));
                } else {
                    listen = Some(v);
                }
            } else if a == progress {
                interval = Some(Duration::from_secs(1));
            } else if let Some(v) = a.strip_prefix(progress).and_then(|v| v.strip_prefix('=')) {
                let secs = v.parse::<f64>().ok();
                let iv = secs.and_then(|s| Duration::try_from_secs_f64(s).ok());
                interval = Some(
                    iv.filter(|iv| !iv.is_zero())
                        .ok_or_else(|| format!("{a}: expected a positive number of seconds"))?,
                );
            }
        }
        if interval.is_none() && file.is_none() && listen.is_none() {
            return Ok(None);
        }
        let progress = Arc::new(WalkProgress::new());
        let sidecar = match listen {
            Some(addr) => {
                let s = serve_metrics(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
                eprintln!("metrics sidecar listening on {}", s.addr());
                Some(s)
            }
            None => None,
        };
        let reporter = if interval.is_some() || file.is_some() {
            let sink = file.map_or(ProgressSink::Stderr, ProgressSink::File);
            let iv = interval.unwrap_or(Duration::from_secs(1));
            Some(
                Reporter::start(progress.clone(), iv, sink)
                    .map_err(|e| format!("cannot start progress reporter: {e}"))?,
            )
        } else {
            None
        };
        let telemetry = Telemetry {
            progress,
            reporter,
            _sidecar: sidecar,
        };
        Ok(Some(telemetry))
    }

    /// Stop the heartbeat (emitting the final frame, whose totals now
    /// equal the walks' returned counts) and close the sidecar.
    pub fn finish(self) {
        if let Some(r) = self.reporter {
            r.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_accumulates_and_snapshots() {
        let p = WalkProgress::new();
        p.add_total(100);
        p.subtree_done(10, 5, 2, 30);
        p.subtree_done(20, 7, 0, 0);
        p.add_classes(4);
        let lanes = p.register_workers(2);
        lanes[0].jobs.fetch_add(3, Ordering::Relaxed);
        lanes[0].busy_micros.fetch_add(900, Ordering::Relaxed);
        lanes[0].idle_micros.fetch_add(100, Ordering::Relaxed);
        let s = p.snapshot();
        assert_eq!(s.total, 100);
        assert_eq!(s.done, 30);
        assert_eq!(s.subtrees, 2);
        assert_eq!(s.candidates, 12);
        assert_eq!(s.classes, 4);
        assert_eq!(s.cuts, 2);
        assert_eq!(s.skipped, 30);
        assert_eq!(s.fraction(), Some(0.3));
        assert_eq!(s.workers.len(), 2);
        assert!((s.workers[0].utilisation() - 0.9).abs() < 1e-9);
        let frame = s.frame(Some(12.5), Some(3.0), false);
        assert!(frame.contains("\"fraction\":0.3"), "{frame}");
        assert!(frame.contains("\"candidates\":12"), "{frame}");
        assert!(frame.contains("\"final\":false"), "{frame}");
        assert!(!frame.contains('\n'), "frame must be one line: {frame}");
    }

    #[test]
    fn fraction_unknown_without_total() {
        let p = WalkProgress::new();
        p.subtree_done(5, 1, 0, 0);
        let s = p.snapshot();
        assert_eq!(s.fraction(), None);
        assert!(s.frame(None, None, true).contains("\"fraction\":null"));
    }

    #[test]
    fn reporter_emits_final_frame_with_walk_totals() {
        let p = Arc::new(WalkProgress::new());
        p.add_total(10);
        let tmp =
            std::env::temp_dir().join(format!("txmm-progress-test-{}.jsonl", std::process::id()));
        let rep = Reporter::start(
            p.clone(),
            Duration::from_millis(5),
            ProgressSink::File(tmp.clone()),
        )
        .expect("reporter");
        for _ in 0..10 {
            p.subtree_done(1, 3, 0, 0);
            std::thread::sleep(Duration::from_millis(3));
        }
        p.add_classes(17);
        rep.finish();
        let text = std::fs::read_to_string(&tmp).expect("progress file");
        let _ = std::fs::remove_file(&tmp);
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        let last = lines.last().unwrap();
        assert!(last.contains("\"final\":true"), "{last}");
        assert!(last.contains("\"candidates\":30"), "{last}");
        assert!(last.contains("\"classes\":17"), "{last}");
        assert!(last.contains("\"fraction\":1.0"), "{last}");
        // Fractions are monotone non-decreasing across frames.
        let mut prev = -1.0f64;
        for l in &lines {
            let f = l
                .split("\"fraction\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(prev.max(0.0));
            assert!(f >= prev, "fraction decreased: {text}");
            prev = f;
        }
    }

    #[test]
    fn sidecar_serves_metrics_and_rejects_writes() {
        let sidecar = serve_metrics("127.0.0.1:0").expect("bind");
        let c = global().counter("txmm_test_sidecar_total", "sidecar test counter");
        c.add(3);
        let mut conn = TcpStream::connect(sidecar.addr()).expect("connect");
        conn.write_all(b"{\"cmd\":\"metrics\"}\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"metrics\""), "{line}");
        assert!(line.contains("txmm_test_sidecar_total"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "", "blank terminator expected");
        // Prometheus form on the same connection.
        conn.write_all(b"{\"cmd\":\"metrics\",\"format\":\"prom\"}\n")
            .unwrap();
        let mut saw_counter = false;
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
            if line.starts_with("txmm_test_sidecar_total") {
                saw_counter = true;
            }
        }
        assert!(saw_counter);
        assert!(line.trim().is_empty());
        // Anything else is refused.
        conn.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"error\""), "{line}");
    }

    #[test]
    fn telemetry_flags_refuse_bad_values() {
        let none: [&str; 2] = ["quick", "--model"];
        let telemetry = Telemetry::from_args(&none).expect("no telemetry");
        assert!(telemetry.is_none());
        for (args, want) in [
            (
                &["--progress=0"][..],
                "--progress=0: expected a positive number of seconds",
            ),
            (
                &["--progress=abc"],
                "--progress=abc: expected a positive number of seconds",
            ),
            (
                &["--progress=inf"],
                "--progress=inf: expected a positive number of seconds",
            ),
            (&["--progress-file"], "--progress-file expects a value"),
            (
                &["--metrics-listen", "--progress"],
                "--metrics-listen expects a value",
            ),
        ] {
            assert_eq!(Telemetry::from_args(args).err().as_deref(), Some(want));
        }
    }

    #[test]
    fn a_busy_metrics_address_is_an_error() {
        let taken = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = taken.local_addr().expect("addr").to_string();
        let e = Telemetry::from_args(&["--metrics-listen", &addr]).err();
        let e = e.expect("a bound address is refused");
        assert!(e.starts_with(&format!("cannot listen on {addr}: ")), "{e}");
    }

    #[test]
    fn progress_file_receives_the_frames() {
        let tmp = std::env::temp_dir().join(format!("txmm-tele-{}.jsonl", std::process::id()));
        let path = tmp.to_str().expect("utf-8 path");
        let args = ["quick", "--progress-file", path, "--progres"];
        let t = Telemetry::from_args(&args).expect("starts");
        let t = t.expect("asked for");
        t.progress.add_total(4);
        t.progress.subtree_done(4, 9, 0, 0);
        t.finish();
        let text = std::fs::read_to_string(&tmp).expect("progress file written");
        let _ = std::fs::remove_file(&tmp);
        let last = text.lines().last().expect("a frame");
        assert!(last.contains("\"final\":true"), "{last}");
        assert!(last.contains("\"candidates\":9"), "{last}");
    }

    #[test]
    fn build_info_and_resident_gauges_exposed() {
        publish_process_info();
        let prom = global().render_prom();
        assert!(prom.contains("txmm_build_info{version="), "{prom}");
        assert!(prom.contains("txmm_process_resident_bytes"), "{prom}");
        #[cfg(target_os = "linux")]
        assert!(resident_bytes() > 0);
    }
}
