//! `txmm-serverd`: a concurrent socket daemon over a **sharded
//! [`Session`] pool**.
//!
//! The Session engine is long-lived by design; this module adds the
//! socket transport without one global lock around the engine:
//!
//! * **Sharded pool** ([`SessionPool`]): N shards, each one `Session`
//!   behind its own `Mutex`. The connection thread that parsed a
//!   request locks the shard the request routes to, runs the Session
//!   call itself and releases the lock before it renders and writes the
//!   answer. At most N requests compute at once, and a single `check`
//!   or `outcomes` request never changes threads on its way through.
//! * **Key routing**: a request's litmus text is parsed and converted
//!   on its connection thread, then routed by a hash of the execution's
//!   canonical (symmetry-reduced) key. Repeats of a test — and all its
//!   thread/location-symmetric variants — always land on the same shard,
//!   so the pool's caches collectively behave like one warm cache even
//!   though no cache is shared between shards, and none needs a lock of
//!   its own.
//! * **JSONL wire protocol** ([`crate::protocol`]): `check`, `batch`,
//!   `models`, `stats` and graceful `shutdown` requests, each answered
//!   by JSONL lines and a blank-line terminator. Payload lines reuse
//!   [`crate::serve::jsonl_line`] and [`crate::serve::outcomes_jsonl_line`],
//!   so daemon answers are byte-identical to one-shot `txmm serve` and
//!   `txmm outcomes` output over the same tests.
//! * **Batches**: `batch` and directory `outcomes` requests route their
//!   files on up to one scoped thread per shard, then serve each busy
//!   shard's files in input order on one thread per shard, so every
//!   busy shard computes at once and no two of them queue on one lock.
//! * **Contained panics**: a request that panics, inside a Session call
//!   or outside one, is answered with an `internal` error frame; its
//!   connection and its shard keep serving. In a batch only the file
//!   that panicked gets that frame.
//!
//! ```text
//! clients ──TCP/Unix──► connection thread: parse ─► route ─► lock ─► render ─► write
//!                       (one per client)                     │
//!                                        Mutex<Session> 0 ◄──┤
//!                                        Mutex<Session> 1 ◄──┤
//!                                        Mutex<Session> 2 ◄──┘
//! ```

use std::any::Any;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use txmm_litmus::LitmusTest;
use txmm_synth::canon_key;

use crate::protocol::{error_line, Request};
use crate::serve::{
    check_parsed, collect_litmus_files, jsonl_line, outcomes_jsonl_line, parse_outcomes_request,
    parse_request, read_source, ParsedTest, StageMicros, TestFailure,
};
use crate::session::{ModelRef, Session, SessionStats, SessionTelemetry};

/// How to build the pool's Sessions.
#[derive(Debug, Clone, Default)]
pub struct PoolConfig {
    /// Shard count, which is also how many requests may compute at
    /// once; 0 means one per available core (capped at 8).
    pub shards: usize,
    /// Also register the shipped `.cat` twins (`<name>.cat`).
    pub with_cat: bool,
    /// User-supplied `.cat` model files, registered on every shard.
    pub cat_files: Vec<PathBuf>,
}

impl PoolConfig {
    /// A Session with the configured models: the native ones, the
    /// shipped `.cat` twins under `with_cat`, then each `cat_files`
    /// entry. The pool builds each shard with it, and the one-shot
    /// commands their one Session.
    pub fn build_session(&self) -> Result<Session, String> {
        let mut s = if self.with_cat {
            Session::with_shipped_cat()
        } else {
            Session::new()
        };
        for path in &self.cat_files {
            s.register_cat_file(path)?;
        }
        Ok(s)
    }

    fn shard_count(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2)
    }
}

/// One shard's counters, as reported by the `stats` request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Check and outcomes requests this shard answered.
    pub served: u64,
    /// Requests waiting for or holding this shard at snapshot time.
    pub depth: u64,
    /// The shard Session's cache and arena counters.
    pub session: SessionStats,
    /// Accumulated per-stage serving time across this shard's requests
    /// (every stage ticks on the thread serving the request, not on a
    /// shard thread; `other` includes the wait for the shard).
    pub stages: StageMicros,
    /// The shard Session's walk-progress accumulator (cumulative over
    /// every outcome walk the shard has run; all zero before the
    /// first one).
    pub walk: WalkSnapshot,
}

/// A copyable digest of a shard's [`txmm_obs::WalkProgress`], carried
/// on [`ShardSnapshot`] so `stats` can show in-flight walk progress
/// per shard.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WalkSnapshot {
    /// Weighted work units completed.
    pub work_done: u64,
    /// Weighted work units planned.
    pub work_total: u64,
    /// Enumeration subtrees (abort splits) finished.
    pub subtrees: u64,
    /// Candidate executions emitted.
    pub candidates: u64,
    /// Canonical classes kept.
    pub classes: u64,
}

/// One shard: a Session behind a lock, plus everything `stats` reads
/// without taking that lock.
struct Shard {
    session: Mutex<Session>,
    /// Requests waiting for or holding `session`.
    depth: AtomicUsize,
    /// Requests answered, and the sum of their stage times.
    tally: Mutex<(u64, StageMicros)>,
    /// The Session's counters and `.cat` compile-stat sources.
    telemetry: Arc<SessionTelemetry>,
    /// The Session's walk-progress accumulator.
    walk: Arc<txmm_obs::WalkProgress>,
    /// `txmm_shard_queue_wait_microseconds{shard}`.
    lock_wait: txmm_obs::Histogram,
}

/// Decrements a counter when dropped, however its scope is left.
struct Leave<'a>(&'a AtomicUsize);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Shard {
    /// Run one Session call under this shard's lock: the only place a
    /// shard lock is taken, so no code path holds two. Keeps `depth`,
    /// and times the wait for the lock into `lock_wait`; returns the
    /// wait in microseconds beside the call's result.
    ///
    /// A panic inside `call` unwinds through the guard and poisons the
    /// lock, and the next caller takes the Session back with
    /// `into_inner`. That is sound because the Session's caches are
    /// insert-only and each insert stores a finished value: a call cut
    /// short leaves no half-written entry, only work a later request
    /// redoes.
    fn lock<R>(&self, call: impl FnOnce(&mut Session) -> R) -> (R, u64) {
        self.depth.fetch_add(1, Ordering::SeqCst);
        let _leave = Leave(&self.depth);
        let queued = Instant::now();
        let mut session = self.session.lock().unwrap_or_else(PoisonError::into_inner);
        let wait = queued.elapsed().as_micros() as u64;
        self.lock_wait.record(wait);
        (call(&mut session), wait)
    }

    /// Add one request's stage times, counting it as served if it was
    /// answered.
    fn record(&self, answered: bool, stages: &StageMicros) {
        let mut tally = self.tally.lock().unwrap_or_else(PoisonError::into_inner);
        tally.0 += u64::from(answered);
        add_stages(&mut tally.1, stages);
    }
}

fn add_stages(sum: &mut StageMicros, s: &StageMicros) {
    sum.parse += s.parse;
    sum.convert += s.convert;
    sum.verdict += s.verdict;
    sum.observe += s.observe;
    sum.other += s.other;
}

/// How many of the slowest requests the daemon remembers for `stats`.
const SLOWEST_CAP: usize = 8;

/// Request commands the pool pre-registers counters and latency
/// histograms for (handles are created once here, never per request;
/// `error` covers lines that failed to parse as any command).
const REQUEST_CMDS: [&str; 10] = [
    "check",
    "batch",
    "outcomes",
    "outcomes_batch",
    "reload",
    "models",
    "stats",
    "metrics",
    "shutdown",
    "error",
];

/// Pre-registered request-level observability: one counter + latency
/// histogram per command, the panic counter and the slowest-requests
/// ring.
struct PoolObs {
    cmds: Vec<(&'static str, txmm_obs::Counter, txmm_obs::Histogram)>,
    panics: txmm_obs::Counter,
    slowest: txmm_obs::Slowest,
}

impl PoolObs {
    fn new() -> PoolObs {
        let reg = txmm_obs::global();
        PoolObs {
            cmds: REQUEST_CMDS
                .iter()
                .map(|&cmd| {
                    (
                        cmd,
                        reg.counter_with(
                            "txmm_requests_total",
                            "Requests answered by the daemon, by command.",
                            &[("cmd", cmd)],
                        ),
                        reg.histogram_with(
                            "txmm_request_duration_microseconds",
                            "End-to-end request latency as seen by the daemon, by command.",
                            &[("cmd", cmd)],
                        ),
                    )
                })
                .collect(),
            panics: reg.counter(
                "txmm_request_panics_total",
                "Requests, or files of a batch, that panicked and were answered with an internal error.",
            ),
            slowest: txmm_obs::Slowest::new(SLOWEST_CAP),
        }
    }

    fn observe(&self, cmd: &str, what: &str, trace_id: Option<&str>, micros: u64) {
        if let Some((_, requests, durations)) = self.cmds.iter().find(|(c, _, _)| *c == cmd) {
            requests.inc();
            durations.record(micros);
        }
        self.slowest.record(what, micros, trace_id);
    }
}

/// The sharded Session pool. See the module docs for the routing
/// rules; all methods take `&self` and are safe to call from many
/// connection threads at once.
pub struct SessionPool {
    shards: Vec<Shard>,
    /// Failed requests (parse/convert failures, unknown models, refused
    /// programs, panics), mirrored into `txmm_dispatch_failures_total`.
    failures: txmm_obs::Counter,
    /// `(name, arch, is_tm)` of every registered model, in registry
    /// order (identical on every shard).
    models: Vec<(String, String, bool)>,
    /// User `.cat` files from the pool config, kept for hot reload.
    cat_files: Vec<PathBuf>,
    /// Request-level counters, latency histograms and the slowest ring.
    obs: PoolObs,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Resolve a model-name filter against a shard Session.
fn resolve_filter(
    session: &Session,
    models: Option<&[String]>,
) -> Result<Option<Vec<ModelRef>>, String> {
    match models {
        None => Ok(None),
        Some(names) => names
            .iter()
            .map(|n| {
                session
                    .resolve(n)
                    .ok_or_else(|| format!("unknown model {n} (try `models`)"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

impl SessionPool {
    /// Build the shard Sessions, surfacing `.cat` registration errors
    /// synchronously.
    pub fn new(cfg: &PoolConfig) -> Result<SessionPool, String> {
        let sessions = (0..cfg.shard_count())
            .map(|_| cfg.build_session())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SessionPool::with_sessions(sessions, cfg.cat_files.clone()))
    }

    /// A pool over ready-made shard Sessions with identical registries.
    fn with_sessions(sessions: Vec<Session>, cat_files: Vec<PathBuf>) -> SessionPool {
        let first = &sessions[0];
        let models = first
            .models()
            .map(|m| {
                let m = first.model(m);
                (m.name().to_string(), m.arch().name().to_string(), m.is_tm())
            })
            .collect();
        let shards = sessions
            .into_iter()
            .enumerate()
            .map(|(i, mut session)| {
                // Each shard accumulates its own walk progress; the
                // global registry sums the per-shard series, so a
                // `metrics` scrape sees pool-wide walk counters while
                // `stats` breaks them out per shard.
                let walk = Arc::new(txmm_obs::WalkProgress::new());
                session.set_walk_progress(Some(Arc::clone(&walk)));
                Shard {
                    telemetry: Arc::clone(&session.stats),
                    session: Mutex::new(session),
                    depth: AtomicUsize::new(0),
                    tally: Mutex::default(),
                    walk,
                    lock_wait: txmm_obs::global().histogram_with(
                        "txmm_shard_queue_wait_microseconds",
                        "Time a request waited for its shard's Session lock.",
                        &[("shard", &i.to_string())],
                    ),
                }
            })
            .collect();
        SessionPool {
            shards,
            failures: txmm_obs::global().counter(
                "txmm_dispatch_failures_total",
                "Requests that failed (parse errors, unknown models, refused programs, panics).",
            ),
            models,
            cat_files,
            obs: PoolObs::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a request key routes to.
    fn route(&self, key: &[u8]) -> usize {
        (fnv1a(key) as usize) % self.shards.len()
    }

    /// Serve one litmus source; returns the response payload line.
    pub fn check(&self, file: &str, src: &str, models: Option<Vec<String>>) -> String {
        match self.route_check(file, src) {
            Ok((shard, parsed)) => self.serve_check(shard, &parsed, models.as_deref()),
            Err(line) => line,
        }
    }

    /// Parse and convert on this thread, and route by the execution's
    /// canonical key.
    fn route_check(&self, file: &str, src: &str) -> Result<(usize, ParsedTest), String> {
        self.routed(parse_request(file, src), |parsed| canon_key(&parsed.exec))
    }

    /// Route a parsed request by `key`; a source that failed to parse is
    /// answered here (`check` and `outcomes` render a failure alike).
    fn routed<P>(
        &self,
        parsed: Result<P, TestFailure>,
        key: impl FnOnce(&P) -> Vec<u8>,
    ) -> Result<(usize, P), String> {
        match parsed {
            Ok(p) => Ok((self.route(&key(&p)), p)),
            Err(f) => {
                self.failures.inc();
                Err(f.jsonl_line())
            }
        }
    }

    /// Run the verdict and observe stages under `shard`'s lock, and
    /// render after releasing it.
    fn serve_check(&self, shard: usize, parsed: &ParsedTest, models: Option<&[String]>) -> String {
        let shard = &self.shards[shard];
        let (report, wait) = shard.lock(|s| {
            resolve_filter(s, models).map(|filter| check_parsed(s, parsed, filter.as_deref()))
        });
        #[cfg(test)]
        tests::fault_after_session(&parsed.file);
        match report {
            Ok(mut report) => {
                // The lock wait is part of the request's wall time but
                // of no compute stage.
                report.stages.other += wait;
                shard.record(true, &report.stages);
                jsonl_line(&Ok(report))
            }
            Err(e) => {
                self.failures.inc();
                error_line(&e)
            }
        }
    }

    /// Serve one litmus source through the outcome engine; returns the
    /// response payload line.
    pub fn outcomes(
        &self,
        file: &str,
        src: &str,
        models: Option<Vec<String>>,
        max_candidates: Option<u128>,
    ) -> String {
        match self.route_outcomes(file, src) {
            Ok((shard, test)) => {
                self.serve_outcomes(shard, file, &test, models.as_deref(), max_candidates)
            }
            Err(line) => line,
        }
    }

    /// Parse on this thread and route by the *program* key
    /// ([`txmm_litmus::program_key`]) — there is no pinned execution to
    /// key by — so repeats of a program (under any postcondition) land
    /// on the shard holding its warm outcome table.
    fn route_outcomes(&self, file: &str, src: &str) -> Result<(usize, LitmusTest), String> {
        self.routed(parse_outcomes_request(file, src), txmm_litmus::program_key)
    }

    /// Walk under `shard`'s lock, and render after releasing it.
    fn serve_outcomes(
        &self,
        shard: usize,
        file: &str,
        test: &LitmusTest,
        models: Option<&[String]>,
        max_candidates: Option<u128>,
    ) -> String {
        let shard = &self.shards[shard];
        let (result, wait) = shard.lock(|s| {
            resolve_filter(s, models).map(|filter| {
                let _span = txmm_obs::span!("serve.outcomes");
                s.outcomes_capped(file, test, filter.as_deref(), max_candidates)
            })
        });
        let stages = StageMicros {
            other: wait,
            ..StageMicros::default()
        };
        shard.record(matches!(result, Ok(Ok(_))), &stages);
        match result {
            Ok(Ok(report)) => outcomes_jsonl_line(&Ok(report)),
            Ok(Err(error)) => {
                self.failures.inc();
                let file = file.to_string();
                TestFailure { file, error }.jsonl_line()
            }
            Err(e) => {
                self.failures.inc();
                error_line(&e)
            }
        }
    }

    /// Serve `items` in input order, in two passes that each use at
    /// most one scoped thread per shard. First those threads route
    /// items taken from a shared cursor; then every shard with work
    /// gets one thread that serves that shard's items in input order,
    /// so every busy shard computes at once and no two threads wait on
    /// one lock. A panic answers only its own item.
    fn fan_out<T: Sync, P: Send>(
        &self,
        items: &[T],
        route: impl Fn(&T) -> Result<(usize, P), String> + Sync,
        serve: impl Fn(usize, P) -> String + Sync,
    ) -> Vec<String> {
        let cursor = AtomicUsize::new(0);
        let threads = self.shards.len().min(items.len());
        let routed = on_threads(vec![(); threads], |()| {
            let mut mine = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return mine;
                };
                mine.push((i, self.contain(|| route(item)).and_then(|routed| routed)));
            }
        });
        let mut routed: Vec<_> = routed.into_iter().flatten().collect();
        routed.sort_unstable_by_key(|&(i, _)| i);
        let mut lines = vec![String::new(); items.len()];
        let mut queues: Vec<Vec<(usize, P)>> = self.shards.iter().map(|_| Vec::new()).collect();
        for (i, routed) in routed {
            match routed {
                Ok((shard, p)) => queues[shard].push((i, p)),
                Err(line) => lines[i] = line,
            }
        }
        let busy: Vec<_> = queues
            .into_iter()
            .enumerate()
            .filter(|(_, queue)| !queue.is_empty())
            .collect();
        let served = on_threads(busy, |(shard, queue)| {
            let serve_one = |p| self.contain(|| serve(shard, p)).unwrap_or_else(|l| l);
            queue
                .into_iter()
                .map(|(i, p)| (i, serve_one(p)))
                .collect::<Vec<_>>()
        });
        for (i, line) in served.into_iter().flatten() {
            lines[i] = line;
        }
        lines
    }

    /// Run `f`, answering a panic with an `internal` frame that counts
    /// in `failures` and `txmm_request_panics_total`.
    fn contain<R>(&self, f: impl FnOnce() -> R) -> Result<R, String> {
        panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
            self.failures.inc();
            self.obs.panics.inc();
            internal_line(payload.as_ref())
        })
    }

    /// Hot-reload the pool's user `.cat` files into every shard: files
    /// are re-read, parsed and compiled once here (a file that fails
    /// either aborts the reload with a structured error and leaves every
    /// shard serving the old models), then each shard, one at a time,
    /// replaces its registrations in place under its lock. Returns the
    /// reloaded model names.
    pub(crate) fn reload(&self) -> Result<Vec<String>, String> {
        let mut sources = Vec::with_capacity(self.cat_files.len());
        for path in &self.cat_files {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("user-model")
                .to_string();
            // Validate before touching any shard.
            let file = txmm_cat::parse(&src).map_err(|e| format!("{name}: {e}"))?;
            txmm_cat::compile(&file).map_err(|e| format!("{name}: {e}"))?;
            sources.push((name, src));
        }
        for shard in &self.shards {
            let (reloaded, _) = shard.lock(|s| {
                sources
                    .iter()
                    .try_for_each(|(name, src)| s.reload_cat_source(name, src).map(drop))
            });
            reloaded?;
        }
        Ok(sources.into_iter().map(|(name, _)| name).collect())
    }

    /// Render the `reload` response line.
    pub(crate) fn reload_line(&self) -> String {
        match self.reload() {
            Ok(names) => {
                let list = names
                    .iter()
                    .map(|n| format!("\"{}\"", txmm_obs::json_escape(n)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"ok\":\"reload\",\"models\":[{list}],\"shards\":{}}}",
                    self.shards.len()
                )
            }
            Err(e) => format!(
                "{{\"error\":\"{}\",\"code\":\"reload\"}}",
                txmm_obs::json_escape(&e)
            ),
        }
    }

    /// Snapshot every shard (in shard order) plus the failure count,
    /// without taking any Session lock: in-flight requests show up in
    /// `depth` and in the walk counters instead of delaying the answer.
    pub(crate) fn stats(&self) -> (Vec<ShardSnapshot>, u64) {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let (served, stages) = *s.tally.lock().unwrap_or_else(PoisonError::into_inner);
                let walk = s.walk.snapshot();
                ShardSnapshot {
                    shard,
                    served,
                    depth: s.depth.load(Ordering::SeqCst) as u64,
                    session: s.telemetry.snapshot(),
                    stages,
                    walk: WalkSnapshot {
                        work_done: walk.done,
                        work_total: walk.total,
                        subtrees: walk.subtrees,
                        candidates: walk.candidates,
                        classes: walk.classes,
                    },
                }
            })
            .collect();
        (shards, self.failures.get())
    }

    /// Render the `stats` response line: the counters summed over the
    /// shards (with the hit rates), the stage split, the slowest ring
    /// and every shard's own counters.
    pub(crate) fn stats_line(&self) -> String {
        let (shards, failures) = self.stats();
        let mut total = SessionStats::default().fields();
        let mut stages = StageMicros::default();
        let mut served = 0u64;
        for s in &shards {
            served += s.served;
            for (sum, (_, v)) in total.iter_mut().zip(s.session.fields()) {
                sum.1 += v;
            }
            add_stages(&mut stages, &s.stages);
        }
        let per_shard = shards
            .iter()
            .map(|s| {
                let w = &s.walk;
                format!(
                    "{{\"shard\":{},\"served\":{},\"depth\":{},{},\
                     \"walk\":{{\"work_done\":{},\"work_total\":{},\"subtrees\":{},\
                     \"candidates\":{},\"classes\":{}}}}}",
                    s.shard,
                    s.served,
                    s.depth,
                    counters_json(&s.session.fields(), false),
                    w.work_done,
                    w.work_total,
                    w.subtrees,
                    w.candidates,
                    w.classes
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let slowest = self
            .obs
            .slowest
            .snapshot()
            .iter()
            .map(|e| {
                let trace_id = match &e.trace_id {
                    Some(t) => format!("\"{}\"", txmm_obs::json_escape(t)),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"what\":\"{}\",\"micros\":{},\"trace_id\":{trace_id}}}",
                    txmm_obs::json_escape(&e.what),
                    e.micros
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"shards\":{},\"served\":{served},\"failures\":{failures},{},\
             \"stage_micros\":{{\"parse\":{},\"convert\":{},\"verdict\":{},\
             \"observe\":{},\"other\":{}}},\"slowest\":[{slowest}],\
             \"per_shard\":[{per_shard}]}}",
            self.shards.len(),
            counters_json(&total, true),
            stages.parse,
            stages.convert,
            stages.verdict,
            stages.observe,
            stages.other,
        )
    }

    /// Render the `models` response lines.
    pub(crate) fn model_lines(&self) -> Vec<String> {
        self.models
            .iter()
            .map(|(name, arch, tm)| {
                format!(
                    "{{\"model\":\"{}\",\"arch\":\"{}\",\"tm\":{tm}}}",
                    txmm_obs::json_escape(name),
                    txmm_obs::json_escape(arch)
                )
            })
            .collect()
    }

    /// Tear the pool down; dropping it does the same.
    pub fn shutdown(self) {}
}

/// `"key":value` for every counter. With `rates`, each `<kind>_misses`
/// is followed by `<kind>_hit_rate` (`null` before any traffic).
fn counters_json(fields: &[(&str, u64)], rates: bool) -> String {
    let mut out = Vec::with_capacity(fields.len() + 4);
    for &(key, misses) in fields {
        out.push(format!("\"{key}\":{misses}"));
        let Some(kind) = key.strip_suffix("_misses").filter(|_| rates) else {
            continue;
        };
        let hits = fields
            .iter()
            .find(|(k, _)| k.strip_suffix("_hits") == Some(kind))
            .map_or(0, |&(_, hits)| hits);
        let rate = match hits + misses {
            0 => "null".to_string(),
            n => format!("{:.4}", hits as f64 / n as f64),
        };
        out.push(format!("\"{kind}_hit_rate\":{rate}"));
    }
    out.join(",")
}

/// Run every job on a scoped thread of its own and collect the results
/// in job order.
fn on_threads<J: Send, R: Send>(jobs: Vec<J>, run: impl Fn(J) -> R + Sync) -> Vec<R> {
    let run = &run;
    thread::scope(|scope| {
        let threads: Vec<_> = jobs
            .into_iter()
            .map(|job| scope.spawn(move || run(job)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|p| panic::resume_unwind(p)))
            .collect()
    })
}

// ---- The socket front-end ---------------------------------------------

/// Where the daemon listens: `host:port` TCP, or `unix:<path>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP socket address (use port 0 for an ephemeral port).
    Tcp(String),
    /// A Unix-domain stream socket path.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parse a `--listen` or `txmm client` address. `unix:` with no
    /// path is refused: Linux would bind it to an autobound abstract
    /// address that no client can name.
    pub fn parse(s: &str) -> Result<ListenAddr, String> {
        match s.strip_prefix("unix:") {
            Some("") => Err(format!("{s} names no socket path (try unix:<path>)")),
            Some(path) => Ok(ListenAddr::Unix(PathBuf::from(path))),
            None => Ok(ListenAddr::Tcp(s.to_string())),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    /// The listener and its socket file, removed when the daemon stops.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

/// One accepted client connection.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The serving daemon: a listener plus the shard pool.
pub struct Daemon {
    listener: Listener,
    pool: SessionPool,
    stop: AtomicBool,
    local_addr: String,
    /// Connection limit; `None` means unbounded (the seed behaviour:
    /// every connection gets a connection thread).
    max_conns: Option<usize>,
}

impl Daemon {
    /// Bind the listener (leaving the pool ready) without accepting
    /// yet. For `Tcp("127.0.0.1:0")` the ephemeral port is resolved
    /// here and visible through [`Daemon::local_addr`].
    pub fn bind(addr: &ListenAddr, pool: SessionPool) -> io::Result<Daemon> {
        let (listener, local_addr) = match addr {
            ListenAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let local = l.local_addr()?.to_string();
                (Listener::Tcp(l), local)
            }
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                // A stale socket file from a dead daemon blocks bind —
                // but only remove it after probing that nothing
                // answers, so binding over a *live* daemon's socket
                // fails instead of silently stealing its address.
                if path.exists() {
                    if std::os::unix::net::UnixStream::connect(path).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a daemon is already listening on {}", path.display()),
                        ));
                    }
                    let _ = std::fs::remove_file(path);
                }
                let l = std::os::unix::net::UnixListener::bind(path)?;
                (
                    Listener::Unix(l, path.clone()),
                    format!("unix:{}", path.display()),
                )
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ))
            }
        };
        Ok(Daemon {
            listener,
            pool,
            stop: AtomicBool::new(false),
            local_addr,
            max_conns: None,
        })
    }

    /// Limit concurrent connections: connections past the limit are
    /// answered with one structured [`crate::protocol::busy_line`]
    /// frame and closed instead of getting a connection thread, which
    /// back-pressures clients while in-flight requests keep their
    /// resources. `0` means unbounded.
    pub fn with_max_conns(mut self, max_conns: usize) -> Daemon {
        self.max_conns = (max_conns > 0).then_some(max_conns);
        self
    }

    /// The bound address (`ip:port`, or `unix:<path>`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Accept and serve clients until a `shutdown` request, then drain
    /// in-flight connections.
    pub fn run(self) -> io::Result<()> {
        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let (pool, stop) = (&self.pool, &self.stop);
        let live_conns = AtomicUsize::new(0);
        // Connection threads are scoped, so leaving the scope drains
        // every accepted connection.
        let result = thread::scope(|scope| loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let accepted = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                #[cfg(unix)]
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match accepted {
                Ok(mut conn) => {
                    // Connection limit: refuse past the cap with one
                    // structured busy frame instead of spawning a
                    // thread, so a connection flood cannot exhaust
                    // threads and in-flight clients keep their shards.
                    if let Some(max) = self.max_conns {
                        if live_conns.load(Ordering::SeqCst) >= max {
                            let frame = format!("{}\n\n", crate::protocol::busy_line(max));
                            let _ = conn.write_all(frame.as_bytes());
                            let _ = conn.flush();
                            continue;
                        }
                    }
                    live_conns.fetch_add(1, Ordering::SeqCst);
                    let leave = Leave(&live_conns);
                    scope.spawn(move || {
                        let _leave = leave;
                        handle_client(conn, pool, stop)
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    // Let the open connections notice and end, so the
                    // scope can close.
                    stop.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
        });
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// `(cmd, what, trace_id)` used for request-level observability: the
/// command's metric labels, a human label for the slowest-requests
/// ring, and the client trace ID if one was sent.
fn request_meta(req: &Request) -> (&'static str, String, Option<String>) {
    match req {
        Request::Check { file, trace, .. } => ("check", format!("check {file}"), trace.clone()),
        Request::Batch { dir, .. } => ("batch", format!("batch {dir}"), None),
        Request::Outcomes { file, trace, .. } => {
            ("outcomes", format!("outcomes {file}"), trace.clone())
        }
        Request::OutcomesBatch { dir, .. } => ("outcomes_batch", format!("outcomes {dir}"), None),
        Request::Reload => ("reload", "reload".to_string(), None),
        Request::Models => ("models", "models".to_string(), None),
        Request::Stats => ("stats", "stats".to_string(), None),
        Request::Metrics { .. } => ("metrics", "metrics".to_string(), None),
        Request::Shutdown => ("shutdown", "shutdown".to_string(), None),
    }
}

/// Run `serve` under the request's client trace, if it sent one, and
/// echo the trace (`trace_id` + span timeline) on the answer, error
/// lines included; untraced answers stay byte-identical to one-shot
/// serving.
fn traced(trace: Option<String>, serve: impl FnOnce() -> String) -> String {
    let Some(id) = trace else {
        return serve();
    };
    let trace = txmm_obs::Trace::new(&id);
    let line = txmm_obs::with_trace(Some(&trace), serve);
    crate::serve::attach_trace(&line, &trace)
}

/// Answer every `.litmus` file in `dir`, in name order, spread over the
/// shards by [`SessionPool::fan_out`]; each file is read where it is
/// routed.
fn serve_dir<P: Send>(
    pool: &SessionPool,
    dir: &str,
    route: impl Fn(String, String) -> Result<(usize, P), String> + Sync,
    serve: impl Fn(usize, P) -> String + Sync,
) -> Vec<String> {
    let files = match collect_litmus_files(Path::new(dir)) {
        Ok(files) if files.is_empty() => {
            return vec![error_line(&format!("no .litmus files in {dir}"))]
        }
        Ok(files) => files,
        Err(e) => return vec![error_line(&format!("cannot read {dir}: {e}"))],
    };
    let read_and_route = |path: &PathBuf| {
        let (file, src) = read_source(path).map_err(|f| f.jsonl_line())?;
        route(file, src)
    };
    pool.fan_out(&files, read_and_route, serve)
}

/// Answer one request with its response lines (without the blank-line
/// terminator); `true` in the second slot means shutdown was requested.
fn answer(pool: &SessionPool, req: Request) -> (Vec<String>, bool) {
    let lines = match req {
        Request::Check {
            file,
            src,
            models,
            trace,
        } => vec![traced(trace, || pool.check(&file, &src, models))],
        Request::Batch { dir, models } => serve_dir(
            pool,
            &dir,
            |file, src| pool.route_check(&file, &src),
            |shard, parsed| pool.serve_check(shard, &parsed, models.as_deref()),
        ),
        Request::Outcomes {
            file,
            src,
            models,
            max_candidates,
            trace,
        } => vec![traced(trace, || {
            pool.outcomes(&file, &src, models, max_candidates)
        })],
        Request::OutcomesBatch {
            dir,
            models,
            max_candidates,
        } => serve_dir(
            pool,
            &dir,
            |file, src| {
                let (shard, test) = pool.route_outcomes(&file, &src)?;
                Ok((shard, (file, test)))
            },
            |shard, (file, test)| {
                pool.serve_outcomes(shard, &file, &test, models.as_deref(), max_candidates)
            },
        ),
        Request::Reload => vec![pool.reload_line()],
        Request::Models => pool.model_lines(),
        Request::Stats => vec![pool.stats_line()],
        Request::Metrics { prom: true } => {
            // Prometheus exposition is multi-line; ship each line of
            // the page in the frame (none are blank, so the frame
            // terminator stays unambiguous).
            txmm_obs::global()
                .render_prom()
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(str::to_string)
                .collect()
        }
        Request::Metrics { prom: false } => vec![txmm_obs::global().render_json()],
        Request::Shutdown => return (vec!["{\"ok\":\"shutdown\"}".to_string()], true),
    };
    (lines, false)
}

/// The frame a request that panicked is answered with.
fn internal_line(payload: &(dyn Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic");
    format!(
        "{{\"error\":\"internal error: {}\",\"code\":\"internal\"}}",
        txmm_obs::json_escape(msg)
    )
}

/// Serve one connection: request lines in, framed responses out.
fn handle_client(mut conn: Conn, pool: &SessionPool, stop: &AtomicBool) {
    // A finite read timeout lets an idle connection notice shutdown
    // instead of pinning the drain phase forever.
    let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
    /// Longest accepted request line; a client streaming more without a
    /// newline is answered with an error and disconnected rather than
    /// growing the buffer without bound.
    const MAX_LINE: usize = 16 << 20;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Process every complete line already buffered. A shutdown
        // requested on another connection cuts this one off between
        // requests, so drain only waits for in-flight work.
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let line: Vec<u8> = buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let started = Instant::now();
            let (lines, shutdown) = match Request::parse(line) {
                Ok(req) => {
                    let (cmd, what, trace_id) = request_meta(&req);
                    // A panic, inside a Session call or outside one,
                    // answers an `internal` frame; this connection and
                    // the shard keep serving.
                    let result = pool
                        .contain(|| answer(pool, req))
                        .unwrap_or_else(|line| (vec![line], false));
                    pool.obs.observe(
                        cmd,
                        &what,
                        trace_id.as_deref(),
                        started.elapsed().as_micros() as u64,
                    );
                    result
                }
                Err(e) => {
                    pool.obs.observe(
                        "error",
                        "malformed request",
                        None,
                        started.elapsed().as_micros() as u64,
                    );
                    (vec![error_line(&e.to_string())], false)
                }
            };
            let mut response = String::new();
            for l in &lines {
                response.push_str(l);
                response.push('\n');
            }
            response.push('\n');
            if conn.write_all(response.as_bytes()).is_err() || conn.flush().is_err() {
                return;
            }
            if shutdown {
                stop.store(true, Ordering::SeqCst);
                return;
            }
        }
        if buf.len() > MAX_LINE {
            let msg = format!("{}\n\n", error_line("request line too long"));
            let _ = conn.write_all(msg.as_bytes());
            return;
        }
        match conn.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_json, Json};
    use crate::serve::serve_source;
    use std::io::{BufRead, BufReader};
    use std::sync::Barrier;
    use txmm_core::{ExecutionAnalysis, PruneOracle};
    use txmm_models::{Arch, Checker, Model};

    impl SessionPool {
        /// Serve many litmus sources concurrently across the shards,
        /// returning one payload line per input, in input order.
        fn check_many(
            &self,
            items: Vec<(String, String)>,
            models: Option<Vec<String>>,
        ) -> Vec<String> {
            self.fan_out(
                &items,
                |(file, src)| self.route_check(file, src),
                |shard, parsed| self.serve_check(shard, &parsed, models.as_deref()),
            )
        }
    }

    /// A `check` of this file panics on its connection thread after its
    /// Session call, with the shard lock released.
    const PANIC_AFTER_SESSION: &str = "panic-after-session.litmus";

    /// The fault point [`SessionPool::serve_check`] passes once its
    /// Session call has returned.
    pub(super) fn fault_after_session(file: &str) {
        if file == PANIC_AFTER_SESSION {
            panic!("injected fault after the Session call");
        }
    }

    /// A model that misbehaves on purpose and allows whatever it lets
    /// through.
    enum Faulty {
        /// Panic on the execution with this canonical key.
        PanicOn(Vec<u8>),
        /// Meet the barrier twice per check: once to show the check
        /// holds its shard, once to be let go.
        Gate(Arc<Barrier>),
    }

    impl Model for Faulty {
        fn name(&self) -> &'static str {
            "faulty"
        }

        fn arch(&self) -> Arch {
            Arch::Sc
        }

        fn is_tm(&self) -> bool {
            false
        }

        fn axioms(&self, a: &ExecutionAnalysis<'_>, _: &mut Checker) {
            match self {
                Faulty::PanicOn(key) if canon_key(a.exec()) == *key => {
                    panic!("injected fault in a model check")
                }
                Faulty::PanicOn(_) => {}
                Faulty::Gate(gate) => {
                    gate.wait();
                    gate.wait();
                }
            }
        }

        fn prune_oracle(&self, _txns_known: bool) -> Option<&dyn PruneOracle> {
            Some(self)
        }
    }

    /// Keeps every partial execution, so `outcomes` takes the pruned
    /// walk and meets the faulty check in its sink.
    impl PruneOracle for Faulty {
        fn viable(&self, _: &ExecutionAnalysis<'_>) -> bool {
            true
        }
    }

    /// A one-shard pool whose Session also registers `model`.
    fn one_shard_pool(model: Faulty) -> SessionPool {
        let mut session = Session::new();
        session.register_model(Box::new(model));
        SessionPool::with_sessions(vec![session], Vec::new())
    }

    /// Send one request and read its response frame.
    fn roundtrip(stream: &mut BufReader<TcpStream>, req: &Request) -> Vec<String> {
        let line = format!("{}\n", req.to_line());
        stream.get_mut().write_all(line.as_bytes()).expect("send");
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = stream.read_line(&mut line).expect("read");
            assert!(n > 0, "server closed mid-frame (got {lines:?})");
            match line.trim_end_matches('\n') {
                "" => return lines,
                l => lines.push(l.to_string()),
            }
        }
    }

    fn check_req(file: &str, src: &str) -> Request {
        Request::Check {
            file: file.to_string(),
            src: src.to_string(),
            models: None,
            trace: None,
        }
    }

    fn stats_num(stream: &mut BufReader<TcpStream>, key: &str) -> f64 {
        let stats = roundtrip(stream, &Request::Stats);
        match parse_json(&stats[0]).expect("stats is JSON").get(key) {
            Some(Json::Num(n)) => *n,
            other => panic!("stats[{key}] = {other:?}"),
        }
    }

    /// `(work_done, work_total)` of the first shard's walk progress.
    fn walk_progress(stream: &mut BufReader<TcpStream>) -> (f64, f64) {
        let stats = roundtrip(stream, &Request::Stats);
        let stats = parse_json(&stats[0]).expect("stats is JSON");
        let walk = stats
            .get("per_shard")
            .and_then(Json::as_arr)
            .expect("per_shard")[0]
            .get("walk")
            .expect("walk");
        match (walk.get("work_done"), walk.get("work_total")) {
            (Some(Json::Num(done)), Some(Json::Num(total))) => (*done, *total),
            other => panic!("walk = {other:?}"),
        }
    }

    fn outcomes_req(file: &str, src: &str) -> Request {
        Request::Outcomes {
            file: file.to_string(),
            src: src.to_string(),
            models: None,
            max_candidates: None,
            trace: None,
        }
    }

    fn small_corpus() -> Vec<(String, String)> {
        crate::corpus::generate(3)
            .into_iter()
            .take(12)
            .map(|(name, src)| (format!("{name}.litmus"), src))
            .collect()
    }

    #[test]
    fn pool_matches_one_shot_serving_bytes() {
        let corpus = small_corpus();
        let pool = SessionPool::new(&PoolConfig {
            shards: 3,
            ..PoolConfig::default()
        })
        .unwrap();
        let pooled = pool.check_many(corpus.clone(), None);
        let mut session = Session::new();
        for ((file, src), line) in corpus.iter().zip(&pooled) {
            let expect = jsonl_line(&serve_source(&mut session, file, src, None));
            assert_eq!(line, &expect, "{file}");
        }
        pool.shutdown();
    }

    #[test]
    fn repeated_checks_hit_the_same_shard_cache() {
        let corpus = small_corpus();
        let pool = SessionPool::new(&PoolConfig {
            shards: 4,
            ..PoolConfig::default()
        })
        .unwrap();
        let cold = pool.check_many(corpus.clone(), None);
        let (snaps, _) = pool.stats();
        let cold_misses: u64 = snaps.iter().map(|s| s.session.verdict_misses).sum();
        let warm = pool.check_many(corpus, None);
        assert_eq!(cold, warm, "warm answers byte-identical");
        let (snaps, failures) = pool.stats();
        let warm_misses: u64 = snaps.iter().map(|s| s.session.verdict_misses).sum();
        assert_eq!(cold_misses, warm_misses, "warm pass computes nothing");
        assert_eq!(failures, 0);
        assert!(snaps.iter().all(|s| s.depth == 0));
        pool.shutdown();
    }

    #[test]
    fn unknown_model_and_bad_source_are_error_lines() {
        let pool = SessionPool::new(&PoolConfig {
            shards: 1,
            ..PoolConfig::default()
        })
        .unwrap();
        let (file, src) = small_corpus().remove(0);
        let line = pool.check(&file, &src, Some(vec!["no-such".into()]));
        assert!(line.contains("\"error\""), "{line}");
        let bad = pool.check("bad.litmus", "t (Marvel)\n", None);
        assert!(
            bad.starts_with("{\"file\":\"bad.litmus\",\"error\""),
            "{bad}"
        );
        let (_, failures) = pool.stats();
        assert_eq!(failures, 2);
        pool.shutdown();
    }

    #[test]
    fn stats_line_shape() {
        let pool = SessionPool::new(&PoolConfig {
            shards: 2,
            ..PoolConfig::default()
        })
        .unwrap();
        let corpus = small_corpus();
        let _ = pool.check_many(corpus.clone(), None);
        let _ = pool.check_many(corpus, None);
        let line = pool.stats_line();
        assert!(line.contains("\"shards\":2"), "{line}");
        // The warm pass at least doubles the hits, so the rate is a
        // real number (not the no-traffic `null`).
        assert!(line.contains("\"verdict_hit_rate\":0."), "{line}");
        assert!(line.contains("\"stage_micros\":{\"parse\":"), "{line}");
        assert!(line.contains("\"per_shard\":[{\"shard\":0,"), "{line}");
        assert!(crate::protocol::parse_json(&line).is_ok(), "{line}");
        pool.shutdown();
    }

    #[test]
    fn model_lines_cover_the_registry() {
        let pool = SessionPool::new(&PoolConfig {
            shards: 1,
            with_cat: true,
            ..PoolConfig::default()
        })
        .unwrap();
        let lines = pool.model_lines();
        assert!(lines.iter().any(|l| l.contains("\"model\":\"x86-tm\"")));
        assert!(lines.iter().any(|l| l.contains("\"model\":\"x86-tm.cat\"")));
        pool.shutdown();
    }

    #[test]
    fn listen_addresses_parse_and_an_empty_unix_path_is_refused() {
        assert_eq!(
            ListenAddr::parse("127.0.0.1:7750"),
            Ok(ListenAddr::Tcp("127.0.0.1:7750".into()))
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/d.sock"),
            Ok(ListenAddr::Unix("/tmp/d.sock".into()))
        );
        assert!(ListenAddr::parse("unix:").is_err());
    }

    #[test]
    fn a_panicking_request_gets_an_internal_frame_and_nothing_else_changes() {
        let corpus = small_corpus();
        let (good_file, good_src) = &corpus[0];
        let (victim_file, victim_src) = &corpus[1];
        let victim = parse_request(victim_file, victim_src).expect("parses").exec;
        let pool = one_shard_pool(Faulty::PanicOn(canon_key(&victim)));
        let panics = pool.obs.panics.clone();
        let daemon = Daemon::bind(&ListenAddr::Tcp("127.0.0.1:0".into()), pool).expect("binds");
        let addr = daemon.local_addr().to_string();
        let server = thread::spawn(move || daemon.run().expect("daemon runs"));
        let connect = || BufReader::new(TcpStream::connect(&addr).expect("connect"));
        let (mut a, mut b) = (connect(), connect());
        let good = check_req(good_file, good_src);
        let want = roundtrip(&mut b, &good);
        assert!(
            want[0].contains("\"faulty\":{\"consistent\":true"),
            "{want:?}"
        );

        // A panic inside the Session call, with the shard lock held.
        let internal =
            "{\"error\":\"internal error: injected fault in a model check\",\"code\":\"internal\"}";
        assert_eq!(
            roundtrip(&mut a, &check_req(victim_file, victim_src)),
            [internal]
        );
        assert_eq!(panics.get(), 1);
        let misses = stats_num(&mut a, "verdict_misses");
        assert_eq!(roundtrip(&mut a, &good), want, "the shard serves on");
        assert_eq!(
            stats_num(&mut a, "verdict_misses"),
            misses,
            "an execution cached before the panic is still a hit"
        );

        // A panic after the Session call, with the lock released.
        let (_, other_src) = &corpus[2];
        assert_eq!(
            roundtrip(&mut a, &check_req(PANIC_AFTER_SESSION, other_src)),
            ["{\"error\":\"internal error: injected fault after the Session call\",\"code\":\"internal\"}"]
        );
        assert_eq!(panics.get(), 2);
        assert_eq!(roundtrip(&mut a, &good), want);
        assert_eq!(stats_num(&mut a, "failures"), 2.0);

        // A panicking `outcomes` walk leaves the walk progress level.
        assert_eq!(
            roundtrip(&mut a, &outcomes_req(victim_file, victim_src)),
            [internal]
        );
        assert_eq!(panics.get(), 3);
        let (done, total) = walk_progress(&mut a);
        assert!(total > 0.0 && done == total, "work {done} of {total}");

        // In a `batch` and a directory `outcomes`, the panic answers
        // only the victim's own slot; every other file gets the answer
        // it gets on its own.
        let dir = std::env::temp_dir().join(format!("txmm-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut files: Vec<(String, &str)> = corpus[..4]
            .iter()
            .map(|(file, src)| {
                let path = dir.join(file);
                std::fs::write(&path, src).expect("write");
                (path.display().to_string(), src.as_str())
            })
            .collect();
        files.sort();
        let victim_path = dir.join(victim_file).display().to_string();
        let dir = dir.display().to_string();
        let batch = Request::Batch {
            dir: dir.clone(),
            models: None,
        };
        let outcomes = Request::OutcomesBatch {
            dir: dir.clone(),
            models: None,
            max_candidates: None,
        };
        for (req, single) in [
            (batch, check_req as fn(&str, &str) -> Request),
            (outcomes, outcomes_req),
        ] {
            let before = panics.get();
            let lines = roundtrip(&mut a, &req);
            assert_eq!(lines.len(), files.len(), "{lines:?}");
            for ((path, src), line) in files.iter().zip(&lines) {
                if *path == victim_path {
                    assert_eq!(line, internal);
                } else {
                    assert_eq!(roundtrip(&mut a, &single(path, src)), [line.as_str()]);
                }
            }
            assert_eq!(panics.get(), before + 1);
        }
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
        let (done, total) = walk_progress(&mut a);
        assert!(done == total, "work {done} of {total}");
        assert_eq!(stats_num(&mut a, "failures"), 5.0);

        // The other connection saw nothing.
        assert_eq!(roundtrip(&mut b, &good), want);
        assert_eq!(
            roundtrip(&mut b, &Request::Shutdown),
            ["{\"ok\":\"shutdown\"}"]
        );
        server.join().expect("clean shutdown");
    }

    #[test]
    fn stats_answers_while_a_request_holds_the_only_shard() {
        let gate = Arc::new(Barrier::new(2));
        let pool = one_shard_pool(Faulty::Gate(Arc::clone(&gate)));
        let (file, src) = small_corpus().remove(0);
        thread::scope(|s| {
            let held = s.spawn(|| pool.check(&file, &src, Some(vec!["faulty".into()])));
            gate.wait();
            // The check holds the shard until the second `wait`.
            let stats = s.spawn(|| pool.stats_line());
            let deadline = Instant::now() + Duration::from_secs(10);
            while !stats.is_finished() && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(5));
            }
            let answered = stats.is_finished();
            gate.wait();
            assert!(answered, "stats waited for the held shard");
            let line = stats.join().expect("stats");
            assert!(
                line.contains("\"per_shard\":[{\"shard\":0,\"served\":0,\"depth\":1,"),
                "{line}"
            );
            let held = held.join().expect("check");
            assert!(held.contains("\"faulty\":{\"consistent\":true"), "{held}");
        });
        assert_eq!(pool.stats().0[0].depth, 0);
    }

    #[test]
    fn failures_count_typed_results_not_rendered_text() {
        let pool = SessionPool::new(&PoolConfig {
            shards: 1,
            ..PoolConfig::default()
        })
        .unwrap();
        let src = "error (x86)\nthread 0:\n  x <- 1\nthread 1:\n  r0 <- x\n";
        let line = pool.outcomes("error.litmus", src, None, None);
        assert!(line.contains("\"name\":\"error\""), "{line}");
        assert!(line.contains("\"candidates\":2"), "{line}");
        assert_eq!(pool.stats().1, 0, "a test named `error` is no failure");
        let refused = pool.outcomes("error.litmus", src, None, Some(1));
        assert!(refused.contains("(limit 1)"), "{refused}");
        assert_eq!(pool.stats().1, 1);
    }
}
