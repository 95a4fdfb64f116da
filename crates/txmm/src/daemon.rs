//! `txmm-serverd`: a concurrent socket daemon over a **sharded
//! [`Session`] pool**.
//!
//! The Session engine is long-lived by design; this module adds the
//! missing transport (ROADMAP: "a daemon/socket mode for `txmm serve`")
//! without a global lock around the engine:
//!
//! * **Sharded pool** ([`SessionPool`]): N worker threads, each owning
//!   one `Session`. Work reaches a shard over its own
//!   `std::sync::mpsc` channel, so concurrent clients batch into
//!   shards without contending on a shared mutex.
//! * **Canonical-key dispatch**: a request's litmus text is parsed and
//!   converted on the *connection handler* thread (the cheap,
//!   embarrassingly-parallel stages), then routed by a hash of the
//!   execution's canonical (symmetry-reduced) key. Repeats of a test —
//!   and all its thread/location-symmetric variants — always land on
//!   the same shard, so the pool's caches collectively behave like one
//!   warm cache even though no state is shared between shards.
//! * **JSONL wire protocol** ([`crate::protocol`]): `check`, `batch`,
//!   `models`, `stats` and graceful `shutdown` requests, each answered
//!   by JSONL lines and a blank-line terminator. Payload lines reuse
//!   [`crate::serve::jsonl_line`], so daemon answers are byte-identical
//!   to one-shot `txmm serve` output over the same tests.
//!
//! ```text
//! clients ──TCP/Unix──► handler threads ──parse/convert──► shard channels
//!                                                             │ │ │
//!                                             Session ◄───────┘ │ │
//!                                             Session ◄─────────┘ │
//!                                             Session ◄───────────┘
//! ```

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use txmm_litmus::LitmusTest;
use txmm_synth::canon_key;

use crate::protocol::{error_line, Request};
use crate::serve::{
    check_parsed, collect_litmus_files, jsonl_line, outcomes_jsonl_line, parse_outcomes_request,
    parse_request, ParsedTest, Served, ServedOutcomes, StageMicros, TestFailure,
};
use crate::session::{ModelRef, Session, SessionStats};

/// How to build the pool's Sessions.
#[derive(Debug, Clone, Default)]
pub struct PoolConfig {
    /// Worker count; 0 means one per available core (capped at 8).
    pub shards: usize,
    /// Also register the shipped `.cat` twins (`<name>.cat`).
    pub with_cat: bool,
    /// User-supplied `.cat` model files, registered on every shard.
    pub cat_files: Vec<PathBuf>,
}

impl PoolConfig {
    fn shard_count(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2)
    }
}

/// One unit of shard work.
enum Job {
    /// Run the verdict/observe stages and reply with the finished
    /// JSONL payload line for response slot `seq`.
    Check {
        seq: usize,
        parsed: Box<ParsedTest>,
        models: Option<Vec<String>>,
        reply: mpsc::Sender<(usize, String)>,
        queued: Instant,
        trace: Option<Arc<txmm_obs::Trace>>,
    },
    /// Enumerate a program's candidate executions and reply with the
    /// outcome-table payload line for response slot `seq`.
    Outcomes {
        seq: usize,
        file: String,
        test: Box<LitmusTest>,
        models: Option<Vec<String>>,
        max_candidates: Option<u128>,
        reply: mpsc::Sender<(usize, String)>,
        queued: Instant,
        trace: Option<Arc<txmm_obs::Trace>>,
    },
    /// Replace the shard's user `.cat` models in place (hot reload).
    Reload {
        sources: Arc<Vec<(String, String)>>,
        reply: mpsc::Sender<Result<Vec<String>, String>>,
    },
    /// Snapshot this shard's counters.
    Stats { reply: mpsc::Sender<ShardSnapshot> },
}

/// One shard's counters, as reported by the `stats` request.
#[derive(Debug, Clone, Copy)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Check jobs completed by this shard.
    pub served: u64,
    /// Jobs enqueued but not yet completed at snapshot time.
    pub depth: u64,
    /// The shard Session's cache and arena counters.
    pub session: SessionStats,
    /// Accumulated per-stage serving time across this shard's jobs
    /// (parse/convert ticked on handler threads, verdict/observe here).
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
pub struct WalkSnapshot {
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

struct Shard {
    tx: mpsc::Sender<Job>,
    enqueued: Arc<AtomicU64>,
    completed: Arc<AtomicU64>,
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
/// histogram per command, and the slowest-requests ring.
struct PoolObs {
    cmds: Vec<(&'static str, txmm_obs::Counter, txmm_obs::Histogram)>,
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

/// The sharded Session pool. See the module docs for the dispatch
/// rules; all methods take `&self` and are safe to call from many
/// handler threads at once.
pub struct SessionPool {
    shards: Vec<Shard>,
    workers: Vec<thread::JoinHandle<()>>,
    /// Requests that failed before reaching a shard (parse/convert
    /// failures, unknown models), mirrored into
    /// `txmm_dispatch_failures_total`.
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

fn build_session(cfg: &PoolConfig) -> Result<Session, String> {
    let mut s = if cfg.with_cat {
        Session::with_shipped_cat()
    } else {
        Session::new()
    };
    for path in &cfg.cat_files {
        s.register_cat_file(path)?;
    }
    Ok(s)
}

/// Resolve a model-name filter against a shard Session.
fn resolve_filter(
    session: &Session,
    models: &Option<Vec<String>>,
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

fn worker(
    shard: usize,
    mut session: Session,
    rx: mpsc::Receiver<Job>,
    completed: Arc<AtomicU64>,
    queue_wait: txmm_obs::Histogram,
) {
    let mut served = 0u64;
    let mut stages = StageMicros::default();
    for job in rx {
        match job {
            Job::Check {
                seq,
                parsed,
                models,
                reply,
                queued,
                trace,
            } => {
                let wait_micros = queued.elapsed().as_micros() as u64;
                queue_wait.record(wait_micros);
                let line = txmm_obs::with_trace(trace.as_ref(), || {
                    match resolve_filter(&session, &models) {
                        Ok(filter) => {
                            let report = check_parsed(&mut session, &parsed, filter.as_deref());
                            stages.parse += report.stages.parse;
                            stages.convert += report.stages.convert;
                            stages.verdict += report.stages.verdict;
                            stages.observe += report.stages.observe;
                            // Queue wait is part of the request's wall
                            // time but not of any compute stage.
                            stages.other += report.stages.other + wait_micros;
                            served += 1;
                            jsonl_line(&Served::Report(report))
                        }
                        Err(e) => error_line(&e),
                    }
                });
                completed.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send((seq, line));
            }
            Job::Outcomes {
                seq,
                file,
                test,
                models,
                max_candidates,
                reply,
                queued,
                trace,
            } => {
                let wait_micros = queued.elapsed().as_micros() as u64;
                queue_wait.record(wait_micros);
                let line = txmm_obs::with_trace(trace.as_ref(), || {
                    match resolve_filter(&session, &models) {
                        Ok(filter) => {
                            let _span = txmm_obs::span!("serve.outcomes");
                            let s = match session.outcomes_capped(
                                &file,
                                &test,
                                filter.as_deref(),
                                max_candidates,
                            ) {
                                Ok(r) => {
                                    served += 1;
                                    ServedOutcomes::Report(r)
                                }
                                Err(e) => ServedOutcomes::Failure(TestFailure { file, error: e }),
                            };
                            outcomes_jsonl_line(&s)
                        }
                        Err(e) => error_line(&e),
                    }
                });
                stages.other += wait_micros;
                completed.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send((seq, line));
            }
            Job::Reload { sources, reply } => {
                let mut reloaded = Vec::with_capacity(sources.len());
                let mut result = Ok(());
                for (name, src) in sources.iter() {
                    match session.reload_cat_source(name, src) {
                        Ok(_) => reloaded.push(name.clone()),
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                completed.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(result.map(|()| reloaded));
            }
            Job::Stats { reply } => {
                let walk = match session.walk_progress() {
                    Some(p) => {
                        let s = p.snapshot();
                        WalkSnapshot {
                            work_done: s.done,
                            work_total: s.total,
                            subtrees: s.subtrees,
                            candidates: s.candidates,
                            classes: s.classes,
                        }
                    }
                    None => WalkSnapshot::default(),
                };
                let _ = reply.send(ShardSnapshot {
                    shard,
                    served,
                    depth: 0, // filled in by the pool from its counters
                    session: session.stats(),
                    stages,
                    walk,
                });
            }
        }
    }
}

impl SessionPool {
    /// Build the shard Sessions (surfacing `.cat` registration errors
    /// synchronously) and start one worker thread per shard.
    pub fn new(cfg: &PoolConfig) -> Result<SessionPool, String> {
        let n = cfg.shard_count();
        let mut shards = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        let mut models = Vec::new();
        for i in 0..n {
            let mut session = build_session(cfg)?;
            // Each shard accumulates its own walk progress; the global
            // registry sums the per-shard series, so a `metrics` scrape
            // sees pool-wide walk counters while `stats` breaks them
            // out per shard.
            session.set_walk_progress(Some(Arc::new(txmm_obs::WalkProgress::new())));
            if i == 0 {
                models = session
                    .models()
                    .map(|m| {
                        let m = session.model(m);
                        (m.name().to_string(), m.arch().name().to_string(), m.is_tm())
                    })
                    .collect();
            }
            let (tx, rx) = mpsc::channel();
            let enqueued = Arc::new(AtomicU64::new(0));
            let completed = Arc::new(AtomicU64::new(0));
            let done = Arc::clone(&completed);
            let queue_wait = txmm_obs::global().histogram_with(
                "txmm_shard_queue_wait_microseconds",
                "Time a job waited on its shard channel before a worker picked it up.",
                &[("shard", &i.to_string())],
            );
            workers.push(thread::spawn(move || {
                worker(i, session, rx, done, queue_wait)
            }));
            shards.push(Shard {
                tx,
                enqueued,
                completed,
            });
        }
        Ok(SessionPool {
            shards,
            workers,
            failures: txmm_obs::global().counter(
                "txmm_dispatch_failures_total",
                "Requests that failed before or at a shard (parse errors, unknown models).",
            ),
            models,
            cat_files: cfg.cat_files.clone(),
            obs: PoolObs::new(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `(name, arch, is_tm)` for every registered model.
    pub fn models(&self) -> &[(String, String, bool)] {
        &self.models
    }

    /// Serve one litmus source; returns the response payload line.
    pub fn check(&self, file: &str, src: &str, models: Option<Vec<String>>) -> String {
        self.check_many(vec![(file.to_string(), src.to_string())], models)
            .pop()
            .expect("one response per request")
    }

    /// [`SessionPool::check`] with a client trace: spans from the
    /// handler-side parse/convert and the shard-side verdict/observe
    /// both land on `trace`.
    pub fn check_traced(
        &self,
        file: &str,
        src: &str,
        models: Option<Vec<String>>,
        trace: &Arc<txmm_obs::Trace>,
    ) -> String {
        self.check_many_traced(
            vec![(file.to_string(), src.to_string())],
            models,
            Some(trace),
        )
        .pop()
        .expect("one response per request")
    }

    /// Serve many litmus sources concurrently across the shards,
    /// returning one payload line per input, in input order.
    pub fn check_many(
        &self,
        items: Vec<(String, String)>,
        models: Option<Vec<String>>,
    ) -> Vec<String> {
        self.check_many_traced(items, models, None)
    }

    fn check_many_traced(
        &self,
        items: Vec<(String, String)>,
        models: Option<Vec<String>>,
        trace: Option<&Arc<txmm_obs::Trace>>,
    ) -> Vec<String> {
        let n = items.len();
        let mut out: Vec<Option<String>> = Vec::new();
        out.resize_with(n, || None);
        let (reply, replies) = mpsc::channel();
        let mut pending = 0usize;
        for (seq, (file, src)) in items.into_iter().enumerate() {
            // Parse/convert on this (handler) thread; only well-formed
            // executions travel to a shard.
            match txmm_obs::with_trace(trace, || parse_request(&file, &src)) {
                Err(f) => {
                    self.failures.inc();
                    out[seq] = Some(jsonl_line(&Served::Failure(f)));
                }
                Ok(parsed) => {
                    let shard = &self.shards
                        [(fnv1a(&canon_key(&parsed.exec)) as usize) % self.shards.len()];
                    let parsed = Box::new(parsed);
                    shard.enqueued.fetch_add(1, Ordering::Relaxed);
                    let job = Job::Check {
                        seq,
                        parsed,
                        models: models.clone(),
                        reply: reply.clone(),
                        queued: Instant::now(),
                        trace: trace.cloned(),
                    };
                    if shard.tx.send(job).is_err() {
                        out[seq] = Some(error_line("shard worker unavailable"));
                    } else {
                        pending += 1;
                    }
                }
            }
        }
        drop(reply);
        for (seq, line) in replies.iter().take(pending) {
            if line.starts_with("{\"error\"") {
                self.failures.inc();
            }
            out[seq] = Some(line);
        }
        out.into_iter()
            .map(|slot| slot.unwrap_or_else(|| error_line("shard worker died")))
            .collect()
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
        self.outcomes_many(
            vec![(file.to_string(), src.to_string())],
            models,
            max_candidates,
        )
        .pop()
        .expect("one response per request")
    }

    /// [`SessionPool::outcomes`] with a client trace installed on both
    /// sides of the shard hop.
    pub fn outcomes_traced(
        &self,
        file: &str,
        src: &str,
        models: Option<Vec<String>>,
        max_candidates: Option<u128>,
        trace: &Arc<txmm_obs::Trace>,
    ) -> String {
        self.outcomes_many_traced(
            vec![(file.to_string(), src.to_string())],
            models,
            max_candidates,
            Some(trace),
        )
        .pop()
        .expect("one response per request")
    }

    /// Serve many litmus sources through the outcome engine,
    /// concurrently across the shards, one payload line per input in
    /// input order. Dispatch is keyed by a hash of the *program* key
    /// ([`txmm_litmus::program_key`]) — there is no pinned execution to
    /// key by — so repeats of a program (under any postcondition)
    /// always land on the shard holding its warm outcome table.
    pub fn outcomes_many(
        &self,
        items: Vec<(String, String)>,
        models: Option<Vec<String>>,
        max_candidates: Option<u128>,
    ) -> Vec<String> {
        self.outcomes_many_traced(items, models, max_candidates, None)
    }

    fn outcomes_many_traced(
        &self,
        items: Vec<(String, String)>,
        models: Option<Vec<String>>,
        max_candidates: Option<u128>,
        trace: Option<&Arc<txmm_obs::Trace>>,
    ) -> Vec<String> {
        let n = items.len();
        let mut out: Vec<Option<String>> = Vec::new();
        out.resize_with(n, || None);
        let (reply, replies) = mpsc::channel();
        let mut pending = 0usize;
        for (seq, (file, src)) in items.into_iter().enumerate() {
            match txmm_obs::with_trace(trace, || parse_outcomes_request(&file, &src)) {
                Err(f) => {
                    self.failures.inc();
                    out[seq] = Some(outcomes_jsonl_line(&ServedOutcomes::Failure(f)));
                }
                Ok(test) => {
                    let key = txmm_litmus::program_key(&test);
                    let shard = &self.shards[(fnv1a(&key) as usize) % self.shards.len()];
                    shard.enqueued.fetch_add(1, Ordering::Relaxed);
                    let job = Job::Outcomes {
                        seq,
                        file,
                        test: Box::new(test),
                        models: models.clone(),
                        max_candidates,
                        reply: reply.clone(),
                        queued: Instant::now(),
                        trace: trace.cloned(),
                    };
                    if shard.tx.send(job).is_err() {
                        out[seq] = Some(error_line("shard worker unavailable"));
                    } else {
                        pending += 1;
                    }
                }
            }
        }
        drop(reply);
        for (seq, line) in replies.iter().take(pending) {
            if line.contains("\"error\"") {
                self.failures.inc();
            }
            out[seq] = Some(line);
        }
        out.into_iter()
            .map(|slot| slot.unwrap_or_else(|| error_line("shard worker died")))
            .collect()
    }

    /// Hot-reload the pool's user `.cat` files into every shard: files
    /// are re-read, parsed and compiled once here (a file that fails
    /// either aborts the reload with a structured error and leaves every
    /// shard serving the old models), then each shard replaces its
    /// registrations in place. Returns the reloaded model names.
    pub fn reload(&self) -> Result<Vec<String>, String> {
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
        let sources = Arc::new(sources);
        let mut names = Vec::new();
        for shard in &self.shards {
            let (reply, rx) = mpsc::channel();
            shard.enqueued.fetch_add(1, Ordering::Relaxed);
            shard
                .tx
                .send(Job::Reload {
                    sources: Arc::clone(&sources),
                    reply,
                })
                .map_err(|_| "shard worker unavailable".to_string())?;
            names = rx
                .recv()
                .map_err(|_| "shard worker died during reload".to_string())??;
        }
        Ok(names)
    }

    /// Render the `reload` response line.
    pub fn reload_line(&self) -> String {
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

    /// Snapshot every shard (in shard order) plus the dispatch-level
    /// failure count.
    pub fn stats(&self) -> (Vec<ShardSnapshot>, u64) {
        let mut out = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, rx) = mpsc::channel();
            if shard.tx.send(Job::Stats { reply }).is_err() {
                continue;
            }
            if let Ok(mut snap) = rx.recv() {
                let enq = shard.enqueued.load(Ordering::Relaxed);
                let done = shard.completed.load(Ordering::Relaxed);
                snap.depth = enq.saturating_sub(done);
                out.push(snap);
            }
        }
        (out, self.failures.get())
    }

    /// Render the `stats` response line.
    pub fn stats_line(&self) -> String {
        let (shards, failures) = self.stats();
        let mut total = SessionStats::default();
        let mut stages = StageMicros::default();
        let mut served = 0u64;
        for s in &shards {
            served += s.served;
            total.interned += s.session.interned;
            total.verdict_hits += s.session.verdict_hits;
            total.verdict_misses += s.session.verdict_misses;
            total.observability_hits += s.session.observability_hits;
            total.observability_misses += s.session.observability_misses;
            total.outcome_hits += s.session.outcome_hits;
            total.outcome_misses += s.session.outcome_misses;
            total.outcome_entries += s.session.outcome_entries;
            total.outcome_candidates += s.session.outcome_candidates;
            total.outcome_classes += s.session.outcome_classes;
            total.compile_hits += s.session.compile_hits;
            total.compile_misses += s.session.compile_misses;
            total.compile_entries += s.session.compile_entries;
            total.compile_micros += s.session.compile_micros;
            total.prune_subtrees_cut += s.session.prune_subtrees_cut;
            total.prune_candidates_skipped += s.session.prune_candidates_skipped;
            total.prune_oracle_calls += s.session.prune_oracle_calls;
            total.prune_oracle_micros += s.session.prune_oracle_micros;
            total.prune_delta_answers += s.session.prune_delta_answers;
            total.prune_fallbacks += s.session.prune_fallbacks;
            total.prune_batches += s.session.prune_batches;
            total.prune_batched_placements += s.session.prune_batched_placements;
            stages.parse += s.stages.parse;
            stages.convert += s.stages.convert;
            stages.verdict += s.stages.verdict;
            stages.observe += s.stages.observe;
            stages.other += s.stages.other;
        }
        let rate = |hits: u64, misses: u64| -> String {
            let total = hits + misses;
            if total == 0 {
                "null".to_string()
            } else {
                format!("{:.4}", hits as f64 / total as f64)
            }
        };
        let per_shard = shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"shard\":{},\"served\":{},\"depth\":{},\"interned\":{},\
                     \"verdict_hits\":{},\"verdict_misses\":{},\"outcome_entries\":{},\
                     \"outcome_hits\":{},\"outcome_misses\":{},\"compile_hits\":{},\
                     \"compile_misses\":{},\"compile_entries\":{},\"compile_micros\":{},\
                     \"prune_subtrees_cut\":{},\"prune_candidates_skipped\":{},\
                     \"prune_oracle_calls\":{},\"prune_oracle_micros\":{},\
                     \"prune_delta_answers\":{},\"prune_fallbacks\":{},\
                     \"prune_batches\":{},\"prune_batched_placements\":{},\
                     \"walk\":{{\"work_done\":{},\"work_total\":{},\"subtrees\":{},\
                     \"candidates\":{},\"classes\":{}}}}}",
                    s.shard,
                    s.served,
                    s.depth,
                    s.session.interned,
                    s.session.verdict_hits,
                    s.session.verdict_misses,
                    s.session.outcome_entries,
                    s.session.outcome_hits,
                    s.session.outcome_misses,
                    s.session.compile_hits,
                    s.session.compile_misses,
                    s.session.compile_entries,
                    s.session.compile_micros,
                    s.session.prune_subtrees_cut,
                    s.session.prune_candidates_skipped,
                    s.session.prune_oracle_calls,
                    s.session.prune_oracle_micros,
                    s.session.prune_delta_answers,
                    s.session.prune_fallbacks,
                    s.session.prune_batches,
                    s.session.prune_batched_placements,
                    s.walk.work_done,
                    s.walk.work_total,
                    s.walk.subtrees,
                    s.walk.candidates,
                    s.walk.classes
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
            "{{\"shards\":{},\"served\":{served},\"failures\":{failures},\
             \"interned\":{},\"verdict_hits\":{},\"verdict_misses\":{},\
             \"verdict_hit_rate\":{},\"observability_hits\":{},\
             \"observability_misses\":{},\"observability_hit_rate\":{},\
             \"outcome_entries\":{},\"outcome_hits\":{},\"outcome_misses\":{},\
             \"outcome_hit_rate\":{},\"outcome_candidates\":{},\"outcome_classes\":{},\
             \"compile_hits\":{},\"compile_misses\":{},\"compile_hit_rate\":{},\
             \"compile_entries\":{},\"compile_micros\":{},\
             \"prune_subtrees_cut\":{},\"prune_candidates_skipped\":{},\
             \"prune_oracle_calls\":{},\"prune_oracle_micros\":{},\
             \"prune_delta_answers\":{},\"prune_fallbacks\":{},\
             \"prune_batches\":{},\"prune_batched_placements\":{},\
             \"stage_micros\":{{\"parse\":{},\"convert\":{},\"verdict\":{},\
             \"observe\":{},\"other\":{}}},\"slowest\":[{slowest}],\
             \"per_shard\":[{per_shard}]}}",
            self.shards.len(),
            total.interned,
            total.verdict_hits,
            total.verdict_misses,
            rate(total.verdict_hits, total.verdict_misses),
            total.observability_hits,
            total.observability_misses,
            rate(total.observability_hits, total.observability_misses),
            total.outcome_entries,
            total.outcome_hits,
            total.outcome_misses,
            rate(total.outcome_hits, total.outcome_misses),
            total.outcome_candidates,
            total.outcome_classes,
            total.compile_hits,
            total.compile_misses,
            rate(total.compile_hits, total.compile_misses),
            total.compile_entries,
            total.compile_micros,
            total.prune_subtrees_cut,
            total.prune_candidates_skipped,
            total.prune_oracle_calls,
            total.prune_oracle_micros,
            total.prune_delta_answers,
            total.prune_fallbacks,
            total.prune_batches,
            total.prune_batched_placements,
            stages.parse,
            stages.convert,
            stages.verdict,
            stages.observe,
            stages.other,
        )
    }

    /// Render the `models` response lines.
    pub fn model_lines(&self) -> Vec<String> {
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

    /// Drain the shard channels and join the workers.
    pub fn shutdown(self) {
        drop(self.shards);
        for w in self.workers {
            let _ = w.join();
        }
    }
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
    /// Parse a `--listen` argument.
    pub fn parse(s: &str) -> ListenAddr {
        match s.strip_prefix("unix:") {
            Some(path) => ListenAddr::Unix(PathBuf::from(path)),
            None => ListenAddr::Tcp(s.to_string()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
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
    pool: Arc<SessionPool>,
    stop: Arc<AtomicBool>,
    local_addr: String,
    /// Connection limit; `None` means unbounded (the seed behaviour:
    /// every connection gets a handler thread).
    max_conns: Option<usize>,
}

/// Decrements the live-connection gauge when a handler exits, however
/// it exits.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
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
                (Listener::Unix(l), format!("unix:{}", path.display()))
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
            pool: Arc::new(pool),
            stop: Arc::new(AtomicBool::new(false)),
            local_addr,
            max_conns: None,
        })
    }

    /// Limit concurrent connections: connections past the limit are
    /// answered with one structured [`crate::protocol::busy_line`]
    /// frame and closed instead of getting a handler thread, which
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
    /// in-flight connections and tear the pool down.
    pub fn run(self) -> io::Result<()> {
        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(true)?,
        }
        let handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let live_conns = Arc::new(AtomicUsize::new(0));
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let accepted = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                #[cfg(unix)]
                Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match accepted {
                Ok(mut conn) => {
                    // Connection limit: refuse past the cap with one
                    // structured busy frame instead of spawning a
                    // handler, so a connection flood cannot exhaust
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
                    let guard = ConnGuard(Arc::clone(&live_conns));
                    let pool = Arc::clone(&self.pool);
                    let stop = Arc::clone(&self.stop);
                    let mut handlers = handlers.lock().unwrap();
                    // Reap finished handlers as new connections arrive,
                    // so a long-lived daemon doesn't accumulate one
                    // joinable thread per connection ever accepted.
                    let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut *handlers)
                        .into_iter()
                        .partition(|h| h.is_finished());
                    *handlers = live;
                    for h in done {
                        let _ = h.join();
                    }
                    handlers.push(thread::spawn(move || {
                        let _guard = guard;
                        handle_client(conn, &pool, &stop)
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: finish every accepted connection, then stop the pool.
        let handlers = std::mem::take(&mut *handlers.lock().unwrap());
        for h in handlers {
            let _ = h.join();
        }
        if let Ok(pool) = Arc::try_unwrap(self.pool) {
            pool.shutdown();
        }
        #[cfg(unix)]
        if let Listener::Unix(_) = &self.listener {
            if let Some(path) = self.local_addr.strip_prefix("unix:") {
                let _ = std::fs::remove_file(path);
            }
        }
        Ok(())
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

/// Answer one request with its response lines (without the blank-line
/// terminator); `true` in the second slot means shutdown was requested.
fn answer(pool: &SessionPool, req: Request) -> (Vec<String>, bool) {
    match req {
        Request::Check {
            file,
            src,
            models,
            trace,
        } => {
            let line = match &trace {
                // The trace echo (`trace_id` + span timeline) goes on
                // every traced response, error lines included; untraced
                // responses stay byte-identical to one-shot serving.
                Some(id) => {
                    let tr = txmm_obs::Trace::new(id);
                    let line = pool.check_traced(&file, &src, models, &tr);
                    crate::serve::attach_trace(&line, &tr)
                }
                None => pool.check(&file, &src, models),
            };
            (vec![line], false)
        }
        Request::Batch { dir, models } => {
            let files = match collect_litmus_files(std::path::Path::new(&dir)) {
                Ok(fs) => fs,
                Err(e) => return (vec![error_line(&format!("cannot read {dir}: {e}"))], false),
            };
            if files.is_empty() {
                return (
                    vec![error_line(&format!("no .litmus files in {dir}"))],
                    false,
                );
            }
            let mut items = Vec::with_capacity(files.len());
            let mut out: Vec<Option<String>> = Vec::new();
            out.resize_with(files.len(), || None);
            let mut indices = Vec::new();
            for (i, path) in files.iter().enumerate() {
                let file = path.display().to_string();
                match std::fs::read_to_string(path) {
                    Ok(src) => {
                        indices.push(i);
                        items.push((file, src));
                    }
                    Err(e) => {
                        out[i] = Some(jsonl_line(&Served::Failure(crate::serve::TestFailure {
                            file,
                            error: e.to_string(),
                        })));
                    }
                }
            }
            for (i, line) in indices.into_iter().zip(pool.check_many(items, models)) {
                out[i] = Some(line);
            }
            (
                out.into_iter()
                    .map(|slot| slot.expect("every file answered"))
                    .collect(),
                false,
            )
        }
        Request::Outcomes {
            file,
            src,
            models,
            max_candidates,
            trace,
        } => {
            let line = match &trace {
                Some(id) => {
                    let tr = txmm_obs::Trace::new(id);
                    let line = pool.outcomes_traced(&file, &src, models, max_candidates, &tr);
                    crate::serve::attach_trace(&line, &tr)
                }
                None => pool.outcomes(&file, &src, models, max_candidates),
            };
            (vec![line], false)
        }
        Request::OutcomesBatch {
            dir,
            models,
            max_candidates,
        } => {
            let files = match collect_litmus_files(std::path::Path::new(&dir)) {
                Ok(fs) => fs,
                Err(e) => return (vec![error_line(&format!("cannot read {dir}: {e}"))], false),
            };
            if files.is_empty() {
                return (
                    vec![error_line(&format!("no .litmus files in {dir}"))],
                    false,
                );
            }
            let mut items = Vec::with_capacity(files.len());
            let mut out: Vec<Option<String>> = Vec::new();
            out.resize_with(files.len(), || None);
            let mut indices = Vec::new();
            for (i, path) in files.iter().enumerate() {
                let file = path.display().to_string();
                match std::fs::read_to_string(path) {
                    Ok(src) => {
                        indices.push(i);
                        items.push((file, src));
                    }
                    Err(e) => {
                        out[i] = Some(outcomes_jsonl_line(&ServedOutcomes::Failure(TestFailure {
                            file,
                            error: e.to_string(),
                        })));
                    }
                }
            }
            for (i, line) in
                indices
                    .into_iter()
                    .zip(pool.outcomes_many(items, models, max_candidates))
            {
                out[i] = Some(line);
            }
            (
                out.into_iter()
                    .map(|slot| slot.expect("every file answered"))
                    .collect(),
                false,
            )
        }
        Request::Reload => (vec![pool.reload_line()], false),
        Request::Models => (pool.model_lines(), false),
        Request::Stats => (vec![pool.stats_line()], false),
        Request::Metrics { prom } => {
            let lines = if prom {
                // Prometheus exposition is multi-line; ship each line of
                // the page in the frame (none are blank, so the frame
                // terminator stays unambiguous).
                txmm_obs::global()
                    .render_prom()
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(str::to_string)
                    .collect()
            } else {
                vec![txmm_obs::global().render_json()]
            };
            (lines, false)
        }
        Request::Shutdown => (vec!["{\"ok\":\"shutdown\"}".to_string()], true),
    }
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
                    let result = answer(pool, req);
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
    use crate::serve::serve_source;

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
}
