//! A work-stealing deque pool for candidate enumeration.
//!
//! Handing out whole thread-shape shards does not balance: at |E| ≥ 4 a
//! single large shape holds most of the candidate space, so one worker
//! ends up serialising a core's worth of work while the rest idle. This
//! pool splits *within* a shape: the enumeration frontier is a lazy
//! stream of coarse subtree jobs (one per canonical kind assignment —
//! hundreds to thousands per large shape), each worker owns a deque of
//! jobs, takes from its own back, **steals from the front** of a
//! victim's deque when empty, and refills from the shared frontier in
//! small chunks. The biggest shape therefore spreads across every
//! worker instead of pinning one.
//!
//! Every [`crate::Walk`] runs on it. Per-worker state comes back to the
//! caller for deterministic merging.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use txmm_obs::{WalkProgress, WorkerLane};

/// How many jobs a worker pulls from the frontier per refill. Small
/// enough that late-arriving thieves find work at the frontier, large
/// enough that the frontier lock stays cold.
const REFILL_CHUNK: usize = 8;

/// Counters describing one pool run (the bench reports these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Worker threads that ran.
    pub workers: usize,
    /// Jobs executed in total.
    pub jobs: u64,
    /// Jobs taken from another worker's deque.
    pub steals: u64,
}

/// Process-wide pool telemetry: one handle pair for every run (the
/// pool is invoked per request, so handles must not be re-registered
/// per call).
fn pool_counters() -> &'static (txmm_obs::Counter, txmm_obs::Counter) {
    static COUNTERS: OnceLock<(txmm_obs::Counter, txmm_obs::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let obs = txmm_obs::global();
        (
            obs.counter(
                "txmm_steal_jobs_total",
                "Jobs executed by the work-stealing pool.",
            ),
            obs.counter(
                "txmm_steal_steals_total",
                "Jobs taken from another worker's deque.",
            ),
        )
    })
}

impl StealStats {
    /// Fold this run into the global registry.
    fn publish(self) -> StealStats {
        let (jobs, steals) = pool_counters();
        jobs.add(self.jobs);
        steals.add(self.steals);
        self
    }
}

/// How many worker threads a pool uses by default: the cores this
/// process may run on.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run every job from `jobs` on `workers` work-stealing threads.
///
/// `init(w)` builds worker `w`'s private state; `work(job, state)` runs
/// on whichever worker claimed the job. Returns every worker state (in
/// worker order) plus the run's counters, so callers merge
/// deterministically. With `workers <= 1` the pool runs the jobs in
/// order on the calling thread: no threads, no locks, no merge.
///
/// When `progress` is set, the pool registers one [`WorkerLane`] per
/// worker and keeps per-worker job/steal counts plus busy/idle wall
/// time, so a heartbeat reporter can show utilisation mid-run. With
/// `None` the hot path has no clocks and no extra atomics.
pub(crate) fn run_with_progress<J, S, I, FI, FW>(
    jobs: I,
    workers: usize,
    progress: Option<&WalkProgress>,
    init: FI,
    work: FW,
) -> (Vec<S>, StealStats)
where
    J: Send,
    S: Send,
    I: Iterator<Item = J> + Send,
    FI: Fn(usize) -> S + Sync,
    FW: Fn(J, &mut S) + Sync,
{
    if workers <= 1 {
        let lane = progress.map(|p| p.register_workers(1).pop().expect("one registered lane"));
        let mut state = init(0);
        let mut jobs_run = 0u64;
        for job in jobs {
            match &lane {
                Some(l) => {
                    let t0 = Instant::now();
                    work(job, &mut state);
                    l.busy_micros
                        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    l.jobs.fetch_add(1, Ordering::Relaxed);
                }
                None => work(job, &mut state),
            }
            jobs_run += 1;
        }
        return (
            vec![state],
            StealStats {
                workers: 1,
                jobs: jobs_run,
                steals: 0,
            }
            .publish(),
        );
    }

    let lanes: Option<Vec<Arc<WorkerLane>>> = progress.map(|p| p.register_workers(workers));
    let frontier = Mutex::new(jobs.fuse());
    let frontier_empty = AtomicBool::new(false);
    let queues: Vec<Mutex<VecDeque<J>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let steals = AtomicU64::new(0);
    let jobs_run = AtomicU64::new(0);

    let lanes_ref = &lanes;
    let next_job = |w: usize| -> Option<J> {
        // Own deque first, newest job (depth-first locality).
        if let Some(j) = queues[w].lock().expect("own deque").pop_back() {
            return Some(j);
        }
        // Refill from the shared frontier.
        if !frontier_empty.load(Ordering::Relaxed) {
            let mut src = frontier.lock().expect("frontier");
            let mut own = queues[w].lock().expect("own deque");
            for _ in 0..REFILL_CHUNK {
                match src.next() {
                    Some(j) => own.push_back(j),
                    None => {
                        frontier_empty.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            if let Some(j) = own.pop_back() {
                return Some(j);
            }
        }
        // Steal the oldest job from the first non-empty victim.
        for v in 1..workers {
            let victim = (w + v) % workers;
            if let Some(j) = queues[victim].lock().expect("victim deque").pop_front() {
                steals.fetch_add(1, Ordering::Relaxed);
                if let Some(ls) = lanes_ref {
                    ls[w].steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(j);
            }
        }
        None
    };

    let mut states: Vec<Option<S>> = Vec::new();
    states.resize_with(workers, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let next_job = &next_job;
            let init = &init;
            let work = &work;
            let jobs_run = &jobs_run;
            let frontier_empty = &frontier_empty;
            let lane = lanes.as_ref().map(|ls| ls[w].clone());
            handles.push(scope.spawn(move || {
                let mut state = init(w);
                // Idle accounting spans from the first empty claim to
                // the next successful one (a single yield is below
                // microsecond resolution).
                let mut idle_since: Option<Instant> = None;
                loop {
                    match next_job(w) {
                        Some(job) => {
                            match &lane {
                                Some(l) => {
                                    if let Some(t) = idle_since.take() {
                                        l.idle_micros.fetch_add(
                                            t.elapsed().as_micros() as u64,
                                            Ordering::Relaxed,
                                        );
                                    }
                                    let t0 = Instant::now();
                                    work(job, &mut state);
                                    l.busy_micros.fetch_add(
                                        t0.elapsed().as_micros() as u64,
                                        Ordering::Relaxed,
                                    );
                                    l.jobs.fetch_add(1, Ordering::Relaxed);
                                }
                                None => work(job, &mut state),
                            }
                            jobs_run.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            // Nothing anywhere. New jobs only enter via
                            // the frontier, so once it is drained and
                            // every deque came up empty this worker can
                            // retire; in-flight jobs finish on their
                            // holders.
                            if lane.is_some() && idle_since.is_none() {
                                idle_since = Some(Instant::now());
                            }
                            if frontier_empty.load(Ordering::Relaxed) {
                                if let (Some(l), Some(t)) = (&lane, idle_since.take()) {
                                    l.idle_micros.fetch_add(
                                        t.elapsed().as_micros() as u64,
                                        Ordering::Relaxed,
                                    );
                                }
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                state
            }));
        }
        for (w, h) in handles.into_iter().enumerate() {
            states[w] = Some(h.join().expect("pool worker panicked"));
        }
    });

    (
        states.into_iter().map(|s| s.expect("joined")).collect(),
        StealStats {
            workers,
            jobs: jobs_run.load(Ordering::Relaxed),
            steals: steals.load(Ordering::Relaxed),
        }
        .publish(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_jobs_run_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        let (states, stats) = run_with_progress(
            0..500usize,
            4,
            None,
            |_| 0usize,
            |j, s| {
                hits[j].fetch_add(1, Ordering::Relaxed);
                *s += 1;
            },
        );
        assert_eq!(stats.jobs, 500);
        assert_eq!(states.iter().sum::<usize>(), 500);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sequential_degenerate_case() {
        let (states, stats) = run_with_progress(
            0..10usize,
            1,
            None,
            |_| Vec::new(),
            |j, s: &mut Vec<usize>| s.push(j),
        );
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(states[0], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn one_huge_job_stream_balances() {
        // Jobs with wildly uneven costs: every worker state still merges
        // to the right total, and nothing deadlocks.
        let job = |cost: usize| -> u64 {
            let mut x = 0u64;
            for k in 0..cost {
                x = x.wrapping_add(k as u64);
            }
            x.max(1)
        };
        let costs: Vec<usize> = (0..64)
            .map(|i| if i == 0 { 200_000 } else { 100 })
            .collect();
        let expect: u64 = costs.iter().map(|&c| job(c)).sum();
        let (states, stats) = run_with_progress(
            costs.into_iter(),
            3,
            None,
            |_| 0u64,
            |cost, acc| *acc = acc.wrapping_add(job(cost)),
        );
        assert_eq!(stats.jobs, 64);
        assert_eq!(
            states.iter().sum::<u64>(),
            expect,
            "per-worker states merge to the full total"
        );
    }

    #[test]
    fn empty_frontier_terminates() {
        let (states, stats) =
            run_with_progress(std::iter::empty::<usize>(), 4, None, |_| (), |_, _| {});
        assert_eq!(stats.jobs, 0);
        assert_eq!(states.len(), 4);
    }
}
