//! The walk engine: every bounded search over the candidate space —
//! Forbid/Allow synthesis (§4), model differences, the §8 metatheory
//! checks — is a [`Walk`], which holds four settings:
//!
//! * the [`EnumConfig`] whose space it covers;
//! * what it keeps: every candidate (the default), the survivors of a
//!   [`PruneOracle`] ([`Walk::prune`]), or exactly the classes a model
//!   deems consistent ([`Walk::consistent`]);
//! * the worker count of the work-stealing pool ([`crate::steal`]);
//! * an optional [`WalkProgress`] sink.
//!
//! Every run walks the same [`Frontier`] of subtrees through one
//! subtree driver, so the emission order does not depend on the worker
//! count: parallel runs stamp each candidate with its [`CandSeq`], and
//! merging by it reproduces the one-worker order.
//!
//! Every subtree runs the structure walk of [`crate::consistent`]; a
//! walk without an oracle runs it under [`NoPrune`]. An oracle only
//! removes candidates, so a pruned walk emits the unpruned order,
//! filtered.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use txmm_core::canon::{kind_tag, label_canonical, Label};
use txmm_core::incr::{NoPrune, PruneOracle, PruneStats};
use txmm_core::{EventKind, Execution};
use txmm_models::Model;
use txmm_obs::WalkProgress;

use crate::consistent::{pruned_structures, publish_prune, LeafChecker};
use crate::enumerate::{
    config_shapes, enumerate_labels, kinds_for, shape_tids, walk_weight, CandSeq, EnumConfig,
    Frontier, Keep, Leaves, Subtree,
};
use crate::steal::{run_with_progress, worker_count, StealStats};

/// A bounded walk over the candidate space of one [`EnumConfig`]; see
/// the [module docs](self).
#[derive(Clone)]
pub struct Walk<'a> {
    cfg: EnumConfig,
    oracle: Option<&'a dyn PruneOracle>,
    /// Set by [`Walk::consistent`]: the model that filters the leaves.
    model: Option<&'a dyn Model>,
    workers: usize,
    progress: Option<&'a WalkProgress>,
}

/// One worker's prune counters and leaf checker.
pub(crate) struct Lane<'m> {
    prune: PruneStats,
    check: Option<LeafChecker<'m>>,
}

/// What a [`Walk::search`] test makes of one candidate.
pub enum Probe<T> {
    /// Outside the search's hypotheses: not counted as checked.
    Skip,
    /// Checked, and not a hit.
    Pass,
    /// Checked, and a hit; the search goes on.
    Hit(T),
    /// Checked, and a hit that ends the search: no candidate after it
    /// in emission order is examined or reported.
    Stop(T),
}

/// The outcome of a [`Walk::search`].
pub struct Search<T> {
    /// The hits in emission order, up to and including the first stop.
    pub hits: Vec<T>,
    /// Candidates checked up to the first stop: while the budget lasts,
    /// the same at every worker count.
    pub checked: usize,
    /// False when the budget ran out before the search was decided.
    pub complete: bool,
    /// The walk's prune counters.
    pub prune: PruneStats,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

impl Walk<'static> {
    /// A walk over every candidate of `cfg` on [`worker_count`]
    /// workers, with no progress sink.
    pub fn new(cfg: &EnumConfig) -> Walk<'static> {
        Walk {
            cfg: cfg.clone(),
            oracle: None,
            model: None,
            workers: worker_count(),
            progress: None,
        }
    }

    /// The walk's candidates through a channel that holds `capacity`;
    /// dropping the iterator makes the pool skip every remaining subtree.
    pub fn stream(self, capacity: usize) -> impl Iterator<Item = Execution> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Execution>(capacity.max(1));
        std::thread::spawn(move || {
            let gone = AtomicBool::new(false);
            let shapes = self.start();
            self.run(
                |_| tx.clone(),
                |sub, lane, tx| {
                    if gone.load(Ordering::Relaxed) {
                        return;
                    }
                    self.subtree(&shapes, sub, lane, |_, x| {
                        if !gone.load(Ordering::Relaxed) && tx.send(x.clone()).is_err() {
                            gone.store(true, Ordering::Relaxed);
                        }
                    });
                },
            );
        });
        rx.into_iter()
    }
}

impl<'a> Walk<'a> {
    /// Cut the rf/co subtrees `oracle` rules out; the leaves are its
    /// survivors, checked against no model.
    pub fn prune(self, oracle: &'a dyn PruneOracle) -> Walk<'a> {
        Walk {
            oracle: Some(oracle),
            ..self
        }
    }

    /// Keep exactly the classes `model` deems consistent: its
    /// transaction-agnostic oracle cuts the walk, and a per-worker
    /// [`LeafChecker`] decides the leaves. Kept classes are counted
    /// into the progress sink.
    pub fn consistent(self, model: &'a dyn Model) -> Walk<'a> {
        Walk {
            oracle: model.prune_oracle(false),
            model: Some(model),
            ..self
        }
    }

    /// Run on `n` pool workers; `n <= 1` runs the frontier in order on
    /// the calling thread.
    pub fn workers(self, n: usize) -> Walk<'a> {
        Walk { workers: n, ..self }
    }

    /// Report the plan, finished subtrees and pool lanes to `progress`.
    pub fn progress(self, progress: Option<&'a WalkProgress>) -> Walk<'a> {
        Walk { progress, ..self }
    }

    /// The space the walk covers.
    pub fn config(&self) -> &EnumConfig {
        &self.cfg
    }

    /// Run `f` on every kept candidate across the pool, each worker with
    /// its own state from `init`. The states come back in worker order
    /// with the merged prune and pool counters; callers order results
    /// by [`CandSeq`].
    pub fn visit<S: Send>(
        &self,
        init: impl Fn(usize) -> S + Sync,
        f: impl Fn(CandSeq, &Execution, &mut S) + Sync,
    ) -> (Vec<S>, PruneStats, StealStats) {
        let shapes = self.start();
        self.run(init, |sub, lane, s| {
            self.subtree(&shapes, sub, lane, |i, x| f((sub.seq, i), x, s))
        })
    }

    /// Run `f` on every kept candidate on the calling thread, in
    /// emission order.
    pub fn for_each(&self, mut f: impl FnMut(&Execution)) -> PruneStats {
        let shapes = self.start();
        let mut lane = self.lane();
        for sub in Frontier::new(&self.cfg) {
            self.subtree(&shapes, &sub, &mut lane, |_, x| f(x));
        }
        self.finish(lane.prune)
    }

    /// How many candidates the walk keeps.
    pub fn count(&self) -> (usize, PruneStats) {
        let (counts, prune, _) = self.visit(|_| 0usize, |_, _, n| *n += 1);
        (counts.into_iter().sum(), prune)
    }

    /// Probe every kept candidate with `test` (each worker with its own
    /// state from `init`) until the budget runs out or a [`Probe::Stop`]
    /// decides the search. The result is what one worker finds in
    /// emission order: a stop skips only the subtrees after its own,
    /// and hits and counts past it are dropped. Hits are counted into
    /// the progress sink as classes.
    pub fn search<S: Send, T: Send>(
        &self,
        budget: Option<Duration>,
        init: impl Fn(usize) -> S + Sync,
        test: impl Fn(&Execution, &mut S) -> Probe<T> + Sync,
    ) -> Search<T> {
        /// One worker's findings.
        struct Found<S, T> {
            state: S,
            hits: Vec<(CandSeq, T)>,
            /// Candidates checked, per subtree sequence number.
            checked: Vec<(u64, usize)>,
            /// The earliest stop this worker found.
            stop: Option<CandSeq>,
        }
        let start = Instant::now();
        // Subtrees at or past this sequence number are not examined: one
        // past the earliest subtree holding a stop, and 0 once the budget
        // runs out.
        let horizon = AtomicU64::new(u64::MAX);
        let shapes = self.start();
        let (found, prune, _) = self.run(
            |w| Found {
                state: init(w),
                hits: Vec::new(),
                checked: Vec::new(),
                stop: None,
            },
            |sub, lane, f| {
                if sub.seq >= horizon.load(Ordering::Relaxed) {
                    return;
                }
                let mut checked = 0usize;
                self.subtree(&shapes, sub, lane, |i, x| {
                    let at = (sub.seq, i);
                    if f.stop.is_some_and(|s| at > s) || sub.seq >= horizon.load(Ordering::Relaxed)
                    {
                        return;
                    }
                    if budget.is_some_and(|b| start.elapsed() >= b) {
                        horizon.store(0, Ordering::Relaxed);
                        return;
                    }
                    let (hit, stop) = match test(x, &mut f.state) {
                        Probe::Skip => return,
                        Probe::Pass => (None, false),
                        Probe::Hit(t) => (Some(t), false),
                        Probe::Stop(t) => (Some(t), true),
                    };
                    checked += 1;
                    if let Some(t) = hit {
                        f.hits.push((at, t));
                        if let Some(p) = self.progress {
                            p.add_classes(1);
                        }
                    }
                    if stop {
                        f.stop = Some(at);
                        horizon.fetch_min(sub.seq + 1, Ordering::Relaxed);
                    }
                });
                if checked > 0 {
                    f.checked.push((sub.seq, checked));
                }
            },
        );
        let stop = found.iter().filter_map(|f| f.stop).min();
        let upto = |at: CandSeq| stop.is_none_or(|s| at <= s);
        let (mut checked, mut hits) = (0, Vec::new());
        for f in found {
            checked += f
                .checked
                .iter()
                .filter(|c| upto((c.0, 0)))
                .map(|c| c.1)
                .sum::<usize>();
            hits.extend(f.hits.into_iter().filter(|(at, _)| upto(*at)));
        }
        hits.sort_by_key(|(at, _)| *at);
        Search {
            hits: hits.into_iter().map(|(_, t)| t).collect(),
            checked,
            complete: horizon.into_inner() != 0,
            prune,
            elapsed: start.elapsed(),
        }
    }

    // ---- The engine ------------------------------------------------------

    /// Declare the plan to the progress sink; returns the shapes.
    fn start(&self) -> Vec<Vec<usize>> {
        if let Some(p) = self.progress {
            p.add_total(walk_weight(&self.cfg));
        }
        config_shapes(&self.cfg)
    }

    /// The counters a finished walk reports: a pruned walk publishes
    /// them to the registry, and a walk without an oracle counts
    /// nothing.
    fn finish(&self, prune: PruneStats) -> PruneStats {
        if self.oracle.is_none() {
            return PruneStats::default();
        }
        publish_prune(&prune);
        prune
    }

    pub(crate) fn lane(&self) -> Lane<'a> {
        Lane {
            prune: PruneStats::default(),
            check: self.model.map(LeafChecker::new),
        }
    }

    /// Run `job` on every frontier subtree across the pool.
    fn run<S: Send>(
        &self,
        init: impl Fn(usize) -> S + Sync,
        job: impl Fn(&Subtree, &mut Lane<'a>, &mut S) + Sync,
    ) -> (Vec<S>, PruneStats, StealStats) {
        let (pairs, steal) = run_with_progress(
            Frontier::new(&self.cfg),
            self.workers,
            self.progress,
            |w| (self.lane(), init(w)),
            |sub, (lane, s)| job(&sub, lane, s),
        );
        let mut prune = PruneStats::default();
        let states = pairs
            .into_iter()
            .map(|(lane, s)| {
                prune.merge(&lane.prune);
                s
            })
            .collect();
        (states, self.finish(prune), steal)
    }

    /// Walk one frontier subtree, passing every kept candidate to
    /// `emit` with its index among the subtree's leaves, then report
    /// the subtree to the progress sink.
    pub(crate) fn subtree(
        &self,
        shapes: &[Vec<usize>],
        sub: &Subtree,
        lane: &mut Lane<'a>,
        mut emit: impl FnMut(u32, &Execution),
    ) {
        let cfg = &self.cfg;
        let shape = &shapes[sub.shape_idx];
        let kinds = kinds_for(cfg);
        let evkinds: Vec<EventKind> = sub.kind_choice.iter().map(|&i| kinds[i as usize]).collect();
        let tids = shape_tids(shape);
        let oracle = self.oracle;
        let Lane { prune, check } = lane;
        let before = (prune.subtrees_cut, prune.candidates_skipped);
        let mut leaves = Leaves::default();
        let mut n = 0u32;
        let mut leaf = |x: &Execution| {
            n += 1;
            if let Some(c) = check {
                if !c.consistent(x) {
                    return;
                }
                if let Some(p) = self.progress {
                    p.add_classes(1);
                }
            }
            emit(n - 1, x);
        };
        enumerate_labels(cfg, &tids, &evkinds, &mut |events| {
            let labels: Vec<Label> = events
                .iter()
                .map(|ev| Label {
                    tag: kind_tag(ev.kind),
                    attrs: ev.attrs.bits(),
                    loc: ev.loc,
                })
                .collect();
            let Some(auts) = label_canonical(shape, &labels) else {
                return; // Symmetry-duplicate label prefix: prune the
                        // whole relation/transaction subtree.
            };
            let keep = &mut Keep::Orbit(&auts);
            pruned_structures(cfg, events, oracle, prune, &mut leaves, keep, &mut leaf);
        });
        if let Some(p) = self.progress {
            p.subtree_done(
                sub.weight,
                u64::from(n),
                prune.subtrees_cut - before.0,
                prune.candidates_skipped - before.1,
            );
        }
    }
}

// ---- Wrappers kept for the benchmark ------------------------------------
//
// The benchmark package (`perfbench/`) predates `Walk` and imports these
// four by name; they go once it calls `Walk` directly.

/// The model's pruning oracle for the given phase, [`NoPrune`] when it
/// has none; kept for the benchmark package. A `Walk` takes the model's
/// `Option` as it is, and without an oracle it counts nothing.
pub fn oracle_for(model: &dyn Model, txns_known: bool) -> &dyn PruneOracle {
    model.prune_oracle(txns_known).unwrap_or(&NoPrune)
}

/// `Walk::new(cfg).for_each(visit)`, kept for the benchmark package.
pub fn enumerate(cfg: &EnumConfig, visit: &mut dyn FnMut(&Execution)) {
    Walk::new(cfg).for_each(visit);
}

/// `Walk::count` over [`Walk::consistent`], kept for the benchmark
/// package.
pub fn count_consistent_par_progress(
    cfg: &EnumConfig,
    model: &dyn Model,
    workers: usize,
    progress: Option<&WalkProgress>,
) -> (usize, PruneStats) {
    Walk::new(cfg)
        .consistent(model)
        .workers(workers)
        .progress(progress)
        .count()
}

/// `Walk::visit` over [`Walk::prune`], kept for the benchmark package.
pub fn visit_pruned_par_progress<S, FI, FV>(
    cfg: &EnumConfig,
    oracle: &dyn PruneOracle,
    workers: usize,
    progress: Option<&WalkProgress>,
    init: FI,
    visit: FV,
) -> (Vec<S>, PruneStats, StealStats)
where
    S: Send,
    FI: Fn(usize) -> S + Sync,
    FV: Fn(CandSeq, &Execution, &mut S) + Sync,
{
    Walk::new(cfg)
        .prune(oracle)
        .workers(workers)
        .progress(progress)
        .visit(init, visit)
}
