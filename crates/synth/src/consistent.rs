//! Consistency-guided enumeration: the streaming engine of
//! [`crate::enumerate`] with the incremental consistency engine of
//! [`txmm_core::incr`] threaded through the relation stages.
//!
//! The plain enumerator materialises every well-formed rf/co/txn
//! combination and leaves consistency to the caller. Here every rf
//! source and every coherence placement is applied to a
//! [`PartialCandidate`] the moment it is chosen, and a per-model
//! [`PruneOracle`] — sound on partial executions by monotonicity —
//! abandons the whole relation subtree the instant the partial
//! communication relations close a forbidden cycle. Pruned subtrees
//! are *counted*, never built.
//!
//! Soundness is the monotonicity argument of `txmm_core::incr`: an
//! oracle rejection certifies that **no completion** of the partial
//! candidate (any rf/co extension, any transaction layout) is
//! consistent, so filtering the pruned stream by the full model check
//! at the leaves yields exactly `enumerate · filter consistent` — the
//! same canonical classes, the same representatives. The differential
//! suite (`tests/pruning_differential.rs`) pins this at |E| ≤ 4 for
//! all six model spaces.
//!
//! The walk composes with the orbit-minimality pruning of
//! [`crate::enumerate`]: kind- and label-canonicalisation cut symmetry
//! duplicates before structure assignment begins, the oracle cuts
//! doomed relation subtrees during it, and the stateless automorphism
//! test picks class representatives at the leaves. Consistency is a
//! class invariant, so the two prunings commute.
//!
//! The leaves are the unpruned walk's: each completed rf/co assignment
//! (a *group*) is copied into one execution per label assignment, and
//! the shared leaf path (`Leaves`, in the enumerate module) switches every
//! transaction layout into it in place, deciding the txn-free half of
//! the symmetry test once per group. [`LeafChecker`] then re-derives
//! only the layout-dependent relations per layout.

use txmm_core::canon::{kind_tag, label_canonical, Label};
use txmm_core::incr::{judge_batch, NoPrune, PartialCandidate, PruneOracle, PruneStats};
use txmm_core::{Event, EventKind, EventSet, Execution, Rel, TxnFreeBase};
use txmm_models::Model;

use txmm_obs::WalkProgress;

use crate::enumerate::{
    config_shapes, enumerate_labels, for_deps, kinds_for, shape_tids, walk_plan, CandSeq,
    EnumConfig, Frontier, Keep, Leaves, StructureSpace, Subtree,
};
use crate::par::worker_count;
use crate::steal::{run_with_progress, StealStats};

/// Process-wide prune telemetry, published once per completed walk
/// (the walks run per request, so handles are created exactly once).
fn publish_prune(st: &PruneStats) {
    use std::sync::OnceLock;
    static COUNTERS: OnceLock<([txmm_obs::Counter; 6], txmm_obs::Histogram)> = OnceLock::new();
    let ([cut, skipped, calls, micros, delta, fallback], batch_size) = COUNTERS.get_or_init(|| {
        let obs = txmm_obs::global();
        (
            [
                obs.counter(
                    "txmm_prune_subtrees_cut_total",
                    "Construction subtrees abandoned on a non-viable partial.",
                ),
                obs.counter(
                    "txmm_prune_candidates_skipped_total",
                    "Complete candidates pruned subtrees would have materialised.",
                ),
                obs.counter("txmm_prune_oracle_calls_total", "Prune-oracle invocations."),
                obs.counter(
                    "txmm_prune_oracle_microseconds_total",
                    "Wall-clock time spent inside prune-oracle calls.",
                ),
                obs.counter(
                    "txmm_prune_delta_answers_total",
                    "Viability probes answered from incremental delta state alone.",
                ),
                obs.counter(
                    "txmm_prune_fallback_total",
                    "Viability probes the delta state could not decide, falling \
                     back to a full analysis re-check.",
                ),
            ],
            obs.histogram(
                "txmm_prune_batch_size",
                "Sibling placements judged per batched prune-oracle call.",
            ),
        )
    });
    cut.add(st.subtrees_cut);
    skipped.add(st.candidates_skipped);
    calls.add(st.oracle_calls);
    micros.add(st.oracle_micros);
    delta.add(st.delta_answers);
    fallback.add(st.fallbacks);
    for (bound, n) in txmm_core::incr::BATCH_BOUNDS.iter().zip(&st.batch_hist) {
        batch_size.record_n(*bound, *n);
    }
}

/// The model's pruning oracle for the given phase, degraded to
/// [`NoPrune`] (plain enumeration) when the model offers nothing sound.
pub fn oracle_for(model: &dyn Model, txns_known: bool) -> &dyn PruneOracle {
    model.prune_oracle(txns_known).unwrap_or(&NoPrune)
}

/// A full-model consistency filter over a leaf stream that shares
/// txn-independent analysis slots across consecutive candidates.
///
/// Both structure walks emit every transaction layout of one completed
/// rf/co assignment back to back; those siblings differ only in `txns`,
/// so `fr`, `com`, the equivalences, the fence relations and the
/// models' memoised txn-free relations (the x86 `hb` and ARMv8 `ob`
/// fixed unions, Power's `ppo`, `ihb`, `(fre ∪ coe)*` and `come*`) —
/// the bulk of a full check — are identical. The checker captures them
/// from the first sibling's analysis ([`TxnFreeBase`]) and re-seeds
/// each follow-up analysis after a fingerprint match, re-deriving from
/// scratch only when the underlying structure actually changed. The
/// consistent walks check every leaf through one, and so does Table 1
/// synthesis for its transactional model.
pub struct LeafChecker<'m> {
    model: &'m dyn Model,
    base: Option<TxnFreeBase>,
}

impl<'m> LeafChecker<'m> {
    pub fn new(model: &'m dyn Model) -> LeafChecker<'m> {
        LeafChecker { model, base: None }
    }

    /// Full-model consistency of `x`, sharing txn-independent slots
    /// with the previous candidate when the structure matches.
    pub fn consistent(&mut self, x: &Execution) -> bool {
        if let Some(b) = &self.base {
            if b.matches(x) {
                return self.model.consistent_analysis(&b.seed(x));
            }
        }
        let a = x.analysis();
        let ok = self.model.consistent_analysis(&a);
        self.base = Some(TxnFreeBase::capture(&a));
        ok
    }
}

// ---- The pruned structure walk -----------------------------------------

/// Shared state of one structure walk: the choice space, the oracle,
/// and the precomputed arity products that let a cut count exactly how
/// many candidates it skipped.
struct Walk<'a> {
    oracle: &'a dyn PruneOracle,
    space: &'a StructureSpace,
    /// Per read: every same-location write (the init read is
    /// `fr`-before all of them).
    read_loc_writes: Vec<EventSet>,
    /// `fact[k] = k!` — orderings of `k` still-unplaced writes.
    fact: Vec<u64>,
    /// `co_suffix[l]` = co orderings over locations `l..` (`m_l!`
    /// suffix product; last entry 1).
    co_suffix: Vec<u64>,
    /// `rf_suffix[i]` = rf assignments over reads `i..` (option-count
    /// suffix product; last entry 1).
    rf_suffix: Vec<u64>,
    /// Leaf candidates per complete rf/co assignment (txn layouts ×
    /// atomic flag).
    txn_leaves: u64,
}

impl<'a> Walk<'a> {
    fn new(events: &[Event], space: &'a StructureSpace, oracle: &'a dyn PruneOracle) -> Walk<'a> {
        let n = events.len();
        let read_loc_writes = space
            .reads
            .iter()
            .map(|&r| {
                let mut s = EventSet::default();
                for w in 0..n {
                    if events[w].kind == EventKind::Write && events[w].loc == events[r].loc {
                        s.insert(w);
                    }
                }
                s
            })
            .collect();
        let mut fact = vec![1u64; n + 1];
        for k in 1..=n {
            fact[k] = fact[k - 1].saturating_mul(k as u64);
        }
        let mut co_suffix = vec![1u64; space.loc_writes.len() + 1];
        for l in (0..space.loc_writes.len()).rev() {
            co_suffix[l] = co_suffix[l + 1].saturating_mul(fact[space.loc_writes[l].len()]);
        }
        let mut rf_suffix = vec![1u64; space.reads.len() + 1];
        for i in (0..space.reads.len()).rev() {
            rf_suffix[i] = rf_suffix[i + 1].saturating_mul(space.rf_options[i].len() as u64);
        }
        Walk {
            oracle,
            space,
            read_loc_writes,
            fact,
            co_suffix,
            rf_suffix,
            txn_leaves: space.txn_leaves(),
        }
    }

    fn cut(&self, st: &mut PruneStats, below: u64) {
        st.subtrees_cut += 1;
        st.candidates_skipped = st.candidates_skipped.saturating_add(below);
    }

    fn apply_rf(&self, i: usize, r: usize, opt: Option<usize>, pc: &mut PartialCandidate) -> bool {
        match opt {
            None => {
                let ws = self.read_loc_writes[i];
                pc.assign_init_read(r, ws);
                !ws.is_empty()
            }
            Some(w) => {
                pc.assign_rf(w, r);
                true
            }
        }
    }

    /// Assign read `i`'s rf source, then recurse; a non-viable
    /// assignment cuts every candidate below it. All sibling options
    /// are probed first — the ones the delta state cannot decide are
    /// materialised and judged in one batched oracle call — and only
    /// then do the viable ones recurse, in the original option order.
    fn rf(
        &self,
        i: usize,
        pc: &mut PartialCandidate,
        st: &mut PruneStats,
        leaf: &mut dyn FnMut(&Execution),
    ) {
        if i == self.space.reads.len() {
            self.co(0, pc, st, leaf);
            return;
        }
        let r = self.space.reads[i];
        let opts = &self.space.rf_options[i];
        let mut viable_mask = 0u64;
        let mut pend_slots: Vec<usize> = Vec::new();
        let mut batch: Vec<(Execution, Rel)> = Vec::new();
        pc.mark();
        for (j, &opt) in opts.iter().enumerate() {
            let added = self.apply_rf(i, r, opt, pc);
            match if added {
                pc.probe(self.oracle, st)
            } else {
                Some(true) // no new edges: nothing to check
            } {
                Some(true) => viable_mask |= 1 << j,
                Some(false) => {}
                None => {
                    pend_slots.push(j);
                    batch.push(pc.materialise());
                }
            }
            pc.rewind();
        }
        if !batch.is_empty() {
            st.record_batch(batch.len());
            let bits = judge_batch(self.oracle, &batch, st);
            for (b, &j) in pend_slots.iter().enumerate() {
                if bits & (1 << b) != 0 {
                    viable_mask |= 1 << j;
                }
            }
        }
        for (j, &opt) in opts.iter().enumerate() {
            if viable_mask & (1 << j) != 0 {
                self.apply_rf(i, r, opt, pc);
                self.rf(i + 1, pc, st, leaf);
                pc.rewind();
            } else {
                self.cut(
                    st,
                    self.rf_suffix[i + 1]
                        .saturating_mul(self.co_suffix[0])
                        .saturating_mul(self.txn_leaves),
                );
            }
        }
        pc.release();
    }

    /// Build location `li`'s coherence order write by write.
    fn co(
        &self,
        li: usize,
        pc: &mut PartialCandidate,
        st: &mut PruneStats,
        leaf: &mut dyn FnMut(&Execution),
    ) {
        if li == self.space.loc_writes.len() {
            leaf(pc.exec());
            return;
        }
        self.place(li, EventSet::default(), 0, pc, st, leaf);
    }

    fn place(
        &self,
        li: usize,
        placed: EventSet,
        k: usize,
        pc: &mut PartialCandidate,
        st: &mut PruneStats,
        leaf: &mut dyn FnMut(&Execution),
    ) {
        let ws = &self.space.loc_writes[li];
        if k == ws.len() {
            self.co(li + 1, pc, st, leaf);
            return;
        }
        let mut viable_mask = 0u64;
        let mut pend_slots: Vec<usize> = Vec::new();
        let mut batch: Vec<(Execution, Rel)> = Vec::new();
        pc.mark();
        for (j, &w) in ws.iter().enumerate() {
            if placed.contains(w) {
                continue;
            }
            pc.push_co(placed, w);
            match if placed.is_empty() {
                Some(true) // the first write adds no edges
            } else {
                pc.probe(self.oracle, st)
            } {
                Some(true) => viable_mask |= 1 << j,
                Some(false) => {}
                None => {
                    pend_slots.push(j);
                    batch.push(pc.materialise());
                }
            }
            pc.rewind();
        }
        if !batch.is_empty() {
            st.record_batch(batch.len());
            let bits = judge_batch(self.oracle, &batch, st);
            for (b, &j) in pend_slots.iter().enumerate() {
                if bits & (1 << b) != 0 {
                    viable_mask |= 1 << j;
                }
            }
        }
        for (j, &w) in ws.iter().enumerate() {
            if placed.contains(w) {
                continue;
            }
            if viable_mask & (1 << j) != 0 {
                pc.push_co(placed, w);
                let mut next = placed;
                next.insert(w);
                self.place(li, next, k + 1, pc, st, leaf);
                pc.rewind();
            } else {
                self.cut(
                    st,
                    self.fact[ws.len() - k - 1]
                        .saturating_mul(self.co_suffix[li + 1])
                        .saturating_mul(self.txn_leaves),
                );
            }
        }
        pc.release();
    }
}

/// Walk the structure space over one labelled event vector with oracle
/// pruning; `visit` receives every surviving class representative.
///
/// rf/co are walked once per (rmw, deps) choice with a
/// transaction-agnostic oracle, and [`Leaves`] expands every
/// transaction layout of each completed rf/co group in place over one
/// execution per label assignment. Survivors are *not* yet filtered by
/// a full model check.
fn pruned_structures(
    cfg: &EnumConfig,
    events: &[Event],
    oracle: &dyn PruneOracle,
    st: &mut PruneStats,
    leaves: &mut Leaves,
    keep: &mut Keep<'_>,
    visit: &mut dyn FnMut(&Execution),
) {
    let n = events.len();
    let space = StructureSpace::new(cfg, events);
    let walk = Walk::new(events, &space, oracle);
    let empty = Rel::empty(n);
    // The execution every group of this label assignment is copied
    // into and every layout switched in: the walk's own partial
    // candidate keeps its empty transaction classes for the oracle.
    let mut y = space.execution(events, empty, empty, empty, empty);
    for rmws in &space.rmw_sets {
        let mut rmw = Rel::empty(n);
        for &(a, b) in rmws {
            rmw.add(a, b);
        }
        for_deps(cfg, events, &space.dep_slots, &mut |addr, ctrl, data| {
            let base = space.execution(events, *addr, *ctrl, *data, rmw);
            let mut pc = PartialCandidate::with_oracle(base, oracle);
            // Structure-only violations (no rf/co yet) kill the whole
            // subtree at once.
            if !pc.viable(oracle, st) {
                walk.cut(
                    st,
                    walk.rf_suffix[0]
                        .saturating_mul(walk.co_suffix[0])
                        .saturating_mul(walk.txn_leaves),
                );
                return;
            }
            let (a, c, d, r) = y.deps_mut();
            (*a, *c, *d, *r) = (*addr, *ctrl, *data, rmw);
            walk.rf(0, &mut pc, st, &mut |x| {
                let (rf, co) = y.comm_mut();
                (*rf, *co) = (*x.rf(), *x.co());
                leaves.emit(&space, &mut y, keep, visit);
            });
        });
    }
}

/// Walk one frontier subtree with oracle pruning (the pruned analogue
/// of [`crate::enumerate::enumerate_subtree`]).
pub fn pruned_subtree(
    cfg: &EnumConfig,
    shape: &[usize],
    sub: &Subtree,
    oracle: &dyn PruneOracle,
    st: &mut PruneStats,
    visit: &mut dyn FnMut(&Execution),
) {
    let kinds = kinds_for(cfg);
    let evkinds: Vec<EventKind> = sub.kind_choice.iter().map(|&i| kinds[i as usize]).collect();
    let tids = shape_tids(shape);
    let mut leaves = Leaves::default();
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
            return; // Symmetry-duplicate label prefix.
        };
        pruned_structures(
            cfg,
            events,
            oracle,
            st,
            &mut leaves,
            &mut Keep::Orbit(&auts),
            visit,
        );
    });
}

// ---- Drivers ------------------------------------------------------------

/// Sequentially walk the whole space with oracle pruning. `visit` sees
/// every class representative the oracle could not rule out; run the
/// full model check on them to recover exactly the consistent classes.
pub fn enumerate_pruned(
    cfg: &EnumConfig,
    oracle: &dyn PruneOracle,
    visit: &mut dyn FnMut(&Execution),
) -> PruneStats {
    walk_pruned(cfg, oracle, None, visit)
}

fn walk_pruned(
    cfg: &EnumConfig,
    oracle: &dyn PruneOracle,
    progress: Option<&WalkProgress>,
    visit: &mut dyn FnMut(&Execution),
) -> PruneStats {
    if let Some(p) = progress {
        p.add_total(walk_plan(cfg).weight);
    }
    let shapes = config_shapes(cfg);
    let mut st = PruneStats::default();
    for sub in Frontier::new(cfg) {
        let before = (st.subtrees_cut, st.candidates_skipped);
        let mut emitted = 0u64;
        pruned_subtree(
            cfg,
            &shapes[sub.shape_idx],
            &sub,
            oracle,
            &mut st,
            &mut |x| {
                emitted += 1;
                visit(x);
            },
        );
        if let Some(p) = progress {
            p.subtree_done(
                sub.weight,
                emitted,
                st.subtrees_cut - before.0,
                st.candidates_skipped - before.1,
            );
        }
    }
    publish_prune(&st);
    st
}

/// Parallel pruned walk on the work-stealing pool; the per-worker
/// states come back in worker order with the merged prune counters.
/// [`CandSeq`] orders the *surviving* stream deterministically.
pub fn visit_pruned_par<S, FI, FV>(
    cfg: &EnumConfig,
    oracle: &dyn PruneOracle,
    workers: usize,
    init: FI,
    visit: FV,
) -> (Vec<S>, PruneStats, StealStats)
where
    S: Send,
    FI: Fn(usize) -> S + Sync,
    FV: Fn(CandSeq, &Execution, &mut S) + Sync,
{
    visit_pruned_par_progress(cfg, oracle, workers, None, init, visit)
}

/// [`visit_pruned_par`] with optional live progress: the walk plan is
/// declared up front, and every completed subtree flushes its weight,
/// emit count and prune-cut deltas into `progress`. With `None` the
/// walk is identical to [`visit_pruned_par`].
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
    if let Some(p) = progress {
        p.add_total(walk_plan(cfg).weight);
    }
    let shapes = config_shapes(cfg);
    let (pairs, steal) = run_with_progress(
        Frontier::new(cfg),
        workers,
        progress,
        |w| (init(w), PruneStats::default()),
        |sub: Subtree, state: &mut (S, PruneStats)| {
            let mut emit = 0u32;
            let (s, st) = state;
            let before = (st.subtrees_cut, st.candidates_skipped);
            pruned_subtree(cfg, &shapes[sub.shape_idx], &sub, oracle, st, &mut |x| {
                visit((sub.seq, emit), x, s);
                emit += 1;
            });
            if let Some(p) = progress {
                p.subtree_done(
                    sub.weight,
                    emit as u64,
                    st.subtrees_cut - before.0,
                    st.candidates_skipped - before.1,
                );
            }
        },
    );
    let mut states = Vec::with_capacity(pairs.len());
    let mut st = PruneStats::default();
    for (s, ps) in pairs {
        states.push(s);
        st.merge(&ps);
    }
    publish_prune(&st);
    (states, st, steal)
}

/// Enumerate exactly the model-consistent classes of the space,
/// streaming one representative per class through `visit`. The
/// transaction-agnostic oracle accelerates the walk; a [`LeafChecker`]
/// (txn-independent slots shared by reference across the layouts of
/// each rf/co assignment) decides at the leaves.
pub fn enumerate_consistent(
    cfg: &EnumConfig,
    model: &dyn Model,
    visit: &mut dyn FnMut(&Execution),
) -> PruneStats {
    let oracle = oracle_for(model, false);
    let mut check = LeafChecker::new(model);
    walk_pruned(cfg, oracle, None, &mut |x| {
        if check.consistent(x) {
            visit(x);
        }
    })
}

/// Count the model-consistent classes (sequential).
pub fn count_consistent(cfg: &EnumConfig, model: &dyn Model) -> (usize, PruneStats) {
    let mut n = 0usize;
    let st = enumerate_consistent(cfg, model, &mut |_| n += 1);
    (n, st)
}

/// Parallel [`count_consistent`] on the work-stealing pool.
pub fn count_consistent_par(cfg: &EnumConfig, model: &dyn Model) -> (usize, PruneStats) {
    count_consistent_par_progress(cfg, model, worker_count(), None)
}

/// [`count_consistent_par`] with optional live progress: classes kept
/// by the leaf check land in `progress` as they are found, so a
/// heartbeat reporter's final frame totals equal the returned count.
pub fn count_consistent_par_progress(
    cfg: &EnumConfig,
    model: &dyn Model,
    workers: usize,
    progress: Option<&WalkProgress>,
) -> (usize, PruneStats) {
    let oracle = oracle_for(model, false);
    let (counts, st, _) = visit_pruned_par_progress(
        cfg,
        oracle,
        workers,
        progress,
        |_| (0usize, LeafChecker::new(model)),
        |_, x, (n, check)| {
            if check.consistent(x) {
                *n += 1;
                if let Some(p) = progress {
                    p.add_classes(1);
                }
            }
        },
    );
    (counts.into_iter().map(|(n, _)| n).sum(), st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canon_key;
    use crate::enumerate::enumerate;
    use std::collections::HashSet;
    use txmm_models::{Sc, X86};

    /// Pruned-consistent must equal enumerate-then-filter: same
    /// classes, same representatives.
    #[test]
    fn pruned_matches_filtered_enumeration() {
        for (cfg, model) in [
            (
                EnumConfig::hw(txmm_models::Arch::X86, 3),
                &X86::tm() as &dyn Model,
            ),
            (EnumConfig::hw(txmm_models::Arch::Sc, 3), &Sc as &dyn Model),
        ] {
            let mut filtered = HashSet::new();
            enumerate(&cfg, &mut |x| {
                if model.consistent(x) {
                    filtered.insert(canon_key(x));
                }
            });
            let mut pruned = HashSet::new();
            let st = enumerate_consistent(&cfg, model, &mut |x| {
                assert!(pruned.insert(canon_key(x)), "duplicate class");
            });
            assert_eq!(pruned, filtered, "{}", model.name());
            assert!(
                st.delta_answers + st.oracle_calls > 0,
                "viability never consulted"
            );
            assert!(st.subtrees_cut > 0, "nothing pruned at |E|=3?");
        }
    }

    /// The exact-skip arithmetic: skipped + materialised = the closed-
    /// form size of the structure space, pruned or not.
    #[test]
    fn skip_counts_are_exact() {
        let cfg = EnumConfig::hw(txmm_models::Arch::X86, 3);
        let mut total_unpruned = 0u64;
        enumerate(&cfg, &mut |_| total_unpruned += 1);
        // Count *all* survivors (pre-keep candidates are not visible,
        // so compare in class units: survivors + a skipped lower bound
        // cannot exceed the unpruned candidate count).
        let mut survivors = 0u64;
        let st = enumerate_pruned(&cfg, oracle_for(&X86::tm(), false), &mut |_| survivors += 1);
        assert!(survivors <= total_unpruned);
        assert!(st.candidates_skipped > 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = EnumConfig::hw(txmm_models::Arch::X86, 3);
        let (seq, seq_st) = count_consistent(&cfg, &X86::tm());
        let (par, par_st) = count_consistent_par(&cfg, &X86::tm());
        assert_eq!(seq, par);
        assert_eq!(seq_st.subtrees_cut, par_st.subtrees_cut);
        assert_eq!(seq_st.candidates_skipped, par_st.candidates_skipped);
    }

    #[test]
    fn no_prune_oracle_still_filters() {
        // A model without an oracle degrades to enumerate-and-check.
        let cfg = EnumConfig::hw(txmm_models::Arch::Sc, 3);
        let mut filtered = 0usize;
        enumerate(&cfg, &mut |x| {
            if Sc.consistent(x) {
                filtered += 1;
            }
        });
        let mut got = 0usize;
        let st = enumerate_pruned(&cfg, &NoPrune, &mut |x| {
            if Sc.consistent(x) {
                got += 1;
            }
        });
        assert_eq!(got, filtered);
        assert_eq!(st.subtrees_cut, 0);
    }
}
