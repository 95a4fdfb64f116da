//! The structure walk: rmw pairs, dependencies, rf and co over one
//! labelled event vector of [`mod@crate::enumerate`], with the
//! incremental consistency engine of [`txmm_core::incr`] threaded
//! through the rf/co stages. Every [`Walk`](crate::Walk) runs it; a walk
//! without an oracle runs it under [`NoPrune`], which cuts nothing.
//!
//! Every rf source and coherence placement is applied to a
//! [`PartialCandidate`] the moment it is chosen, and a per-model
//! [`PruneOracle`] — sound on partial executions by monotonicity —
//! abandons the whole subtree the instant the partial communication
//! relations close a forbidden cycle. Cut subtrees are *counted*, never
//! built. An oracle rejection certifies that no completion (any rf/co
//! extension, any transaction layout) is consistent, so filtering the
//! pruned stream by the full model yields exactly the consistent
//! classes of the unpruned walk, in the same order;
//! `tests/pruning_differential.rs` pins this at |E| ≤ 4 for all six
//! model spaces.
//!
//! Symmetry cuts and oracle cuts commute (consistency is a class
//! invariant). Each completed rf/co assignment (a *group*) is copied
//! into one execution per label assignment, the leaf path (`Leaves`)
//! switches every transaction layout into it in place, and
//! [`LeafChecker`] re-derives only the layout-dependent relations.

use txmm_core::incr::{judge_batch, NoPrune, PartialCandidate, PruneOracle, PruneStats};
use txmm_core::{Event, EventKind, EventSet, Execution, Rel, TxnFreeBase};
use txmm_models::Model;

use crate::enumerate::{for_deps, EnumConfig, Keep, Leaves, StructureSpace};

/// Process-wide prune telemetry, published once per completed walk
/// (the walks run per request, so handles are created exactly once).
pub(crate) fn publish_prune(st: &PruneStats) {
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

/// A full-model consistency filter over a leaf stream that shares
/// txn-independent analysis slots across consecutive candidates.
///
/// The structure walk emits every transaction layout of one completed
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

// ---- The structure walk -------------------------------------------------

/// Shared state of one rf/co walk: the choice space, the oracle, and
/// the precomputed arity products that let a cut count exactly how
/// many candidates it skipped.
struct RfCoWalk<'a> {
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
    /// `rf_prefix[i]` = rf assignments over reads `..i` (option-count
    /// prefix product; first entry 1). Reads are assigned from the last
    /// to the first, so these are the reads a cut at read `i` leaves.
    rf_prefix: Vec<u64>,
    /// Leaf candidates per complete rf/co assignment (txn layouts ×
    /// atomic flag).
    txn_leaves: u64,
}

impl<'a> RfCoWalk<'a> {
    fn new(
        events: &[Event],
        space: &'a StructureSpace,
        oracle: &'a dyn PruneOracle,
    ) -> RfCoWalk<'a> {
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
        let mut rf_prefix = vec![1u64; space.reads.len() + 1];
        for i in 0..space.reads.len() {
            rf_prefix[i + 1] = rf_prefix[i].saturating_mul(space.rf_options[i].len() as u64);
        }
        RfCoWalk {
            oracle,
            space,
            read_loc_writes,
            fact,
            co_suffix,
            rf_prefix,
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

    /// With `i` reads still unassigned, assign read `i - 1`'s rf
    /// source, then recurse; a non-viable assignment cuts every
    /// candidate below it. Reads go from the last to the first, so read
    /// 0 varies fastest. All sibling options are probed first — the
    /// ones the delta state cannot decide are materialised and judged
    /// in one batched oracle call — and only then do the viable ones
    /// recurse, in the original option order.
    fn rf(
        &self,
        i: usize,
        pc: &mut PartialCandidate,
        st: &mut PruneStats,
        leaf: &mut dyn FnMut(&Execution),
    ) {
        let Some(i) = i.checked_sub(1) else {
            self.co(0, pc, st, leaf);
            return;
        };
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
                self.rf(i, pc, st, leaf);
                pc.rewind();
            } else {
                self.cut(
                    st,
                    self.rf_prefix[i]
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
/// a full model check. Without an oracle (`None`) this is the whole
/// structure space, walked under [`NoPrune`]: rmw subsets outermost,
/// then dependency choices, rf sources (read 0 fastest), coherence
/// orders (location 0 slowest, each in lexicographic order of its
/// writes) and transaction layouts.
pub(crate) fn pruned_structures(
    cfg: &EnumConfig,
    events: &[Event],
    oracle: Option<&dyn PruneOracle>,
    st: &mut PruneStats,
    leaves: &mut Leaves,
    keep: &mut Keep<'_>,
    visit: &mut dyn FnMut(&Execution),
) {
    let n = events.len();
    let space = StructureSpace::new(cfg, events);
    let walk = RfCoWalk::new(events, &space, oracle.unwrap_or(&NoPrune));
    let empty = Rel::empty(n);
    // The execution every group of this label assignment is copied
    // into and every layout switched in: the walk's own partial
    // candidate keeps its empty transaction classes for the oracle.
    let mut y = space.execution(events, empty, empty, empty, empty);
    // An oracle plans for the structure it judges, so it gets a fresh
    // partial candidate per (rmw, deps) choice. Under `NoPrune` nothing
    // reads that structure, and one candidate serves every choice.
    let mut shared = oracle
        .is_none()
        .then(|| PartialCandidate::with_oracle(y.clone(), &NoPrune));
    for rmws in &space.rmw_sets {
        let mut rmw = Rel::empty(n);
        for &(a, b) in rmws {
            rmw.add(a, b);
        }
        for_deps(cfg, events, &space.dep_slots, &mut |addr, ctrl, data| {
            let mut fresh;
            let pc = match shared.as_mut() {
                Some(pc) => pc,
                None => {
                    let base = space.execution(events, *addr, *ctrl, *data, rmw);
                    fresh = PartialCandidate::with_oracle(base, walk.oracle);
                    // Structure-only violations (no rf/co yet) kill the
                    // whole subtree at once.
                    if !fresh.viable(walk.oracle, st) {
                        walk.cut(
                            st,
                            walk.rf_prefix[space.reads.len()]
                                .saturating_mul(walk.co_suffix[0])
                                .saturating_mul(walk.txn_leaves),
                        );
                        return;
                    }
                    &mut fresh
                }
            };
            let (a, c, d, r) = y.deps_mut();
            (*a, *c, *d, *r) = (*addr, *ctrl, *data, rmw);
            walk.rf(space.reads.len(), pc, st, &mut |x| {
                let (rf, co) = y.comm_mut();
                (*rf, *co) = (*x.rf(), *x.co());
                leaves.emit(&space, &mut y, keep, visit);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Walk;
    use std::collections::HashSet;
    use txmm_core::canon::canon_key;
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
            Walk::new(&cfg).for_each(|x| {
                if model.consistent(x) {
                    filtered.insert(canon_key(x));
                }
            });
            let mut pruned = HashSet::new();
            let st = Walk::new(&cfg).consistent(model).for_each(|x| {
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
        Walk::new(&cfg).for_each(|_| total_unpruned += 1);
        // Count *all* survivors (pre-keep candidates are not visible,
        // so compare in class units: survivors + a skipped lower bound
        // cannot exceed the unpruned candidate count).
        let mut survivors = 0u64;
        let tm = X86::tm();
        let st = Walk::new(&cfg)
            .prune(tm.prune_oracle(false).expect("x86 oracle"))
            .for_each(|_| survivors += 1);
        assert!(survivors <= total_unpruned);
        assert!(st.candidates_skipped > 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = EnumConfig::hw(txmm_models::Arch::X86, 3);
        let tm = X86::tm();
        let walk = Walk::new(&cfg).consistent(&tm);
        let (seq, seq_st) = walk.clone().workers(1).count();
        let (par, par_st) = walk.workers(3).count();
        assert_eq!(seq, par);
        assert_eq!(seq_st.subtrees_cut, par_st.subtrees_cut);
        assert_eq!(seq_st.candidates_skipped, par_st.candidates_skipped);
    }

    #[test]
    fn no_prune_oracle_still_filters() {
        // A model without an oracle degrades to enumerate-and-check.
        let cfg = EnumConfig::hw(txmm_models::Arch::Sc, 3);
        let mut filtered = 0usize;
        Walk::new(&cfg).for_each(|x| {
            if Sc.consistent(x) {
                filtered += 1;
            }
        });
        let mut got = 0usize;
        let st = Walk::new(&cfg).prune(&NoPrune).for_each(|x| {
            if Sc.consistent(x) {
                got += 1;
            }
        });
        assert_eq!(got, filtered);
        assert_eq!(st.subtrees_cut, 0);
    }

    /// SC without its oracle.
    struct OracleLessSc;

    impl Model for OracleLessSc {
        fn name(&self) -> &'static str {
            "SC-without-oracle"
        }
        fn arch(&self) -> txmm_models::Arch {
            Sc.arch()
        }
        fn is_tm(&self) -> bool {
            false
        }
        fn derived(&self, a: &txmm_core::ExecutionAnalysis<'_>) -> txmm_models::Derived {
            Sc.derived(a)
        }
        fn axioms(
            &self,
            a: &txmm_core::ExecutionAnalysis<'_>,
            d: &txmm_models::Derived,
            c: &mut txmm_models::Checker,
        ) {
            Sc.axioms(a, d, c)
        }
    }

    #[test]
    fn a_walk_without_an_oracle_counts_nothing() {
        for arch in [txmm_models::Arch::X86, txmm_models::Arch::Power] {
            let walk = Walk::new(&EnumConfig::hw(arch, 3));
            assert_eq!(walk.count().1, PruneStats::default());
            assert_eq!(walk.clone().workers(1).count().1, PruneStats::default());
            assert_eq!(walk.for_each(|_| {}), PruneStats::default());
        }
        // A consistent walk over a model with no oracle is a walk
        // without one: it keeps the model's classes and counts nothing.
        let walk = Walk::new(&EnumConfig::hw(txmm_models::Arch::Sc, 3));
        let (kept, st) = walk.clone().consistent(&OracleLessSc).count();
        assert_eq!(st, PruneStats::default());
        assert_eq!(kept, walk.consistent(&Sc).count().0);
    }
}
