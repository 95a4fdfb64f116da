//! The structure walk: rmw pairs, dependencies, rf and co over one
//! labelled event vector of [`mod@crate::enumerate`]. The rf/co part is
//! the [`RfCoSearch`] of [`txmm_core::incr`], run over the space's
//! stages: every read's source, last read first, then every location's
//! coherence order. Every [`Walk`](crate::Walk) runs it; a walk without
//! an oracle runs it under [`NoPrune`], which cuts nothing.
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
//! [`LeafChecker`] re-derives only the layout-dependent relations. For
//! a model whose consistency survives deleting a whole transaction it
//! checks only a few layouts of each group and infers the rest over the
//! group's layout lattice (the `lattice` module).

use std::sync::OnceLock;

use txmm_core::incr::{
    NoPrune, PartialCandidate, PruneOracle, PruneStats, RfCoSearch, BATCH_BOUNDS,
};
use txmm_core::{Event, EventId, Execution, Rel, TxnFreeBase};
use txmm_models::Model;
use txmm_obs::{Counter, Histogram};

use crate::enumerate::{for_deps, EnumConfig, Keep, Leaves, StructureSpace};
use crate::lattice::Lattice;

/// The `txmm_prune_*` registry series a walk's [`PruneStats`] is added
/// to. The registry sums every live handle set, so the walks' one
/// process-wide set and each `Session`'s own set (one per daemon shard,
/// read back for its `stats`) expose one process-wide total per series.
pub struct PruneCounters {
    subtrees_cut: Counter,
    candidates_skipped: Counter,
    oracle_calls: Counter,
    oracle_micros: Counter,
    delta_answers: Counter,
    fallbacks: Counter,
    /// Batch sizes per batched oracle call: its `count` is the batch
    /// count and its `sum` the placements judged.
    batch_size: Histogram,
}

impl Default for PruneCounters {
    fn default() -> PruneCounters {
        PruneCounters::new()
    }
}

impl PruneCounters {
    /// A fresh handle set; create one per owner, never per walk.
    pub fn new() -> PruneCounters {
        let obs = txmm_obs::global();
        PruneCounters {
            subtrees_cut: obs.counter(
                "txmm_prune_subtrees_cut_total",
                "Construction subtrees abandoned on a non-viable partial.",
            ),
            candidates_skipped: obs.counter(
                "txmm_prune_candidates_skipped_total",
                "Complete candidates pruned subtrees would have materialised.",
            ),
            oracle_calls: obs.counter("txmm_prune_oracle_calls_total", "Prune-oracle invocations."),
            oracle_micros: obs.counter(
                "txmm_prune_oracle_microseconds_total",
                "Wall-clock time spent inside prune-oracle calls.",
            ),
            delta_answers: obs.counter(
                "txmm_prune_delta_answers_total",
                "Viability probes answered from incremental delta state alone.",
            ),
            fallbacks: obs.counter(
                "txmm_prune_fallback_total",
                "Viability probes the delta state could not decide, falling \
                 back to a full analysis re-check.",
            ),
            batch_size: obs.histogram(
                "txmm_prune_batch_size",
                "Sibling placements judged per batched prune-oracle call.",
            ),
        }
    }

    /// The set every walk publishes its finished counters into.
    pub(crate) fn walks() -> &'static PruneCounters {
        static WALKS: OnceLock<PruneCounters> = OnceLock::new();
        WALKS.get_or_init(PruneCounters::new)
    }

    /// Add one walk's counters.
    pub fn add(&self, st: &PruneStats) {
        self.subtrees_cut.add(st.subtrees_cut);
        self.candidates_skipped.add(st.candidates_skipped);
        self.oracle_calls.add(st.oracle_calls);
        self.oracle_micros.add(st.oracle_micros);
        self.delta_answers.add(st.delta_answers);
        self.fallbacks.add(st.fallbacks);
        for (bound, n) in BATCH_BOUNDS.iter().zip(&st.batch_hist) {
            self.batch_size.record_n(*bound, *n);
        }
    }

    /// Everything added so far. `batches` and `batched_placements` are
    /// the batch-size histogram's count and sum; `batch_hist` is not
    /// read back.
    pub fn totals(&self) -> PruneStats {
        let batches = self.batch_size.snapshot();
        PruneStats {
            subtrees_cut: self.subtrees_cut.get(),
            candidates_skipped: self.candidates_skipped.get(),
            oracle_calls: self.oracle_calls.get(),
            oracle_micros: self.oracle_micros.get(),
            delta_answers: self.delta_answers.get(),
            fallbacks: self.fallbacks.get(),
            batches: batches.count,
            batched_placements: batches.sum,
            ..PruneStats::default()
        }
    }
}

/// A full-model consistency filter over a leaf stream that shares
/// txn-independent analysis slots across consecutive candidates and,
/// where the model allows it, infers most verdicts instead of checking.
///
/// The structure walk emits every transaction layout of one completed
/// rf/co assignment (a *group*) back to back; those siblings differ
/// only in `txns`, so `fr`, `com`, the equivalences, the fence
/// relations, the Coherence verdict and the models' memoised txn-free
/// relations (the x86 `hb` and ARMv8 `ob` fixed unions; Power's `ppo`,
/// `ihb`, `(fre ∪ coe)*`, `come*` and the compositions `hb₀`, `efence₀`
/// and the `thb` seed over them) — the bulk of a full check — are
/// identical. The checker captures them from the group's first
/// analysis ([`TxnFreeBase`]) and re-seeds each later analysis after a
/// fingerprint match, re-deriving from scratch only when the
/// underlying structure actually changed. A model's
/// [`Model::consistent_analysis`] fills every memo it reads before it
/// can answer, so the first check leaves them complete whatever its
/// verdict, and each later check pays only for its layout's own terms.
///
/// When the model's consistency survives deleting any one whole
/// transaction ([`Model::survives_txn_deletion`]), a group's interval
/// layouts are decided over the layout lattice of its thread structure
/// (built once per structure): a layout is consistent when one with a
/// transaction more is, and inconsistent when the txn-free layout or
/// one with a transaction fewer is. The txn-free layout is checked once
/// per group, first. An undecided layout first climbs, adding the
/// largest free interval each step, to the layout that covers every
/// free run with one transaction: that one is checked, and when it is
/// consistent it vouches for the queried layout and for everything
/// else below it. Otherwise the queried layout is checked itself. Every
/// verdict spreads at once through the lattice (consistent downwards,
/// inconsistent upwards) into one verdict byte per layout, reset at
/// each group boundary; layouts other than the queried one are checked
/// on a scratch copy of the group's execution. Atomic layouts, classes
/// that are not one po-contiguous run, structures with more than 4,096
/// layouts and models without the property are checked leaf by leaf.
///
/// The consistent walks check every leaf through one, and so does
/// Table 1 synthesis for its transactional model.
pub struct LeafChecker<'m> {
    direct: Direct<'m>,
    /// Set when the model survives transaction deletion.
    infer: Option<Inference>,
}

/// Direct checks over the group's captured base.
struct Direct<'m> {
    model: &'m dyn Model,
    base: Option<TxnFreeBase>,
    /// Group boundaries met so far.
    groups: u64,
    /// Checks made.
    #[cfg(test)]
    checks: u64,
}

/// The inference state of a [`LeafChecker`].
#[derive(Default)]
struct Inference {
    /// One lattice per thread structure met (`None` past the layout
    /// cap), and the current group's.
    lattices: Vec<(Rel, Option<Lattice>)>,
    at: usize,
    /// One verdict byte per layout of the current lattice, `None`
    /// while undecided.
    verdicts: Vec<Option<bool>>,
    /// The group's execution, with the layout under check switched in,
    /// and the class buffers its layouts draw from.
    scratch: Option<Execution>,
    spare: Vec<Vec<EventId>>,
    /// The layouts a verdict still has to spread from.
    stack: Vec<u16>,
}

impl<'m> LeafChecker<'m> {
    pub fn new(model: &'m dyn Model) -> LeafChecker<'m> {
        LeafChecker {
            direct: Direct {
                model,
                base: None,
                groups: 0,
                #[cfg(test)]
                checks: 0,
            },
            infer: model.survives_txn_deletion().then(Inference::default),
        }
    }

    /// Full-model consistency of `x`, sharing txn-independent slots
    /// with the previous candidate when the structure matches.
    pub fn consistent(&mut self, x: &Execution) -> bool {
        let direct = &mut self.direct;
        let fresh = !direct.base.as_ref().is_some_and(|b| b.matches(x));
        direct.groups += u64::from(fresh);
        if let Some(inf) = &mut self.infer {
            if let Some(i) = inf.enter(x, fresh) {
                return inf.decide(direct, x, i, fresh);
            }
        }
        direct.check(x, fresh)
    }

    /// Group boundaries met so far: consecutive candidates of one
    /// group share a count.
    pub(crate) fn groups(&self) -> u64 {
        self.direct.groups
    }
}

impl Direct<'_> {
    /// Check `x`, capturing the group's base when `fresh`.
    fn check(&mut self, x: &Execution, fresh: bool) -> bool {
        #[cfg(test)]
        {
            self.checks += 1;
        }
        if !fresh {
            let base = self.base.as_ref().expect("a captured base");
            return self.model.consistent_analysis(&base.seed(x));
        }
        let a = x.analysis();
        let ok = self.model.consistent_analysis(&a);
        match &mut self.base {
            Some(b) => b.recapture(&a),
            None => self.base = Some(TxnFreeBase::capture(&a)),
        }
        ok
    }
}

impl Inference {
    /// Start a group at `x` when `fresh` (its thread structure's lattice,
    /// verdicts reset, the scratch copy taken), then `x`'s layout in
    /// the lattice, if it is one of its layouts.
    fn enter(&mut self, x: &Execution, fresh: bool) -> Option<usize> {
        if fresh {
            self.at = match self.lattices.iter().position(|(po, _)| po == x.po()) {
                Some(at) => at,
                None => {
                    self.lattices.push((*x.po(), Lattice::new(x)));
                    self.lattices.len() - 1
                }
            };
            let lattice = self.lattices[self.at].1.as_ref()?;
            self.verdicts.clear();
            self.verdicts.resize(lattice.len(), None);
            match &mut self.scratch {
                Some(s) => s.copy_txn_free(x, &mut self.spare),
                None => self.scratch = Some(x.erase_txns()),
            }
        }
        self.lattices[self.at].1.as_ref()?.layout_of(x)
    }

    /// The current group's lattice.
    fn lattice(&self) -> &Lattice {
        self.lattices[self.at]
            .1
            .as_ref()
            .expect("the group's lattice")
    }

    /// The verdict of `x`, whose layout is layout `i` of the group.
    fn decide(&mut self, direct: &mut Direct, x: &Execution, i: usize, fresh: bool) -> bool {
        if fresh {
            // The txn-free layout first: it captures the group's base,
            // and when it is inconsistent so is every layout.
            let ok = if i == 0 {
                direct.check(x, true)
            } else {
                self.check_layout(direct, 0, true)
            };
            self.verdicts[0] = Some(ok);
        }
        if self.verdicts[0] == Some(false) {
            return false;
        }
        if let Some(ok) = self.verdicts[i] {
            return ok;
        }
        let mut top = i;
        while let Some(&p) = self
            .lattice()
            .parents(top)
            .iter()
            .find(|&&p| self.verdicts[usize::from(p)].is_none())
        {
            top = usize::from(p);
        }
        if top != i {
            let ok = self.check_layout(direct, top, false);
            self.spread(top, ok);
            if ok {
                return true;
            }
        }
        let ok = direct.check(x, false);
        self.spread(i, ok);
        ok
    }

    /// Check layout `j` of the group on the scratch copy.
    fn check_layout(&mut self, direct: &mut Direct, j: usize, fresh: bool) -> bool {
        let classes = *self.lattice().classes(j);
        let scratch = self.scratch.as_mut().expect("the group's scratch copy");
        scratch.set_txn_layout(&classes, false, &mut self.spare);
        direct.check(scratch, fresh)
    }

    /// Record layout `i`'s verdict, and spread it: a consistent layout's
    /// descendants are consistent, an inconsistent one's ancestors not.
    fn spread(&mut self, i: usize, ok: bool) {
        let lattice = self.lattices[self.at]
            .1
            .as_ref()
            .expect("the group's lattice");
        self.verdicts[i] = Some(ok);
        self.stack.push(i as u16);
        while let Some(j) = self.stack.pop() {
            let next = if ok {
                lattice.children(j.into())
            } else {
                lattice.parents(j.into())
            };
            for &k in next {
                if self.verdicts[usize::from(k)].is_none() {
                    self.verdicts[usize::from(k)] = Some(ok);
                    self.stack.push(k);
                }
            }
        }
    }
}

/// Walk the structure space over one labelled event vector with oracle
/// pruning; `visit` receives every surviving class representative.
///
/// rf/co are searched once per (rmw, deps) choice by an
/// [`RfCoSearch`] over the space's stages with a transaction-agnostic
/// oracle, and [`Leaves`] expands every transaction layout of each
/// completed rf/co group in place over one execution per label
/// assignment. Survivors are *not* yet filtered by a full model check.
/// Without an oracle (`None`) this is the whole structure space,
/// walked under [`NoPrune`]: rmw subsets outermost, then dependency
/// choices, rf sources (read 0 fastest), coherence orders (location 0
/// slowest, each in lexicographic order of its writes) and transaction
/// layouts.
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
    let empty = Rel::empty(n);
    // The execution every group of this label assignment is copied
    // into and every layout switched in: the search's own partial
    // candidate keeps its empty transaction classes for the oracle.
    let mut y = space.execution(events, empty, empty, empty, empty);
    // An oracle plans for the structure it judges, so it gets a fresh
    // partial candidate per (rmw, deps) choice. Under `NoPrune` nothing
    // reads that structure, and one candidate serves every choice.
    let mut shared = oracle
        .is_none()
        .then(|| PartialCandidate::with_oracle(y.clone(), &NoPrune));
    let oracle = oracle.unwrap_or(&NoPrune);
    let search = RfCoSearch::new(oracle, &space.stages, space.txn_leaves());
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
                    fresh = PartialCandidate::with_oracle(base, oracle);
                    // Structure-only violations (no rf/co yet) kill the
                    // whole subtree at once.
                    if !fresh.viable(oracle, st) {
                        st.cut(search.size());
                        return;
                    }
                    &mut fresh
                }
            };
            let (a, c, d, r) = y.deps_mut();
            (*a, *c, *d, *r) = (*addr, *ctrl, *data, rmw);
            search.run(pc, st, &mut |x| {
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

    /// A group's first layout leaves every Power memo in the captured
    /// base, whatever its verdict, so its siblings recompute none.
    #[test]
    fn first_layout_completes_the_group_memos() {
        use txmm_core::MemoKey;
        use txmm_models::Power;
        let power = [
            MemoKey::PowerPpo,
            MemoKey::PowerIhb,
            MemoKey::PowerFrecoeStar,
            MemoKey::PowerComeStar,
            MemoKey::PowerHb,
            MemoKey::PowerEfence,
            MemoKey::PowerThbSeed,
        ];
        let tm = Power::tm();
        let mut check = LeafChecker::new(&tm);
        let (mut groups, mut failed) = (0, 0);
        Walk::new(&EnumConfig::hw(txmm_models::Arch::Power, 3)).for_each(|x| {
            let first = !check.direct.base.as_ref().is_some_and(|b| b.matches(x));
            let ok = check.consistent(x);
            if first {
                groups += 1;
                failed += usize::from(!ok);
                let a = check.direct.base.as_ref().expect("captured").seed(x);
                for k in power {
                    a.memo(k, || panic!("{k:?} missing after the first layout"));
                }
            }
        });
        assert!(groups > 0 && failed > 0 && failed < groups);
    }

    /// The inference decides most leaves: on the unpruned Power |E| = 3
    /// walk, direct checks stay well below the leaves, and the verdicts
    /// are the full check's.
    #[test]
    fn most_layouts_are_inferred() {
        use txmm_models::Power;
        let tm = Power::tm();
        let mut check = LeafChecker::new(&tm);
        let mut leaves = 0u64;
        Walk::new(&EnumConfig::hw(txmm_models::Arch::Power, 3)).for_each(|x| {
            leaves += 1;
            assert_eq!(check.consistent(x), tm.consistent(x), "{x:?}");
        });
        let checks = check.direct.checks;
        assert!(checks * 3 < leaves, "{checks} checks for {leaves} leaves");
        assert!(check.groups() < checks);
    }

    /// A model that declares the property falsely: an execution is
    /// consistent only when every event is transactional, so deleting a
    /// transaction breaks it.
    struct EveryEventInATxn;

    impl Model for EveryEventInATxn {
        fn name(&self) -> &'static str {
            "every-event-in-a-txn"
        }
        fn arch(&self) -> txmm_models::Arch {
            txmm_models::Arch::X86
        }
        fn is_tm(&self) -> bool {
            true
        }
        fn derived(&self, _: &txmm_core::ExecutionAnalysis<'_>) -> txmm_models::Derived {
            txmm_models::Derived::new()
        }
        fn axioms(
            &self,
            a: &txmm_core::ExecutionAnalysis<'_>,
            _: &txmm_models::Derived,
            c: &mut txmm_models::Checker,
        ) {
            let x = a.exec();
            if (0..x.len()).any(|e| x.txn_of(e).is_none()) {
                c.fail("EveryEventInATxn");
            }
        }
        fn survives_txn_deletion(&self) -> bool {
            true
        }
    }

    /// The negative control of the leaf-check differential: under a
    /// false declaration the inferred verdicts disagree with the full
    /// check, so the differential would catch a wrong declaration.
    #[test]
    fn a_false_declaration_shows_in_the_verdicts() {
        let model = EveryEventInATxn;
        let mut check = LeafChecker::new(&model);
        let mut wrong = 0;
        Walk::new(&EnumConfig::hw(txmm_models::Arch::X86, 2)).for_each(|x| {
            if check.consistent(x) != model.check_analysis(&x.analysis()).is_consistent() {
                wrong += 1;
            }
        });
        assert!(wrong > 0, "the false declaration went unseen");
    }

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
