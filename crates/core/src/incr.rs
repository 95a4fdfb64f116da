//! Incremental consistency over *partial* executions.
//!
//! The enumerator and the outcome engine both grow candidates edge by
//! edge: reads-from assignments, coherence placements and abort splits
//! are chosen one at a time, and most partial choices are already
//! doomed — an axiom relation of the target model closes a cycle (or
//! becomes non-empty) long before the candidate is complete. Because
//! the paper's models are *monotone* in exactly the right way — with
//! labels, `po`, dependencies, `rmw` and the transaction classes fixed,
//! every axiom relation only grows as `rf`, `co` and `fr` grow — a
//! violation observed on a partial execution persists in every
//! completion, so the whole subtree can be abandoned.
//!
//! This module provides the machinery every construction path shares:
//!
//! * `IncrOrder` — an online cycle detector over a growing relation
//!   (a reachability [`Rel`], a few block-word operations per inserted
//!   edge), used for the per-location coherence gate
//!   `acyclic(po_loc | com)` and for every delta-plan obligation;
//! * [`PartialCandidate`] — an execution whose `rf`/`co` are grown in
//!   place together with a *partial* `fr` (only the from-reads edges
//!   that are already forced), with pooled width-aware checkpoint
//!   frames (`mark`/`rewind`/`release`) for depth-first construction;
//! * [`PruneOracle`] — the per-model viability test. Native models
//!   run their full axiom check on the partial analysis; compiled
//!   `.cat` models run a conservatively filtered program (see
//!   `txmm-cat`). Oracles must be **conservative**: they may say
//!   "viable" for a doomed candidate, never "dead" for a live one;
//! * [`RfCoSearch`] — the one rf/co search over a caller-ordered list
//!   of [`Stage`]s (a source per read, a coherence order per
//!   location): the synthesis structure walk puts its rf stages first,
//!   the outcome walk its coherence orders first, and lock elision
//!   (`txmm_verify::elision`) its rf stages first under [`NoPrune`],
//!   over its abstract executions and over their Table 3 expansions.
//!   Siblings are probed together, the undecided ones judged in one
//!   batched oracle call, and every cut counts the candidates it
//!   skipped.
//!
//! # Delta viability
//!
//! Rebuilding an [`ExecutionAnalysis`] (and the model's derived
//! relations) for every probe dominates the walk. An oracle can
//! instead declare a [`DeltaPlan`]: a set of acyclicity
//! [`Obligation`]s, each a fixed *seed* relation plus rules describing
//! which communication edges (and which derived pairs — left/right
//! compositions with fixed context, transaction lifts) feed it. The
//! candidate then maintains one `IncrOrder` per obligation and
//! answers each probe from the detectors alone. A plan marked
//! [`exact`](DeltaPlan::exact) covers every axiom (together with the
//! coherence gate and the incremental RMW-isolation flag), so no
//! analysis is ever rebuilt; an inexact plan is a sound pre-filter
//! (each fed pair is inside a relation the model requires acyclic, so
//! a detector cycle is a definite rejection) and undecided probes fall
//! back to the full re-check, counted in
//! [`PruneStats::fallbacks`].
//!
//! The partial `fr` is the crux of soundness. The closed form
//! `fr = ([R];sloc;[W]) \ (rf⁻¹;(co⁻¹)*)` treats reads *without* an
//! `rf` edge as reads of the initial value, which over-approximates on
//! partial executions and would prune unsoundly. Instead `fr` is
//! maintained explicitly from forced edges only:
//!
//! * `assign_rf(w, r)`   adds `{r} × co-after(w)`;
//! * `assign_init_read(r)` adds `{r} × writes(loc r)` (the initial
//!   write is coherence-before every write);
//! * `push_co(placed, w)` adds `placed × {w}` to `co` and, for every
//!   already-assigned reader of a newly ordered write, `reader → w`.
//!
//! These rules are complete under both co-first and rf-first
//! construction orders, and at a complete assignment the maintained
//! `fr` equals the closed form — so an oracle call at a leaf is the
//! full model check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::analysis::ExecutionAnalysis;
use crate::event::EventId;
use crate::exec::Execution;
use crate::rel::Rel;
use crate::set::EventSet;

/// Per-model viability test over a partial execution.
///
/// Implementations must be conservative: `viable` may return `true`
/// for a candidate whose completions are all inconsistent, but must
/// never return `false` when some completion is consistent.
pub trait PruneOracle: Sync {
    /// May some completion of the partial execution behind `a` be
    /// consistent? `a.fr()` is pre-seeded with the partial `fr`.
    fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool;

    /// Judge a batch of sibling placements in one call, returning a
    /// bitmask (bit `i` set ⇔ `batch[i]` is viable). The default
    /// loops [`PruneOracle::viable`]; implementations with per-call
    /// setup (a `.cat` VM borrow, say) override to amortise it.
    /// Batches never exceed 64 members (one per candidate write).
    fn viable_batch(&self, batch: &[ExecutionAnalysis<'_>]) -> u64 {
        let mut bits = 0u64;
        for (i, a) in batch.iter().enumerate() {
            if self.viable(a) {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// The incremental plan for candidates grown over `x`'s structure
    /// (labels, `po`, dependencies, `rmw` and transaction classes are
    /// fixed; `rf`/`co`/`fr` start empty and grow). `None` (the
    /// default) keeps the recompute-per-probe behaviour.
    fn delta_plan(&self, _x: &Execution) -> Option<DeltaPlan> {
        None
    }

    /// Whether the model entails `acyclic(po_loc | rf | co | fr)`, so
    /// a coherence cycle in the partial kills the subtree without an
    /// oracle call. Default `false` (always sound).
    fn coherence_gate(&self) -> bool {
        false
    }

    /// Whether a rejection stays valid when the *event set* grows:
    /// every relation the model's axioms mention must be preserved
    /// pointwise under induced extension of the event set (and of the
    /// committed-transaction set). True for models built from pairwise
    /// builtins (`po`, locations, fences, dependencies) and their
    /// monotone compositions with `rf`/`co`/`fr`; false whenever a
    /// relation is defined by complement or by composition appearing
    /// on the right of a set difference, where extra events can
    /// *remove* pairs. The outcome engine uses this to subsume one
    /// abort split's rejection into splits that commit strictly more
    /// events. Default `false` (always sound).
    fn event_monotone(&self) -> bool {
        false
    }
}

/// An oracle that never prunes: the walks run under it when there is
/// no oracle, and then visit every candidate.
pub struct NoPrune;

impl PruneOracle for NoPrune {
    fn viable(&self, _a: &ExecutionAnalysis<'_>) -> bool {
        true
    }

    /// Exact with no obligations: every probe answers "viable" from
    /// the delta state, and no analysis is ever built.
    fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
        Some(DeltaPlan {
            exact: true,
            ..DeltaPlan::fallback(x, false)
        })
    }
}

/// Batch-size histogram buckets in [`PruneStats`]: sizes
/// 1, 2, 3, 4, ≤8, ≤16, >16.
pub const BATCH_BUCKETS: usize = 7;

/// Representative upper bound of each [`PruneStats::batch_hist`]
/// bucket (used when folding the histogram into a registry series).
pub const BATCH_BOUNDS: [u64; BATCH_BUCKETS] = [1, 2, 3, 4, 8, 16, 64];

fn batch_bucket(k: usize) -> usize {
    match k {
        0..=1 => 0,
        2 => 1,
        3 => 2,
        4 => 3,
        5..=8 => 4,
        9..=16 => 5,
        _ => 6,
    }
}

/// Counters describing how much work pruning avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Construction subtrees abandoned on a non-viable partial.
    pub subtrees_cut: u64,
    /// Complete candidates those subtrees would have materialised.
    pub candidates_skipped: u64,
    /// Oracle invocations that rebuilt an analysis (coherence-gate and
    /// delta fast paths not included). A batched call counts once.
    pub oracle_calls: u64,
    /// Wall-clock microseconds spent inside oracle calls.
    pub oracle_micros: u64,
    /// Probes answered from the incremental delta state alone.
    pub delta_answers: u64,
    /// Probes a delta plan could not decide (inexact plan, detector
    /// still acyclic) that fell back to the full re-check.
    pub fallbacks: u64,
    /// Sibling-placement batches judged.
    pub batches: u64,
    /// Placements across all batches (mean batch size is
    /// `batched_placements / batches`).
    pub batched_placements: u64,
    /// Batch sizes, log-bucketed per [`BATCH_BOUNDS`].
    pub batch_hist: [u64; BATCH_BUCKETS],
}

impl PruneStats {
    /// Accumulate `other` into `self` (saturating).
    pub fn merge(&mut self, other: &PruneStats) {
        self.subtrees_cut = self.subtrees_cut.saturating_add(other.subtrees_cut);
        self.candidates_skipped = self
            .candidates_skipped
            .saturating_add(other.candidates_skipped);
        self.oracle_calls = self.oracle_calls.saturating_add(other.oracle_calls);
        self.oracle_micros = self.oracle_micros.saturating_add(other.oracle_micros);
        self.delta_answers = self.delta_answers.saturating_add(other.delta_answers);
        self.fallbacks = self.fallbacks.saturating_add(other.fallbacks);
        self.batches = self.batches.saturating_add(other.batches);
        self.batched_placements = self
            .batched_placements
            .saturating_add(other.batched_placements);
        for (dst, src) in self.batch_hist.iter_mut().zip(&other.batch_hist) {
            *dst = dst.saturating_add(*src);
        }
    }

    /// Record one cut subtree holding `candidates` complete candidates.
    pub fn cut(&mut self, candidates: u64) {
        self.subtrees_cut += 1;
        self.candidates_skipped = self.candidates_skipped.saturating_add(candidates);
    }

    /// Record one sibling batch of `k` placements.
    pub(crate) fn record_batch(&mut self, k: usize) {
        self.batches += 1;
        self.batched_placements += k as u64;
        self.batch_hist[batch_bucket(k)] += 1;
    }
}

/// Online cycle detection over a growing relation.
///
/// Maintains the *strict* reachability relation of the edges inserted
/// so far. Inserting `a → b` unions in `pred*(a) × succ*(b)`, the
/// reflexive predecessors of `a` times the reflexive successors of `b`:
/// a handful of block-word operations. `Copy`, so a depth-first walk
/// checkpoints it by value.
#[derive(Clone, Copy)]
pub(crate) struct IncrOrder {
    reach: Rel,
}

impl IncrOrder {
    /// An empty order over `n` events.
    pub(crate) fn new(n: usize) -> IncrOrder {
        IncrOrder {
            reach: Rel::empty(n),
        }
    }

    /// Does a (non-empty) path lead from `a` to `b`?
    #[cfg(test)]
    pub(crate) fn reaches(&self, a: usize, b: usize) -> bool {
        self.reach.contains(a, b)
    }

    /// Insert `a → b`. Returns `false` iff the edge closes a cycle
    /// (the detector is then stale and must be restored or discarded).
    pub(crate) fn insert(&mut self, a: usize, b: usize) -> bool {
        let n = self.reach.size();
        debug_assert!(a < n && b < n);
        if a == b || self.reach.contains(b, a) {
            return false;
        }
        let mut succ = self.reach.row(b);
        succ.insert(b);
        if succ.is_subset(self.reach.row(a)) {
            return true; // already known
        }
        let mut pred = self.reach.col(a);
        pred.insert(a);
        self.reach = self.reach.union(&Rel::cross(n, pred, succ));
        true
    }
}

/// The kind of raw communication edge a feed rule triggers on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// A reads-from edge `w → r`.
    Rf,
    /// A coherence edge `v → w`.
    Co,
    /// A forced from-reads edge `r → v`.
    Fr,
}

/// Thread-locality filter on a feed rule's triggering edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeSel {
    /// Any edge of the kind.
    All,
    /// Only cross-thread edges (`rfe`, `coe`, `fre`).
    External,
    /// Only same-thread edges (`rfi`, `coi`, `fri`).
    Internal,
}

/// How an obligation's derived pairs are lifted through the
/// transaction classes before insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lift {
    /// Inserted as-is.
    No,
    /// `weaklift`: both endpoints replaced by their (reflexive) `stxn`
    /// class; pairs inside one class are dropped, as are pairs with a
    /// non-transactional endpoint.
    Weak,
    /// `stronglift`: as weak, but a non-transactional endpoint stands
    /// for itself.
    Strong,
}

/// One edge-feed rule of an [`Obligation`]: when a raw edge `(a, b)`
/// of `kind` passing the `sel`/endpoint filters arrives, the pairs
/// `ctx(a) × rctx(b)` are derived (a missing context stands for the
/// endpoint itself). `ctx` is stored pre-inverted: `ctx.row(a)` is the
/// set of left-context predecessors of `a`.
#[derive(Clone, Debug)]
pub struct ComposeRule {
    /// Triggering edge kind.
    pub kind: EdgeKind,
    /// Thread-locality filter.
    pub sel: EdgeSel,
    /// The edge's source must lie in this set.
    pub a_in: EventSet,
    /// The edge's target must lie in this set.
    pub b_in: EventSet,
    /// Fixed left context, pre-inverted (`x → a` pairs as `row(a)`).
    pub ctx: Option<Rel>,
    /// Fixed right context (`b → y` pairs as `row(b)`).
    pub rctx: Option<Rel>,
}

impl ComposeRule {
    /// A rule inserting the raw edge itself.
    pub fn direct(kind: EdgeKind, sel: EdgeSel) -> ComposeRule {
        ComposeRule {
            kind,
            sel,
            a_in: EventSet::from_bits(u64::MAX),
            b_in: EventSet::from_bits(u64::MAX),
            ctx: None,
            rctx: None,
        }
    }
}

/// One acyclicity obligation of a [`DeltaPlan`]: the detector starts
/// from the fixed `seed` pairs and grows by the `feed` rules, with
/// derived pairs passed through `lift`.
#[derive(Clone, Debug)]
pub struct Obligation {
    /// The structure-fixed part of the obligation's relation.
    pub seed: Rel,
    /// Edge-feed rules delivering the communication-dependent part.
    pub feed: Vec<ComposeRule>,
    /// Transaction lift applied to every derived pair (and already
    /// applied to the seed by the plan builder).
    pub lift: Lift,
}

/// An oracle's incremental viability plan over one fixed structure.
///
/// Soundness contract: every pair an obligation accumulates (seed,
/// fed, lifted) must lie inside a relation the model requires acyclic
/// *on the partial analysis*, so a detector cycle implies the full
/// check rejects. An [`exact`](DeltaPlan::exact) plan additionally
/// covers the complete axiom set, making the converse hold too.
#[derive(Clone, Debug)]
pub struct DeltaPlan {
    /// The acyclicity obligations.
    pub obls: Vec<Obligation>,
    /// Maintain the incremental `empty(rmw ∩ fre;coe)` flag; a hit is
    /// a definite rejection.
    pub track_rmw_isol: bool,
    /// Together with the coherence gate and the RMW flag, the
    /// obligations decide *every* axiom: a clean state is definitely
    /// viable and no analysis needs rebuilding.
    pub exact: bool,
    /// A structure-fixed axiom (e.g. `TxnCancelsRMW`) already failed:
    /// every candidate over this structure is dead.
    pub dead: bool,
    /// Same-thread pairs, for the `External`/`Internal` selectors.
    pub sthd: Rel,
    /// Transaction classes (reflexive on members), for the lifts.
    pub stxn: Rel,
    /// `rmw⁻¹`, for the incremental RMW-isolation rule.
    pub rmw_inv: Rel,
}

impl DeltaPlan {
    /// An empty, inexact plan over `x` (no obligations — every probe
    /// falls back, but the fallback is *counted*, and the RMW flag can
    /// still short-circuit when enabled).
    pub fn fallback(x: &Execution, track_rmw_isol: bool) -> DeltaPlan {
        let n = x.len();
        DeltaPlan {
            obls: Vec::new(),
            track_rmw_isol,
            exact: false,
            dead: false,
            sthd: x.sthd(),
            stxn: x.stxn(),
            rmw_inv: if track_rmw_isol {
                x.rmw().inverse()
            } else {
                Rel::empty(n)
            },
        }
    }
}

/// Validation hook for the differential suite: when enabled, every
/// delta verdict is cross-checked against the recompute-from-scratch
/// oracle answer (equality for exact plans, reject-implies-reject for
/// inexact ones), panicking on divergence.
static VALIDATE_DELTA: AtomicBool = AtomicBool::new(false);

/// Enable or disable delta-vs-recompute cross-checking process-wide.
pub fn set_delta_validation(on: bool) {
    VALIDATE_DELTA.store(on, Ordering::Relaxed);
}

/// The runtime half of a plan: one detector per obligation plus the
/// sticky flags.
struct DeltaState {
    plan: DeltaPlan,
    obls: Vec<IncrOrder>,
    /// `false` once any obligation detector closed a cycle (stale
    /// until a rewind, like the coherence detector).
    ok: bool,
    /// `rmw ∩ fre;coe` became inhabited.
    rmw_bad: bool,
}

/// A pooled checkpoint frame (reused across `mark`/`release` cycles at
/// one depth, so the hot path never allocates).
struct Frame {
    rf: Rel,
    co: Rel,
    fr: Rel,
    coh: IncrOrder,
    coh_ok: bool,
    obls: Vec<IncrOrder>,
    ok: bool,
    rmw_bad: bool,
}

/// An execution under construction: fixed structure (events, `po`,
/// dependencies, `rmw`, transactions), growing `rf`/`co` and a
/// maintained partial `fr` (see the module docs for the edge rules).
pub struct PartialCandidate {
    x: Execution,
    fr: Rel,
    coh: IncrOrder,
    coh_ok: bool,
    delta: Option<DeltaState>,
    frames: Vec<Frame>,
    depth: usize,
}

impl PartialCandidate {
    /// Wrap `x`. The coherence detector is seeded with `po_loc`, and
    /// any `rf`/`co` edges `x` already holds are folded in as fixed.
    pub(crate) fn new(x: Execution) -> PartialCandidate {
        let n = x.len();
        let po_loc = x.po_loc();
        let mut coh = IncrOrder::new(n);
        let mut coh_ok = true;
        for (a, b) in po_loc.pairs() {
            coh_ok &= coh.insert(a, b);
        }
        let mut pc = PartialCandidate {
            x,
            fr: Rel::empty(n),
            coh,
            coh_ok,
            delta: None,
            frames: Vec::with_capacity(n),
            depth: 0,
        };
        pc.replay_existing();
        pc
    }

    /// Wrap `x` and install the oracle's [`DeltaPlan`], if any.
    pub fn with_oracle(x: Execution, oracle: &dyn PruneOracle) -> PartialCandidate {
        let plan = oracle.delta_plan(&x);
        let mut pc = PartialCandidate::new(x);
        if let Some(plan) = plan {
            pc.install(plan);
        }
        pc
    }

    /// Install a delta plan: seed one detector per obligation, then
    /// replay any pre-existing communication edges through the feeds.
    fn install(&mut self, plan: DeltaPlan) {
        let n = self.x.len();
        let mut obls = Vec::with_capacity(plan.obls.len());
        let mut ok = true;
        for obl in &plan.obls {
            let mut d = IncrOrder::new(n);
            for (a, b) in obl.seed.pairs() {
                ok &= d.insert(a, b);
            }
            obls.push(d);
        }
        self.delta = Some(DeltaState {
            plan,
            obls,
            ok,
            rmw_bad: false,
        });
        self.frames.clear(); // frame shape changed
        self.replay_existing();
    }

    fn replay_existing(&mut self) {
        let (rf, co) = (*self.x.rf(), *self.x.co());
        for (w, r) in rf.pairs() {
            self.raw(EdgeKind::Rf, w, r);
        }
        for (a, b) in co.pairs() {
            self.raw(EdgeKind::Co, a, b);
        }
    }

    /// The execution in its current (partial) state.
    pub(crate) fn exec(&self) -> &Execution {
        &self.x
    }

    /// The maintained partial `fr`.
    #[cfg(test)]
    pub(crate) fn fr(&self) -> &Rel {
        &self.fr
    }

    /// `false` once `po_loc | rf | co | fr` acquired a cycle.
    #[cfg(test)]
    pub(crate) fn coherent(&self) -> bool {
        self.coh_ok
    }

    /// Save the mutable state before a choice point. Frames are pooled,
    /// so a mark copies relation and detector values and allocates
    /// nothing once the pool is warm.
    pub(crate) fn mark(&mut self) {
        if self.depth == self.frames.len() {
            self.frames.push(Frame {
                rf: *self.x.rf(),
                co: *self.x.co(),
                fr: self.fr,
                coh: self.coh,
                coh_ok: self.coh_ok,
                obls: self
                    .delta
                    .as_ref()
                    .map_or_else(Vec::new, |d| d.obls.clone()),
                ok: self.delta.as_ref().is_none_or(|d| d.ok),
                rmw_bad: self.delta.as_ref().is_some_and(|d| d.rmw_bad),
            });
        } else {
            let f = &mut self.frames[self.depth];
            f.rf = *self.x.rf();
            f.co = *self.x.co();
            f.fr = self.fr;
            f.coh = self.coh;
            f.coh_ok = self.coh_ok;
            if let Some(ds) = &self.delta {
                f.obls.copy_from_slice(&ds.obls);
                f.ok = ds.ok;
                f.rmw_bad = ds.rmw_bad;
            }
        }
        self.depth += 1;
    }

    /// Restore the state saved by the innermost live [`mark`][Self::mark]
    /// (the frame stays live, so a loop can rewind once per branch).
    pub(crate) fn rewind(&mut self) {
        let f = &self.frames[self.depth - 1];
        self.x.rf = f.rf;
        self.x.co = f.co;
        self.fr = f.fr;
        self.coh = f.coh;
        self.coh_ok = f.coh_ok;
        if let Some(ds) = &mut self.delta {
            ds.obls.copy_from_slice(&f.obls);
            ds.ok = f.ok;
            ds.rmw_bad = f.rmw_bad;
        }
    }

    /// Drop the innermost live frame (after a final rewind if the
    /// caller needed one).
    pub(crate) fn release(&mut self) {
        debug_assert!(self.depth > 0);
        self.depth -= 1;
    }

    /// Feed one raw communication edge to the coherence detector, the
    /// RMW-isolation rule and every obligation's feed rules.
    fn raw(&mut self, kind: EdgeKind, a: usize, b: usize) {
        // Once a cycle exists every extension keeps it; stop updating
        // the (now stale) detector until a rewind.
        if self.coh_ok {
            self.coh_ok = self.coh.insert(a, b);
        }
        let Some(ds) = self.delta.as_mut() else {
            return;
        };
        let same_thread = ds.plan.sthd.contains(a, b);
        if ds.plan.track_rmw_isol && !ds.rmw_bad && !same_thread {
            // A pair of rmw ∩ (fre ; coe) is complete when its second
            // communication edge arrives; check against the current
            // other half.
            match kind {
                EdgeKind::Fr => {
                    // (a=r, b=v): need w with rmw(r, w) and coe(v, w).
                    for w in self.x.rmw().row(a).iter() {
                        if self.x.co().contains(b, w) && !ds.plan.sthd.contains(b, w) {
                            ds.rmw_bad = true;
                        }
                    }
                }
                EdgeKind::Co => {
                    // (a=v, b=w): need r with rmw(r, w) and fre(r, v).
                    for r in ds.plan.rmw_inv.row(b).iter() {
                        if self.fr.contains(r, a) && !ds.plan.sthd.contains(r, a) {
                            ds.rmw_bad = true;
                        }
                    }
                }
                EdgeKind::Rf => {}
            }
        }
        if !ds.ok {
            return; // stale until rewind
        }
        for (i, obl) in ds.plan.obls.iter().enumerate() {
            for rule in &obl.feed {
                if rule.kind != kind {
                    continue;
                }
                match rule.sel {
                    EdgeSel::All => {}
                    EdgeSel::External if same_thread => continue,
                    EdgeSel::Internal if !same_thread => continue,
                    _ => {}
                }
                if !rule.a_in.contains(a) || !rule.b_in.contains(b) {
                    continue;
                }
                let sources = match &rule.ctx {
                    Some(c) => c.row(a),
                    None => EventSet::singleton(a),
                };
                let targets = match &rule.rctx {
                    Some(c) => c.row(b),
                    None => EventSet::singleton(b),
                };
                let det = &mut ds.obls[i];
                for u in sources.iter() {
                    for v in targets.iter() {
                        match obl.lift {
                            Lift::No => {
                                if !det.insert(u, v) {
                                    ds.ok = false;
                                }
                            }
                            Lift::Weak | Lift::Strong => {
                                if ds.plan.stxn.contains(u, v) {
                                    continue;
                                }
                                let mut su = ds.plan.stxn.row(u).bits();
                                let mut sv = ds.plan.stxn.row(v).bits();
                                if obl.lift == Lift::Strong {
                                    su |= 1 << u;
                                    sv |= 1 << v;
                                }
                                for x in EventSet::from_bits(su).iter() {
                                    for y in EventSet::from_bits(sv).iter() {
                                        if !det.insert(x, y) {
                                            ds.ok = false;
                                        }
                                    }
                                }
                            }
                        }
                        if !ds.ok {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Read `r` takes its value from write `w`: adds the `rf` edge and
    /// the forced `fr` edges `r → co-after(w)`.
    pub fn assign_rf(&mut self, w: usize, r: usize) {
        debug_assert!(!self.x.rf().row(w).contains(r));
        self.x.rf.add(w, r);
        self.raw(EdgeKind::Rf, w, r);
        for v in self.x.co().row(w).iter() {
            self.fr.add(r, v);
            self.raw(EdgeKind::Fr, r, v);
        }
    }

    /// Read `r` takes the initial value: the initial write is
    /// coherence-before everything, so `r` is `fr`-before every write
    /// at its location.
    pub fn assign_init_read(&mut self, r: usize, writes_at_loc: EventSet) {
        for w in writes_at_loc.iter() {
            self.fr.add(r, w);
            self.raw(EdgeKind::Fr, r, w);
        }
    }

    /// Append `w` to a location's coherence order after `placed`
    /// (every already-placed write at that location): adds the total-
    /// order edges `placed × {w}` and, for each already-assigned
    /// reader of a placed write, the forced `fr` edge `reader → w`.
    pub fn push_co(&mut self, placed: EventSet, w: usize) {
        for p in placed.iter() {
            self.x.co.add(p, w);
            self.raw(EdgeKind::Co, p, w);
            for r in self.x.rf().row(p).iter() {
                self.fr.add(r, w);
                self.raw(EdgeKind::Fr, r, w);
            }
        }
    }

    /// Decide viability without rebuilding an analysis, when possible:
    /// `Some(false)` on a coherence-gate or delta rejection,
    /// `Some(true)` when an exact plan's state is clean, `None` when
    /// only the full re-check can answer (counted as a fallback if a
    /// plan exists).
    pub fn probe(&self, oracle: &dyn PruneOracle, stats: &mut PruneStats) -> Option<bool> {
        if oracle.coherence_gate() && !self.coh_ok {
            return Some(false);
        }
        let ds = self.delta.as_ref()?;
        let dead = ds.plan.dead || !ds.ok || ds.rmw_bad;
        if VALIDATE_DELTA.load(Ordering::Relaxed) {
            self.validate_delta(oracle, dead, ds.plan.exact);
        }
        if dead {
            stats.delta_answers += 1;
            return Some(false);
        }
        if ds.plan.exact {
            stats.delta_answers += 1;
            return Some(true);
        }
        stats.fallbacks += 1;
        None
    }

    /// Cross-check the delta verdict against the recompute-from-scratch
    /// oracle answer (the differential suite's hook).
    fn validate_delta(&self, oracle: &dyn PruneOracle, dead: bool, exact: bool) {
        let a = ExecutionAnalysis::with_fr(&self.x, self.fr);
        let full = oracle.viable(&a);
        if exact {
            assert_eq!(
                !dead, full,
                "exact delta verdict diverged from recompute (delta dead={dead}, full={full})"
            );
        } else {
            assert!(
                !(dead && full),
                "inexact delta rejected a candidate the recompute accepts"
            );
        }
    }

    /// Materialise the current state for a batched oracle call.
    fn materialise(&self) -> (Execution, Rel) {
        (self.x.clone(), self.fr)
    }

    /// Run the oracle on the current partial state, counting the call
    /// into `stats`. The coherence gate and the delta plan
    /// short-circuit when they can.
    pub fn viable(&self, oracle: &dyn PruneOracle, stats: &mut PruneStats) -> bool {
        if let Some(v) = self.probe(oracle, stats) {
            return v;
        }
        stats.oracle_calls += 1;
        let t0 = Instant::now();
        let a = ExecutionAnalysis::with_fr(&self.x, self.fr);
        let ok = oracle.viable(&a);
        stats.oracle_micros = stats
            .oracle_micros
            .saturating_add(t0.elapsed().as_micros() as u64);
        ok
    }
}

/// Judge a batch of materialised sibling states in one oracle call
/// (one timed region, one `oracle_calls` increment). Returns the
/// viability bitmask.
fn judge_batch(
    oracle: &dyn PruneOracle,
    batch: &[(Execution, Rel)],
    stats: &mut PruneStats,
) -> u64 {
    if batch.is_empty() {
        return 0;
    }
    debug_assert!(batch.len() <= 64);
    stats.oracle_calls += 1;
    let t0 = Instant::now();
    let analyses: Vec<ExecutionAnalysis<'_>> = batch
        .iter()
        .map(|(x, fr)| ExecutionAnalysis::with_fr(x, *fr))
        .collect();
    let bits = oracle.viable_batch(&analyses);
    stats.oracle_micros = stats
        .oracle_micros
        .saturating_add(t0.elapsed().as_micros() as u64);
    bits
}

/// One choice point of an [`RfCoSearch`].
#[derive(Debug)]
pub enum Stage {
    /// Where `read` takes its value from: one of `sources`, where `None`
    /// is the initial value, which is `fr`-before every write in
    /// `loc_writes` (the writes at the read's location).
    Rf {
        read: EventId,
        sources: Vec<Option<EventId>>,
        loc_writes: EventSet,
    },
    /// One location's coherence order, placed write by write.
    Co { writes: Vec<EventId> },
}

impl Stage {
    /// The rf stage of `read`, whose location's writes are `writes`:
    /// the initial value first, then each write in order.
    pub fn rf(read: EventId, writes: &[EventId]) -> Stage {
        Stage::Rf {
            read,
            sources: std::iter::once(None)
                .chain(writes.iter().copied().map(Some))
                .collect(),
            loc_writes: writes.iter().copied().collect(),
        }
    }

    /// Complete choices this stage offers: sources, or orders.
    fn arity(&self) -> u64 {
        match self {
            Stage::Rf { sources, .. } => sources.len() as u64,
            Stage::Co { writes } => factorial(writes.len()),
        }
    }

    /// Apply option `j` to `pc`, a coherence placement after the
    /// writes in `placed`; `false` when it added no edge.
    fn apply(&self, j: usize, placed: EventSet, pc: &mut PartialCandidate) -> bool {
        match self {
            Stage::Rf {
                read,
                sources,
                loc_writes,
            } => match sources[j] {
                None => {
                    pc.assign_init_read(*read, *loc_writes);
                    !loc_writes.is_empty()
                }
                Some(w) => {
                    pc.assign_rf(w, *read);
                    true
                }
            },
            Stage::Co { writes } => {
                pc.push_co(placed, writes[j]);
                !placed.is_empty()
            }
        }
    }
}

/// Saturating `n!`.
fn factorial(n: usize) -> u64 {
    (1..=n as u64).fold(1, u64::saturating_mul)
}

/// The rf/co search both construction paths run: a depth-first walk
/// over a caller-ordered list of [`Stage`]s, growing one
/// [`PartialCandidate`]. At every choice point all sibling options are
/// probed first (the ones the delta state cannot decide are
/// materialised and judged in one batched oracle call), and only then
/// do the viable ones recurse, in option order. A cut counts exactly
/// how many complete candidates it skipped.
pub struct RfCoSearch<'a> {
    oracle: &'a dyn PruneOracle,
    stages: &'a [Stage],
    /// `below[s]`: complete candidates under a node that starts stage
    /// `s`, the arity product of stages `s..` times the leaf weight.
    below: Vec<u64>,
}

impl<'a> RfCoSearch<'a> {
    /// A search over `stages` in order; every complete rf/co choice
    /// stands for `leaf_weight` candidates in the skip counts.
    pub fn new(oracle: &'a dyn PruneOracle, stages: &'a [Stage], leaf_weight: u64) -> Self {
        let mut below = vec![leaf_weight; stages.len() + 1];
        for s in (0..stages.len()).rev() {
            below[s] = below[s + 1].saturating_mul(stages[s].arity());
        }
        RfCoSearch {
            oracle,
            stages,
            below,
        }
    }

    /// Candidates under the root (saturating).
    pub fn size(&self) -> u64 {
        self.below[0]
    }

    /// Walk every rf/co completion of `pc`, passing each one the oracle
    /// cannot refute to `leaf`. Edges `pc` already holds stay fixed; the
    /// stages choose the rest.
    pub fn run(
        &self,
        pc: &mut PartialCandidate,
        st: &mut PruneStats,
        leaf: &mut dyn FnMut(&Execution),
    ) {
        self.stage(0, EventSet::default(), pc, st, leaf);
    }

    /// Choose at stage `s`; `placed` holds the writes a coherence stage
    /// has already ordered.
    fn stage(
        &self,
        s: usize,
        placed: EventSet,
        pc: &mut PartialCandidate,
        st: &mut PruneStats,
        leaf: &mut dyn FnMut(&Execution),
    ) {
        let Some(stage) = self.stages.get(s) else {
            leaf(pc.exec());
            return;
        };
        // The open options, as indices into the stage's list.
        let open = match stage {
            Stage::Rf { sources, .. } => EventSet::universe(sources.len()),
            Stage::Co { writes } => {
                let open: EventSet = (0..writes.len())
                    .filter(|&j| !placed.contains(writes[j]))
                    .collect();
                if open.is_empty() {
                    return self.stage(s + 1, EventSet::default(), pc, st, leaf);
                }
                open
            }
        };
        let mut viable = EventSet::default();
        let mut pending: Vec<usize> = Vec::new();
        let mut batch: Vec<(Execution, Rel)> = Vec::new();
        pc.mark();
        for j in open.iter() {
            // A choice that adds no edge needs no probe.
            match if stage.apply(j, placed, pc) {
                pc.probe(self.oracle, st)
            } else {
                Some(true)
            } {
                Some(true) => viable.insert(j),
                Some(false) => {}
                None => {
                    pending.push(j);
                    batch.push(pc.materialise());
                }
            }
            pc.rewind();
        }
        if !batch.is_empty() {
            st.record_batch(batch.len());
            let bits = judge_batch(self.oracle, &batch, st);
            for (b, &j) in pending.iter().enumerate() {
                if bits >> b & 1 != 0 {
                    viable.insert(j);
                }
            }
        }
        for j in open.iter() {
            if !viable.contains(j) {
                // Below a cut lie the orders of the writes still open
                // after this one (none for a read) and the later stages.
                let left = match stage {
                    Stage::Rf { .. } => 0,
                    Stage::Co { .. } => open.len() - 1,
                };
                st.cut(factorial(left).saturating_mul(self.below[s + 1]));
                continue;
            }
            stage.apply(j, placed, pc);
            match stage {
                Stage::Rf { .. } => self.stage(s + 1, EventSet::default(), pc, st, leaf),
                Stage::Co { writes } => {
                    let placed = placed.union(EventSet::singleton(writes[j]));
                    self.stage(s, placed, pc, st, leaf)
                }
            }
            pc.rewind();
        }
        pc.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ExecBuilder;

    #[test]
    fn incr_order_detects_cycles() {
        let mut o = IncrOrder::new(4);
        assert!(o.insert(0, 1));
        assert!(o.insert(1, 2));
        assert!(o.reaches(0, 2));
        assert!(!o.reaches(2, 0));
        assert!(o.insert(3, 0));
        assert!(o.reaches(3, 2));
        // 2 → 3 closes 3 → 0 → 1 → 2 → 3.
        let mut probe = o;
        assert!(!probe.insert(2, 3));
        // Self-loops are cycles.
        assert!(!o.insert(1, 1));
        // Re-inserting a known edge is fine.
        assert!(o.insert(0, 1));
    }

    #[test]
    fn incr_order_matches_transitive_closure() {
        let edges = [(0, 3), (3, 1), (1, 4), (2, 0), (3, 4)];
        let mut o = IncrOrder::new(5);
        let mut r = Rel::empty(5);
        for &(a, b) in &edges {
            assert!(o.insert(a, b));
            r.add(a, b);
        }
        let tc = r.plus();
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(o.reaches(a, b), tc.contains(a, b), "({a},{b})");
            }
        }
        // Seeded edge sequences at and past the 8×8 block boundary: an
        // insert is refused exactly when the edge closes a cycle (the
        // detector is then restored, as a walk would), and otherwise
        // reachability stays the closure of the accepted edges.
        for n in [5, 8, 9, 16] {
            for seed in 0..8u64 {
                let mut rng = crate::rng::SplitMix64::seed_from_u64(seed ^ ((n as u64) << 32));
                let mut o = IncrOrder::new(n);
                let mut r = Rel::empty(n);
                let (mut accepted, mut refused) = (0, 0);
                for _ in 0..3 * n {
                    let (a, b) = (rng.below(n), rng.below(n));
                    let mut with = r;
                    with.add(a, b);
                    let saved = o;
                    if o.insert(a, b) {
                        assert!(with.is_acyclic(), "n {n} seed {seed}: ({a},{b}) accepted");
                        r = with;
                        accepted += 1;
                    } else {
                        assert!(!with.is_acyclic(), "n {n} seed {seed}: ({a},{b}) refused");
                        o = saved;
                        refused += 1;
                    }
                    let tc = r.plus();
                    for x in 0..n {
                        for y in 0..n {
                            assert_eq!(o.reaches(x, y), tc.contains(x, y), "n {n} seed {seed}");
                        }
                    }
                }
                assert!(accepted > 0 && refused > 0, "n {n} seed {seed}");
            }
        }
    }

    /// Two writes and a read of the same location on separate threads,
    /// with `rf`/`co` stripped back out (the builder insists on a
    /// complete execution; partial candidates start empty).
    fn wwr() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w0 = b.write(t0, 0);
        let t1 = b.new_thread();
        let w1 = b.write(t1, 0);
        let t2 = b.new_thread();
        let r = b.read(t2, 0);
        b.co(w0, w1).rf(w0, r);
        let mut x = b.build().expect("well-formed");
        let n = x.len();
        x.rf = Rel::empty(n);
        x.co = Rel::empty(n);
        x
    }

    #[test]
    fn partial_fr_matches_closed_form_at_completion() {
        // Events: 0 = W x, 1 = W x, 2 = R x. Complete as co: 0 → 1,
        // rf: 0 → 2, so fr must be exactly {2 → 1}.
        let mut pc = PartialCandidate::new(wwr());
        pc.push_co(EventSet::default(), 0);
        pc.push_co(EventSet::singleton(0), 1);
        pc.assign_rf(0, 2);
        assert!(pc.coherent());
        let full = pc.exec().fr();
        assert_eq!(pc.fr(), &full);
        assert!(pc.fr().contains(2, 1));
        assert_eq!(pc.fr().len(), 1);
    }

    #[test]
    fn partial_fr_matches_closed_form_rf_first() {
        // Same completion, choices in the opposite order.
        let mut pc = PartialCandidate::new(wwr());
        pc.assign_rf(0, 2);
        assert!(pc.fr().is_empty()); // no co yet: nothing forced
        pc.push_co(EventSet::default(), 0);
        pc.push_co(EventSet::singleton(0), 1);
        assert_eq!(pc.fr(), &pc.exec().fr());
    }

    #[test]
    fn init_read_is_fr_before_every_write() {
        let mut pc = PartialCandidate::new(wwr());
        pc.assign_init_read(2, EventSet::from_iter([0, 1]));
        assert!(pc.fr().contains(2, 0));
        assert!(pc.fr().contains(2, 1));
        assert!(pc.coherent());
    }

    #[test]
    fn coherence_cycle_is_detected_and_rewound() {
        // Two same-thread writes to one location: po_loc seeds
        // 0 → 1, so placing the coherence order as 1 → 0 closes a
        // cycle; the detector flags it and a rewind clears it.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w0 = b.write(t0, 0);
        let w1 = b.write(t0, 0);
        b.co(w0, w1);
        let mut x = b.build().expect("well-formed");
        let n = x.len();
        x.co = Rel::empty(n);
        let mut pc = PartialCandidate::new(x);
        pc.mark();
        pc.push_co(EventSet::default(), 1);
        pc.push_co(EventSet::singleton(1), 0);
        assert!(!pc.coherent());
        pc.rewind();
        pc.release();
        assert!(pc.coherent());
        assert!(pc.exec().co().is_empty());
        assert!(pc.fr().is_empty());
    }

    #[test]
    fn frames_nest_and_pool() {
        let mut pc = PartialCandidate::new(wwr());
        pc.mark();
        pc.push_co(EventSet::default(), 0);
        pc.mark();
        pc.push_co(EventSet::singleton(0), 1);
        assert!(pc.exec().co().contains(0, 1));
        pc.rewind();
        assert!(!pc.exec().co().contains(0, 1));
        assert!(!pc.exec().co().row(0).is_empty() || pc.exec().co().is_empty());
        pc.release();
        pc.rewind();
        pc.release();
        assert!(pc.exec().co().is_empty());
        // Re-marking reuses the pooled frames.
        pc.mark();
        pc.push_co(EventSet::default(), 1);
        pc.rewind();
        pc.release();
        assert!(pc.exec().co().is_empty());
    }

    #[test]
    fn fr_closes_cycle_through_rf_and_co() {
        // rf(1, 2) then co 0 after 1 forces fr(2, 0); a later rf-style
        // edge 0 → 2 would be cyclic with it — verify the detector
        // already knows 2 reaches 0.
        let mut pc = PartialCandidate::new(wwr());
        pc.assign_rf(1, 2);
        pc.push_co(EventSet::default(), 1);
        pc.push_co(EventSet::singleton(1), 0);
        assert!(pc.fr().contains(2, 0));
        assert!(pc.coherent());
        pc.assign_rf(0, 2); // 0 → 2 → 0
        assert!(!pc.coherent());
    }

    #[test]
    fn no_prune_oracle_counts_calls() {
        let pc = PartialCandidate::new(wwr());
        let mut stats = PruneStats::default();
        assert!(pc.viable(&NoPrune, &mut stats));
        assert_eq!(stats.oracle_calls, 1);
        assert_eq!(stats.subtrees_cut, 0);
        assert_eq!(stats.delta_answers, 0);
        assert_eq!(stats.fallbacks, 0);
    }

    /// An oracle whose plan is exactly `acyclic(po ∪ com)` — the SC
    /// shape — used to exercise the delta path end to end.
    struct ScLike;

    impl PruneOracle for ScLike {
        fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
            a.po().union(a.com()).is_acyclic()
        }

        fn coherence_gate(&self) -> bool {
            true
        }

        fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
            let mut plan = DeltaPlan::fallback(x, false);
            plan.exact = true;
            plan.obls.push(Obligation {
                seed: *x.po(),
                feed: vec![
                    ComposeRule::direct(EdgeKind::Rf, EdgeSel::All),
                    ComposeRule::direct(EdgeKind::Co, EdgeSel::All),
                    ComposeRule::direct(EdgeKind::Fr, EdgeSel::All),
                ],
                lift: Lift::No,
            });
            Some(plan)
        }
    }

    #[test]
    fn exact_delta_answers_without_oracle_calls() {
        set_delta_validation(true);
        let mut pc = PartialCandidate::with_oracle(wwr(), &ScLike);
        let mut stats = PruneStats::default();
        assert!(pc.viable(&ScLike, &mut stats));
        pc.mark();
        pc.push_co(EventSet::default(), 0);
        pc.push_co(EventSet::singleton(0), 1);
        pc.assign_rf(1, 2);
        assert!(pc.viable(&ScLike, &mut stats));
        // fr(2, 0)? No: 2 reads from 1, co-last. Add the doomed state:
        // rewind and order co the other way while 2 still reads 1.
        pc.rewind();
        pc.assign_rf(1, 2);
        pc.push_co(EventSet::default(), 1);
        pc.push_co(EventSet::singleton(1), 0); // forces fr(2, 0): viable
        assert!(pc.viable(&ScLike, &mut stats));
        pc.release();
        assert_eq!(stats.oracle_calls, 0, "every probe answered from delta");
        assert_eq!(stats.delta_answers, 3);
        set_delta_validation(false);
    }

    #[test]
    fn inexact_delta_counts_fallbacks() {
        struct Fallbacky;
        impl PruneOracle for Fallbacky {
            fn viable(&self, _a: &ExecutionAnalysis<'_>) -> bool {
                true
            }
            fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
                Some(DeltaPlan::fallback(x, false))
            }
        }
        let pc = PartialCandidate::with_oracle(wwr(), &Fallbacky);
        let mut stats = PruneStats::default();
        assert!(pc.viable(&Fallbacky, &mut stats));
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.oracle_calls, 1);
        assert_eq!(stats.delta_answers, 0);
    }

    #[test]
    fn lifted_obligation_matches_stronglift() {
        // Events 0, 1 in one committed transaction; event 2 outside.
        // A strong-lifted obligation over com must relate the whole
        // class to 2 once any member does.
        use crate::exec::TxnClass;
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w0 = b.write(t0, 0);
        let w1 = b.write(t0, 0);
        let t1 = b.new_thread();
        let w2 = b.write(t1, 0);
        b.co(w0, w1).co(w1, w2);
        let mut x = b.build().expect("well-formed");
        let n = x.len();
        x.co = Rel::empty(n);
        x.txns_mut().push(TxnClass {
            events: vec![w0, w1],
            atomic: false,
        });

        struct IsolOnly;
        impl PruneOracle for IsolOnly {
            fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
                a.strong_isol().is_acyclic()
            }
            fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
                let mut plan = DeltaPlan::fallback(x, false);
                plan.exact = true;
                plan.obls.push(Obligation {
                    seed: Rel::empty(x.len()),
                    feed: vec![
                        ComposeRule::direct(EdgeKind::Rf, EdgeSel::All),
                        ComposeRule::direct(EdgeKind::Co, EdgeSel::All),
                        ComposeRule::direct(EdgeKind::Fr, EdgeSel::All),
                    ],
                    lift: Lift::Strong,
                });
                Some(plan)
            }
        }

        set_delta_validation(true);
        let mut pc = PartialCandidate::with_oracle(x, &IsolOnly);
        let mut stats = PruneStats::default();
        // co order 0 < 2 < 1: co(0, 2) lifts to class{0,1} → 2 and
        // co(2, 1) lifts to 2 → class{0,1} — a cycle through the lift
        // (the unlifted co itself stays acyclic).
        pc.mark();
        pc.push_co(EventSet::default(), 0);
        pc.push_co(EventSet::singleton(0), 2);
        pc.push_co(EventSet::from_iter([0, 2]), 1);
        assert!(
            !pc.viable(&IsolOnly, &mut stats),
            "stronglift cycle must be caught by the lifted detector"
        );
        pc.rewind();
        pc.release();
        // co: 0 → 1 → 2 stays acyclic under the lift.
        pc.push_co(EventSet::default(), 0);
        pc.push_co(EventSet::singleton(0), 1);
        pc.push_co(EventSet::from_iter([0, 1]), 2);
        assert!(pc.viable(&IsolOnly, &mut stats));
        assert_eq!(stats.oracle_calls, 0);
        set_delta_validation(false);
    }

    #[test]
    fn rmw_isol_flag_fires_on_external_intervening_write() {
        // Thread 0: rmw pair r (reads x) → w (writes x); thread 1: an
        // interfering write v. fre(r, v) and coe(v, w) inhabit
        // rmw ∩ fre;coe — the flag must fire without an oracle call,
        // in either edge-arrival order.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 0);
        b.rmw(r, w);
        let t1 = b.new_thread();
        let v = b.write(t1, 0);
        b.co(w, v).rf(w, r);
        let mut x = b.build().expect("well-formed");
        let n = x.len();
        x.rf = Rel::empty(n);
        x.co = Rel::empty(n);

        struct RmwOnly;
        impl PruneOracle for RmwOnly {
            fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
                a.rmw_isol().is_empty()
            }
            fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
                let mut plan = DeltaPlan::fallback(x, true);
                plan.exact = true;
                Some(plan)
            }
        }

        set_delta_validation(true);
        let mut stats = PruneStats::default();
        // co first (v before w), then the init read forcing fr(r, v).
        let mut pc = PartialCandidate::with_oracle(x.clone(), &RmwOnly);
        pc.push_co(EventSet::default(), v);
        pc.push_co(EventSet::singleton(v), w);
        assert!(pc.viable(&RmwOnly, &mut stats));
        pc.assign_init_read(r, EventSet::from_iter([v, w]));
        assert!(!pc.viable(&RmwOnly, &mut stats), "fr then co order");

        // fr first, co second.
        let mut pc = PartialCandidate::with_oracle(x, &RmwOnly);
        pc.assign_init_read(r, EventSet::from_iter([v, w]));
        assert!(pc.viable(&RmwOnly, &mut stats));
        pc.push_co(EventSet::default(), v);
        pc.push_co(EventSet::singleton(v), w);
        assert!(!pc.viable(&RmwOnly, &mut stats), "co then fr order");
        assert_eq!(stats.oracle_calls, 0);
        set_delta_validation(false);
    }

    #[test]
    fn judge_batch_counts_one_call() {
        let pc = PartialCandidate::new(wwr());
        let mut stats = PruneStats::default();
        let batch = vec![pc.materialise(), pc.materialise(), pc.materialise()];
        let bits = judge_batch(&NoPrune, &batch, &mut stats);
        assert_eq!(bits, 0b111);
        assert_eq!(stats.oracle_calls, 1);
        stats.record_batch(batch.len());
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_placements, 3);
        assert_eq!(stats.batch_hist[2], 1);
    }

    #[test]
    fn prune_stats_merge_saturates() {
        let mut a = PruneStats {
            subtrees_cut: u64::MAX - 1,
            candidates_skipped: 7,
            oracle_calls: 1,
            oracle_micros: 2,
            delta_answers: 3,
            fallbacks: 1,
            ..PruneStats::default()
        };
        a.record_batch(2);
        let mut b = PruneStats {
            subtrees_cut: 5,
            candidates_skipped: 1,
            oracle_calls: 1,
            oracle_micros: 2,
            delta_answers: 1,
            fallbacks: 2,
            ..PruneStats::default()
        };
        b.record_batch(5);
        a.merge(&b);
        assert_eq!(a.subtrees_cut, u64::MAX);
        assert_eq!(a.candidates_skipped, 8);
        assert_eq!(a.oracle_calls, 2);
        assert_eq!(a.oracle_micros, 4);
        assert_eq!(a.delta_answers, 4);
        assert_eq!(a.fallbacks, 3);
        assert_eq!(a.batches, 2);
        assert_eq!(a.batched_placements, 7);
        assert_eq!(a.batch_hist[1], 1);
        assert_eq!(a.batch_hist[4], 1);
    }
}
