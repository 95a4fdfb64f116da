//! Shared per-execution analysis: every derived relation the axiomatic
//! models consume, computed **once** per execution, lazily and cached.
//!
//! Before this type existed each of the six models re-derived `fr`,
//! `com`, the same-thread/same-location equivalences, the transaction
//! lifts and the fence relations independently on every check — the
//! dominant cost of the enumerate-and-check pipeline. A checking pass
//! now builds one [`ExecutionAnalysis`] per candidate execution and
//! hands it to every model (and to the `.cat` evaluator, the verifiers
//! and the hardware oracle), so shared structure is paid for once.
//!
//! The caches use [`std::cell::OnceCell`], so an analysis is cheap to
//! construct (no relation is computed until first use) and single
//! threaded by design: parallel drivers build one analysis per worker.
//! Cached relations sit inline in their slots: at 40 bytes a `Rel` is
//! cheap to hold even in a slot that stays empty, and filling a slot
//! allocates nothing.

use std::cell::OnceCell;

use crate::event::Fence;
use crate::exec::Execution;
use crate::rel::{stronglift, weaklift, Rel};
use crate::set::EventSet;

/// A model-specific transaction-independent relation an analysis
/// memoises (see [`ExecutionAnalysis::memo`]). Every key has a slot of
/// its own, so every model checking one shared analysis finds its
/// memos cached, whatever the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoKey {
    /// The x86 `hb` union without `tfence`.
    X86Hb,
    /// The ARMv8 `ob` union without its txn terms.
    Armv8Ob,
    /// The Power `ppo` fixpoint.
    PowerPpo,
    /// Power's `ihb` without `tfence`.
    PowerIhb,
    /// Power's `(fre ∪ coe)*`.
    PowerFrecoeStar,
    /// Power's `come*`.
    PowerComeStar,
    /// Power's `rfe? ; ihb ; rfe?` without `tfence`.
    PowerHb,
    /// Power's `rfe? ; fence ; rfe?` without `tfence`.
    PowerEfence,
    /// Power's `thb` seed `rfe ∪ (fre ∪ coe)* ; ihb` without `tfence`.
    PowerThbSeed,
}

impl MemoKey {
    /// Every key, in slot order.
    pub const ALL: [MemoKey; 9] = [
        MemoKey::X86Hb,
        MemoKey::Armv8Ob,
        MemoKey::PowerPpo,
        MemoKey::PowerIhb,
        MemoKey::PowerFrecoeStar,
        MemoKey::PowerComeStar,
        MemoKey::PowerHb,
        MemoKey::PowerEfence,
        MemoKey::PowerThbSeed,
    ];
}

/// One memo slot per [`MemoKey`].
const MEMO_SLOTS: usize = MemoKey::ALL.len();

/// One lazily-initialised relation slot.
#[derive(Default)]
struct RelCache(OnceCell<Rel>);

impl RelCache {
    fn new() -> RelCache {
        RelCache(OnceCell::new())
    }

    fn get_or(&self, f: impl FnOnce() -> Rel) -> &Rel {
        self.0.get_or_init(f)
    }
}

/// Lazily cached derived relations and event sets of one [`Execution`].
pub struct ExecutionAnalysis<'x> {
    x: &'x Execution,
    /// Txn-independent slots borrowed from a sibling's captured
    /// analysis ([`TxnFreeBase::seed`]); consulted before the local
    /// caches so seeding copies nothing.
    shared: Option<&'x TxnFreeBase>,
    // Event sets.
    reads: OnceCell<EventSet>,
    writes: OnceCell<EventSet>,
    fences: OnceCell<EventSet>,
    acq: OnceCell<EventSet>,
    rel_events: OnceCell<EventSet>,
    sc_events: OnceCell<EventSet>,
    ato: OnceCell<EventSet>,
    // Equivalences and po restrictions.
    sloc: RelCache,
    sthd: RelCache,
    po_loc: RelCache,
    // Communication.
    fr: RelCache,
    com: RelCache,
    rfe: RelCache,
    rfi: RelCache,
    coe: RelCache,
    coi: RelCache,
    fre: RelCache,
    fri: RelCache,
    come: RelCache,
    // Transactions and critical regions.
    stxn: RelCache,
    stxnat: RelCache,
    tfence: RelCache,
    tfence_plus: RelCache,
    scr: RelCache,
    scrt: RelCache,
    // Dependency union.
    dp: RelCache,
    // Fence relations, indexed per fence kind.
    fence_rels: [RelCache; Fence::ALL.len()],
    // Shared axiom bodies.
    coherence: RelCache,
    rmw_isol: RelCache,
    weak_isol: RelCache,
    strong_isol: RelCache,
    strong_isol_atomic: RelCache,
    txn_cancels_rmw: RelCache,
    // Txn-free axiom verdicts.
    coherent: OnceCell<bool>,
    // Model-specific txn-independent relations, one slot per key.
    memos: [RelCache; MEMO_SLOTS],
}

fn fence_index(f: Fence) -> usize {
    Fence::ALL
        .iter()
        .position(|&g| g == f)
        .expect("fence kind listed in Fence::ALL")
}

impl<'x> ExecutionAnalysis<'x> {
    /// A fresh analysis over `x`. Computes nothing until first use.
    pub fn new(x: &'x Execution) -> ExecutionAnalysis<'x> {
        ExecutionAnalysis::over(x, None)
    }

    /// A fresh analysis over `x` whose txn-independent accessors answer
    /// from `shared` first.
    #[inline]
    fn over(x: &'x Execution, shared: Option<&'x TxnFreeBase>) -> ExecutionAnalysis<'x> {
        ExecutionAnalysis {
            x,
            shared,
            reads: OnceCell::new(),
            writes: OnceCell::new(),
            fences: OnceCell::new(),
            acq: OnceCell::new(),
            rel_events: OnceCell::new(),
            sc_events: OnceCell::new(),
            ato: OnceCell::new(),
            sloc: RelCache::new(),
            sthd: RelCache::new(),
            po_loc: RelCache::new(),
            fr: RelCache::new(),
            com: RelCache::new(),
            rfe: RelCache::new(),
            rfi: RelCache::new(),
            coe: RelCache::new(),
            coi: RelCache::new(),
            fre: RelCache::new(),
            fri: RelCache::new(),
            come: RelCache::new(),
            stxn: RelCache::new(),
            stxnat: RelCache::new(),
            tfence: RelCache::new(),
            tfence_plus: RelCache::new(),
            scr: RelCache::new(),
            scrt: RelCache::new(),
            dp: RelCache::new(),
            fence_rels: Default::default(),
            coherence: RelCache::new(),
            rmw_isol: RelCache::new(),
            weak_isol: RelCache::new(),
            strong_isol: RelCache::new(),
            strong_isol_atomic: RelCache::new(),
            txn_cancels_rmw: RelCache::new(),
            coherent: OnceCell::new(),
            memos: Default::default(),
        }
    }

    /// An analysis whose `fr` slot is pre-seeded instead of derived
    /// from the closed form.
    ///
    /// The incremental engine ([`crate::incr`]) grows executions edge
    /// by edge and maintains the *partial* `fr` explicitly — the
    /// closed form misreads unassigned reads as init reads on partial
    /// executions. Every derived relation downstream of `fr` then
    /// reflects the seeded value.
    pub fn with_fr(x: &'x Execution, fr: Rel) -> ExecutionAnalysis<'x> {
        let a = ExecutionAnalysis::new(x);
        let _ = a.fr.0.set(fr);
        a
    }

    /// The underlying execution.
    pub fn exec(&self) -> &'x Execution {
        self.x
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    // ---- Primitive relations (plain pass-throughs) -----------------------

    /// Program order.
    pub fn po(&self) -> &Rel {
        self.x.po()
    }

    /// Address dependencies.
    pub fn addr(&self) -> &Rel {
        self.x.addr()
    }

    /// Control dependencies.
    pub fn ctrl(&self) -> &Rel {
        self.x.ctrl()
    }

    /// Data dependencies.
    pub fn data(&self) -> &Rel {
        self.x.data()
    }

    /// Read-modify-write pairs.
    pub fn rmw(&self) -> &Rel {
        self.x.rmw()
    }

    /// Reads-from.
    pub fn rf(&self) -> &Rel {
        self.x.rf()
    }

    /// Coherence order.
    pub fn co(&self) -> &Rel {
        self.x.co()
    }

    // ---- Event sets ------------------------------------------------------

    /// The read events `R`.
    pub fn reads(&self) -> EventSet {
        if let Some(v) = self.shared.and_then(|s| s.reads) {
            return v;
        }
        *self.reads.get_or_init(|| self.x.reads())
    }

    /// The write events `W`.
    pub fn writes(&self) -> EventSet {
        if let Some(v) = self.shared.and_then(|s| s.writes) {
            return v;
        }
        *self.writes.get_or_init(|| self.x.writes())
    }

    /// All fence events.
    pub fn fences(&self) -> EventSet {
        if let Some(v) = self.shared.and_then(|s| s.fences) {
            return v;
        }
        *self.fences.get_or_init(|| self.x.fences())
    }

    /// Acquire events.
    pub fn acq(&self) -> EventSet {
        if let Some(v) = self.shared.and_then(|s| s.acq) {
            return v;
        }
        *self.acq.get_or_init(|| self.x.acq())
    }

    /// Release events.
    pub fn rel_events(&self) -> EventSet {
        if let Some(v) = self.shared.and_then(|s| s.rel_events) {
            return v;
        }
        *self.rel_events.get_or_init(|| self.x.rel_events())
    }

    /// SC events.
    pub fn sc_events(&self) -> EventSet {
        if let Some(v) = self.shared.and_then(|s| s.sc_events) {
            return v;
        }
        *self.sc_events.get_or_init(|| self.x.sc_events())
    }

    /// C++ atomic events.
    pub fn ato(&self) -> EventSet {
        if let Some(v) = self.shared.and_then(|s| s.ato) {
            return v;
        }
        *self.ato.get_or_init(|| self.x.ato())
    }

    // ---- Cached derived relations ----------------------------------------

    /// Same-location equivalence over accesses.
    pub fn sloc(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.sloc.as_ref()) {
            return r;
        }
        self.sloc.get_or(|| self.x.sloc())
    }

    /// Same-thread pairs including the diagonal.
    pub fn sthd(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.sthd.as_ref()) {
            return r;
        }
        self.sthd.get_or(|| self.x.sthd())
    }

    /// The external part of a relation: `r \ sthd`.
    pub(crate) fn external(&self, r: &Rel) -> Rel {
        r.minus(self.sthd())
    }

    /// The internal part of a relation: `r ∩ sthd`.
    pub(crate) fn internal(&self, r: &Rel) -> Rel {
        r.inter(self.sthd())
    }

    /// `po` restricted to same-location accesses.
    pub fn po_loc(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.po_loc.as_ref()) {
            return r;
        }
        self.po_loc.get_or(|| self.x.po().inter(self.sloc()))
    }

    /// From-read.
    pub fn fr(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.fr.as_ref()) {
            return r;
        }
        self.fr.get_or(|| self.x.fr_with_sloc(self.sloc()))
    }

    /// Communication: `com = rf ∪ co ∪ fr`.
    pub fn com(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.com.as_ref()) {
            return r;
        }
        self.com
            .get_or(|| self.x.rf().union(self.x.co()).union(self.fr()))
    }

    /// External reads-from.
    pub fn rfe(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.rfe.as_ref()) {
            return r;
        }
        self.rfe.get_or(|| self.external(self.x.rf()))
    }

    /// Internal reads-from.
    pub fn rfi(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.rfi.as_ref()) {
            return r;
        }
        self.rfi.get_or(|| self.internal(self.x.rf()))
    }

    /// External coherence.
    pub fn coe(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.coe.as_ref()) {
            return r;
        }
        self.coe.get_or(|| self.external(self.x.co()))
    }

    /// Internal coherence.
    pub fn coi(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.coi.as_ref()) {
            return r;
        }
        self.coi.get_or(|| self.internal(self.x.co()))
    }

    /// External from-read.
    pub fn fre(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.fre.as_ref()) {
            return r;
        }
        let fr = *self.fr();
        self.fre.get_or(|| self.external(&fr))
    }

    /// Internal from-read.
    pub fn fri(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.fri.as_ref()) {
            return r;
        }
        let fr = *self.fr();
        self.fri.get_or(|| self.internal(&fr))
    }

    /// External communication.
    pub fn come(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.come.as_ref()) {
            return r;
        }
        let com = *self.com();
        self.come.get_or(|| self.external(&com))
    }

    /// The `stxn` transaction equivalence.
    pub fn stxn(&self) -> &Rel {
        self.stxn.get_or(|| self.x.stxn())
    }

    /// The `stxnat` (atomic transactions only) equivalence.
    pub fn stxnat(&self) -> &Rel {
        self.stxnat.get_or(|| self.x.stxnat())
    }

    /// Implicit transaction-boundary fences, in the closed form
    /// `po ∩ ¬stxn ∩ (T×E ∪ E×T)` (see [`Execution::tfence`]).
    pub fn tfence(&self) -> &Rel {
        self.tfence
            .get_or(|| crate::exec::tfence_of(self.x.po(), self.stxn()))
    }

    /// `tfence⁺` (the body of `TxnCancelsRMW`).
    pub fn tfence_plus(&self) -> &Rel {
        self.tfence_plus.get_or(|| self.tfence().plus())
    }

    /// The critical-region equivalence `scr`.
    pub fn scr(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.scr.as_ref()) {
            return r;
        }
        self.scr.get_or(|| self.x.scr())
    }

    /// The elided-critical-region equivalence `scrt`.
    pub fn scrt(&self) -> &Rel {
        self.scrt.get_or(|| self.x.scrt())
    }

    /// The dependency union `addr ∪ data`.
    pub fn dp(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.dp.as_ref()) {
            return r;
        }
        self.dp.get_or(|| self.x.addr().union(self.x.data()))
    }

    /// The fence relation `po ; [F_f] ; po` for one fence kind.
    pub fn fence_rel(&self, f: Fence) -> &Rel {
        if let Some(r) = self
            .shared
            .and_then(|s| s.fence_rels[fence_index(f)].as_ref())
        {
            return r;
        }
        self.fence_rels[fence_index(f)].get_or(|| self.x.fence_rel(f))
    }

    // ---- Shared axiom bodies ---------------------------------------------

    /// The coherence axiom body `po-loc ∪ com` (every hardware model).
    pub fn coherence(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.coherence.as_ref()) {
            return r;
        }
        let po_loc = *self.po_loc();
        self.coherence.get_or(|| po_loc.union(self.com()))
    }

    /// Does the Coherence axiom, `acyclic(po-loc ∪ com)`, hold? Decided
    /// once per rf/co group: a [`TxnFreeBase`] captures the answer.
    pub fn coherent(&self) -> bool {
        if let Some(ok) = self.shared.and_then(|s| s.coherent) {
            return ok;
        }
        *self.coherent.get_or_init(|| self.coherence().is_acyclic())
    }

    /// The RMW-isolation axiom body `rmw ∩ (fre ; coe)`.
    pub fn rmw_isol(&self) -> &Rel {
        if let Some(r) = self.shared.and_then(|s| s.rmw_isol.as_ref()) {
            return r;
        }
        let fre = *self.fre();
        self.rmw_isol
            .get_or(|| self.x.rmw().inter(&fre.seq(self.coe())))
    }

    /// The weak-isolation lift `weaklift(com, stxn)` (§3.3).
    pub fn weak_isol(&self) -> &Rel {
        let com = *self.com();
        self.weak_isol.get_or(|| weaklift(&com, self.stxn()))
    }

    /// The strong-isolation lift `stronglift(com, stxn)` (§3.3).
    pub fn strong_isol(&self) -> &Rel {
        let com = *self.com();
        self.strong_isol.get_or(|| stronglift(&com, self.stxn()))
    }

    /// The atomic-transaction strong-isolation lift
    /// `stronglift(com, stxnat)` (Theorem 7.2).
    pub fn strong_isol_atomic(&self) -> &Rel {
        let com = *self.com();
        self.strong_isol_atomic
            .get_or(|| stronglift(&com, self.stxnat()))
    }

    /// The `TxnCancelsRMW` axiom body `rmw ∩ tfence⁺` (Power, ARMv8).
    /// Without an rmw pair it is empty, and `tfence⁺` is not closed.
    pub fn txn_cancels_rmw(&self) -> &Rel {
        self.txn_cancels_rmw.get_or(|| {
            let rmw = self.x.rmw();
            if rmw.is_empty() {
                *rmw
            } else {
                rmw.inter(self.tfence_plus())
            }
        })
    }

    /// Memoise a model-specific relation under `key`.
    ///
    /// The value **must be transaction-independent** — derived only
    /// from the events, po, dependencies, rmw, rf and co — because
    /// [`TxnFreeBase`] captures memo slots and replays them across
    /// sibling transaction layouts. It must also be identical for
    /// every model variant that uses the key (e.g. a tm model and its
    /// baseline sharing one analysis in a `check_all` sweep), so keep
    /// any tm-only term (tfence lifts and the like) out of the
    /// memoised part and union it in afterwards.
    ///
    /// Models use this to split a derived relation into its fixed part
    /// (computed once per rf/co structure) plus the cheap txn-varying
    /// remainder. The keys ([`MemoKey`]), each with a slot of its own:
    ///
    /// * `X86Hb` — the x86 `hb` union without `tfence`;
    /// * `Armv8Ob` — the ARMv8 `ob` union without its txn terms;
    /// * `PowerPpo` — the Power `ppo` fixpoint;
    /// * `PowerIhb`, `PowerFrecoeStar`, `PowerComeStar` — Power's `ihb`
    ///   without `tfence`, `(fre ∪ coe)*` and `come*`;
    /// * `PowerHb`, `PowerEfence`, `PowerThbSeed` — Power's
    ///   `rfe? ; ihb ; rfe?`, `rfe? ; fence ; rfe?` and the `thb` seed
    ///   `rfe ∪ (fre ∪ coe)* ; ihb`, each without `tfence`.
    ///
    /// The Power keys serve `power`, `power-tm` and every Fig. 6
    /// ablation alike: none of them reads a highlight.
    pub fn memo(&self, key: MemoKey, f: impl FnOnce() -> Rel) -> Rel {
        let slot = key as usize;
        if let Some(r) = self.shared.and_then(|s| s.memos[slot]) {
            return r;
        }
        *self.memos[slot].get_or(f)
    }
}

impl Execution {
    /// A fresh [`ExecutionAnalysis`] over this execution.
    pub fn analysis(&self) -> ExecutionAnalysis<'_> {
        ExecutionAnalysis::new(self)
    }
}

/// The transaction-independent analysis slots of one execution,
/// captured by value so they can seed the analyses of sibling
/// executions that differ **only** in their transaction classes (the
/// layouts of one rf/co assignment, which the walks switch in place
/// with `Execution::set_txn_layout`).
///
/// The enumerators check every transaction layout of a completed rf/co
/// candidate back to back; without sharing, each layout re-derives
/// `fr`, `com`, the equivalences and the fence relations from scratch
/// even though none of them can depend on `txns`. A `TxnFreeBase`
/// captures whichever of those slots the first layout's check
/// materialised and replays them into the next layout's analysis —
/// after a [`TxnFreeBase::matches`] fingerprint check over every
/// txn-independent constituent (events, po, deps, rmw, rf, co), so a
/// stale base can never leak across genuinely different candidates.
pub struct TxnFreeBase {
    // Fingerprint: every Execution field the shared slots derive from.
    events: Vec<crate::event::Event>,
    po: Rel,
    addr: Rel,
    ctrl: Rel,
    data: Rel,
    rmw: Rel,
    rf: Rel,
    co: Rel,
    // Captured event sets.
    reads: Option<EventSet>,
    writes: Option<EventSet>,
    fences: Option<EventSet>,
    acq: Option<EventSet>,
    rel_events: Option<EventSet>,
    sc_events: Option<EventSet>,
    ato: Option<EventSet>,
    // Captured relations (only the txn-independent slots).
    sloc: Option<Rel>,
    sthd: Option<Rel>,
    po_loc: Option<Rel>,
    fr: Option<Rel>,
    com: Option<Rel>,
    rfe: Option<Rel>,
    rfi: Option<Rel>,
    coe: Option<Rel>,
    coi: Option<Rel>,
    fre: Option<Rel>,
    fri: Option<Rel>,
    come: Option<Rel>,
    scr: Option<Rel>,
    dp: Option<Rel>,
    fence_rels: [Option<Rel>; Fence::ALL.len()],
    coherence: Option<Rel>,
    rmw_isol: Option<Rel>,
    coherent: Option<bool>,
    memos: [Option<Rel>; MEMO_SLOTS],
}

impl TxnFreeBase {
    /// Capture every txn-independent slot `a` has materialised.
    pub fn capture(a: &ExecutionAnalysis<'_>) -> TxnFreeBase {
        TxnFreeBase::capture_into(a, Vec::new())
    }

    /// [`TxnFreeBase::capture`] into this base's buffers: a checker
    /// that captures every rf/co group into one base allocates nothing
    /// once warm.
    pub fn recapture(&mut self, a: &ExecutionAnalysis<'_>) {
        let events = std::mem::take(&mut self.events);
        *self = TxnFreeBase::capture_into(a, events);
    }

    /// Capture `a`, keeping its events in `events`' buffer.
    fn capture_into(
        a: &ExecutionAnalysis<'_>,
        mut events: Vec<crate::event::Event>,
    ) -> TxnFreeBase {
        events.clone_from(&a.x.events);
        let rel = |c: &RelCache| c.0.get().copied();
        let mut fence_rels: [Option<Rel>; Fence::ALL.len()] = Default::default();
        for (slot, cache) in fence_rels.iter_mut().zip(&a.fence_rels) {
            *slot = rel(cache);
        }
        TxnFreeBase {
            events,
            po: *a.x.po(),
            addr: *a.x.addr(),
            ctrl: *a.x.ctrl(),
            data: *a.x.data(),
            rmw: *a.x.rmw(),
            rf: *a.x.rf(),
            co: *a.x.co(),
            reads: a.reads.get().copied(),
            writes: a.writes.get().copied(),
            fences: a.fences.get().copied(),
            acq: a.acq.get().copied(),
            rel_events: a.rel_events.get().copied(),
            sc_events: a.sc_events.get().copied(),
            ato: a.ato.get().copied(),
            sloc: rel(&a.sloc),
            sthd: rel(&a.sthd),
            po_loc: rel(&a.po_loc),
            fr: rel(&a.fr),
            com: rel(&a.com),
            rfe: rel(&a.rfe),
            rfi: rel(&a.rfi),
            coe: rel(&a.coe),
            coi: rel(&a.coi),
            fre: rel(&a.fre),
            fri: rel(&a.fri),
            come: rel(&a.come),
            scr: rel(&a.scr),
            dp: rel(&a.dp),
            fence_rels,
            coherence: rel(&a.coherence),
            rmw_isol: rel(&a.rmw_isol),
            coherent: a.coherent.get().copied(),
            memos: std::array::from_fn(|k| rel(&a.memos[k])),
        }
    }

    /// Does `y` share every txn-independent constituent with the
    /// execution this base was captured from?
    pub fn matches(&self, y: &Execution) -> bool {
        self.po == *y.po()
            && self.rf == *y.rf()
            && self.co == *y.co()
            && self.rmw == *y.rmw()
            && self.addr == *y.addr()
            && self.ctrl == *y.ctrl()
            && self.data == *y.data()
            && self.events == *y.events()
    }

    /// A fresh analysis over `y` whose txn-independent accessors
    /// answer from this base **by reference** — seeding copies and
    /// allocates nothing. Callers must have verified
    /// [`TxnFreeBase::matches`]`(y)`.
    pub fn seed<'x>(&'x self, y: &'x Execution) -> ExecutionAnalysis<'x> {
        debug_assert!(self.matches(y), "seeding from a non-matching base");
        ExecutionAnalysis::over(y, Some(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ExecBuilder;

    fn sample() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w0 = b.write(t0, 0);
        b.fence(t0, Fence::MFence);
        let r0 = b.read(t0, 1);
        let t1 = b.new_thread();
        let w1 = b.write(t1, 1);
        let r1 = b.read(t1, 0);
        b.rf(w1, r0);
        b.txn(&[w1, r1]);
        let _ = (w0, r0);
        b.build().unwrap()
    }

    #[test]
    fn analysis_agrees_with_direct_derivations() {
        let x = sample();
        let a = x.analysis();
        assert_eq!(*a.fr(), x.fr());
        assert_eq!(*a.com(), x.com());
        assert_eq!(*a.sloc(), x.sloc());
        assert_eq!(*a.sthd(), x.sthd());
        assert_eq!(*a.po_loc(), x.po_loc());
        assert_eq!(*a.rfe(), x.rfe());
        assert_eq!(*a.rfi(), x.rfi());
        assert_eq!(*a.coe(), x.coe());
        assert_eq!(*a.coi(), x.coi());
        assert_eq!(*a.fre(), x.fre());
        assert_eq!(*a.fri(), x.fri());
        assert_eq!(*a.come(), x.come());
        assert_eq!(*a.stxn(), x.stxn());
        assert_eq!(*a.stxnat(), x.stxnat());
        assert_eq!(*a.tfence(), x.tfence());
        assert_eq!(*a.scr(), x.scr());
        assert_eq!(*a.scrt(), x.scrt());
        for f in Fence::ALL {
            assert_eq!(*a.fence_rel(f), x.fence_rel(f));
        }
        assert_eq!(a.reads(), x.reads());
        assert_eq!(a.writes(), x.writes());
        assert_eq!(a.acq(), x.acq());
        assert_eq!(a.ato(), x.ato());
    }

    #[test]
    fn caching_returns_same_value_twice() {
        let x = sample();
        let a = x.analysis();
        let first = *a.fr();
        let second = *a.fr();
        assert_eq!(first, second);
        assert_eq!(*a.coherence(), a.po_loc().union(a.com()));
        assert_eq!(*a.weak_isol(), weaklift(a.com(), a.stxn()));
        assert_eq!(*a.strong_isol(), stronglift(a.com(), a.stxn()));
        assert_eq!(*a.txn_cancels_rmw(), x.rmw().inter(&x.tfence().plus()));
    }

    #[test]
    fn external_internal_partition() {
        let x = sample();
        let a = x.analysis();
        assert_eq!(a.rfe().union(a.rfi()), *x.rf());
        assert!(a.rfe().inter(a.rfi()).is_empty());
        assert_eq!(a.fre().union(a.fri()), *a.fr());
    }
}
