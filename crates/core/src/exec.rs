//! Executions: event graphs with the relations of §2.1 and §3.1.

use crate::event::{Attrs, Call, Event, EventId, EventKind, Fence, Loc, Tid};
use crate::rel::Rel;
use crate::set::{EventSet, MAX_EVENTS};
use crate::wf::{self, WfError};

/// The event ids of one thread in program order: an allocation-free
/// iterator whose backing store is a fixed inline array (this type sits
/// on the enumeration hot path, where a heap `Vec` per call dominated).
///
/// Also supports random access via [`ThreadEvents::get`] /
/// [`ThreadEvents::index_of`] for callers that need positions.
///
/// Deliberately `Clone` but not `Copy`: a `Copy` iterator makes
/// `for e in it` consume an implicit copy, silently restarting a later
/// `it.next()` from the beginning (the reason `std::ops::Range` is not
/// `Copy` either).
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    ids: [u8; MAX_EVENTS],
    len: u8,
    pos: u8,
}

impl ThreadEvents {
    fn new(x: &Execution, tid: Tid) -> ThreadEvents {
        let mut ids = [0u8; MAX_EVENTS];
        let mut len = 0usize;
        for e in 0..x.len() {
            if x.events[e].tid == tid {
                ids[len] = e as u8;
                len += 1;
            }
        }
        // Order by po (insertion sort over ≤ MAX_EVENTS inline slots).
        // Ids are id-ordered already in every constructor this crate
        // ships, but `from_parts` accepts any per-thread total order.
        for i in 1..len {
            let mut j = i;
            while j > 0 && x.po.contains(ids[j] as usize, ids[j - 1] as usize) {
                ids.swap(j, j - 1);
                j -= 1;
            }
        }
        ThreadEvents {
            ids,
            len: len as u8,
            pos: 0,
        }
    }

    /// Remaining events.
    #[allow(clippy::len_without_is_empty)]
    pub(crate) fn len(&self) -> usize {
        (self.len - self.pos) as usize
    }

    /// The `i`-th remaining event (program order).
    pub fn get(&self, i: usize) -> EventId {
        assert!(i < self.len(), "thread event index out of range");
        self.ids[self.pos as usize + i] as EventId
    }

    /// The position of `e` among the remaining events, if present.
    pub fn index_of(&self, e: EventId) -> Option<usize> {
        (self.pos as usize..self.len as usize).position(|i| self.ids[i] as EventId == e)
    }
}

impl Iterator for ThreadEvents {
    type Item = EventId;

    fn next(&mut self) -> Option<EventId> {
        if self.pos < self.len {
            let e = self.ids[self.pos as usize] as EventId;
            self.pos += 1;
            Some(e)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for ThreadEvents {}

/// The set of locations an execution accesses, iterated in ascending
/// order: an allocation-free bit-set iterator (replaces a sorted,
/// deduplicated `Vec` built per call on hot enumeration paths).
///
/// `Clone` but not `Copy`, for the same implicit-restart reason as
/// [`ThreadEvents`].
#[derive(Debug, Clone, Default)]
pub struct LocSet {
    bits: [u64; 4],
}

impl LocSet {
    /// Insert a location.
    pub(crate) fn insert(&mut self, l: Loc) {
        self.bits[(l / 64) as usize] |= 1u64 << (l % 64);
    }

    /// Number of locations.
    #[allow(clippy::len_without_is_empty)]
    pub(crate) fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl Iterator for LocSet {
    type Item = Loc;

    fn next(&mut self) -> Option<Loc> {
        for (w, word) in self.bits.iter_mut().enumerate() {
            if *word != 0 {
                let b = word.trailing_zeros();
                *word &= *word - 1;
                return Some((w as u32 * 64 + b) as Loc);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for LocSet {}

/// The class id of an event outside every transaction, in the
/// per-event class tables of [`Execution::set_txn_layout`].
pub const NO_TXN: u8 = u8::MAX;

/// One successful transaction: a contiguous run of events on one thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TxnClass {
    /// Members, in program order.
    pub events: Vec<EventId>,
    /// Is this an *atomic* transaction (C++ `atomic{...}`, the paper's
    /// `stxnat`)? Hardware transactions ignore this flag.
    pub atomic: bool,
}

/// A critical region delimited by lock/unlock call events (§8.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrClass {
    /// All events from the `lock()` to the `unlock()` call, inclusive.
    pub events: Vec<EventId>,
    /// True if the region uses the transactionalised `Lt`/`Ut` calls.
    pub elided: bool,
}

/// An execution graph.
///
/// Candidate executions are generated assuming a fully non-deterministic
/// memory system (each read may observe any same-location write, or the
/// initial value); memory models then filter them via their consistency
/// axioms.
#[derive(Debug, Clone)]
pub struct Execution {
    pub(crate) events: Vec<Event>,
    pub(crate) po: Rel,
    pub(crate) addr: Rel,
    pub(crate) ctrl: Rel,
    pub(crate) data: Rel,
    pub(crate) rmw: Rel,
    pub(crate) rf: Rel,
    pub(crate) co: Rel,
    pub(crate) txns: Vec<TxnClass>,
    /// Event → transaction-class index, precomputed at construction so
    /// [`Execution::txn_of`] is O(1) instead of scanning every class.
    /// `None` (the whole cache) after raw mutation via
    /// [`Execution::txns_mut`]; rebuilt by the constructors.
    txn_index: Option<Vec<Option<u32>>>,
}

/// Equality ignores the derived `txn_index` cache: two executions with
/// the same events, relations and transaction classes are equal
/// regardless of whether the index has been invalidated.
impl PartialEq for Execution {
    fn eq(&self, other: &Execution) -> bool {
        self.events == other.events
            && self.po == other.po
            && self.addr == other.addr
            && self.ctrl == other.ctrl
            && self.data == other.data
            && self.rmw == other.rmw
            && self.rf == other.rf
            && self.co == other.co
            && self.txns == other.txns
    }
}

impl Eq for Execution {}

fn build_txn_index(n: usize, txns: &[TxnClass]) -> Vec<Option<u32>> {
    let mut idx = vec![None; n];
    for (ti, t) in txns.iter().enumerate() {
        for &e in &t.events {
            if e < n {
                idx[e] = Some(ti as u32);
            }
        }
    }
    idx
}

impl Execution {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, indexed by [`EventId`].
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// A single event.
    pub fn event(&self, e: EventId) -> &Event {
        &self.events[e]
    }

    /// The transaction classes.
    pub fn txns(&self) -> &[TxnClass] {
        &self.txns
    }

    /// The transaction index containing `e`, if any.
    ///
    /// O(1) via the precomputed event→class index; falls back to a
    /// linear scan only when the index was invalidated by raw mutation
    /// through [`Execution::txns_mut`].
    pub fn txn_of(&self, e: EventId) -> Option<usize> {
        match &self.txn_index {
            Some(idx) => idx.get(e).copied().flatten().map(|ti| ti as usize),
            None => self.txns.iter().position(|t| t.events.contains(&e)),
        }
    }

    /// The number of threads (`max tid + 1`).
    pub fn num_threads(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.tid as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Event ids on thread `tid`, in program order.
    ///
    /// Returns an allocation-free inline iterator; collect it only when
    /// a `Vec` is genuinely needed.
    pub fn thread_events(&self, tid: Tid) -> ThreadEvents {
        ThreadEvents::new(self, tid)
    }

    /// The set of locations accessed, iterated in ascending order
    /// (allocation-free).
    pub fn locations(&self) -> LocSet {
        let mut s = LocSet::default();
        for e in &self.events {
            if let Some(l) = e.loc {
                s.insert(l);
            }
        }
        s
    }

    // ---- Event sets ------------------------------------------------------

    fn set_where(&self, pred: impl Fn(&Event) -> bool) -> EventSet {
        EventSet::from_iter((0..self.len()).filter(|&e| pred(&self.events[e])))
    }

    /// The read events `R`.
    pub fn reads(&self) -> EventSet {
        self.set_where(|e| e.is_read())
    }

    /// The write events `W`.
    pub fn writes(&self) -> EventSet {
        self.set_where(|e| e.is_write())
    }

    /// Reads and writes.
    pub fn accesses(&self) -> EventSet {
        self.set_where(|e| e.is_access())
    }

    /// All fence events.
    pub(crate) fn fences(&self) -> EventSet {
        self.set_where(|e| e.kind.is_fence())
    }

    /// Fence events of one particular kind.
    pub fn fence_events(&self, f: Fence) -> EventSet {
        self.set_where(|e| e.kind == EventKind::Fence(f))
    }

    /// All call events.
    pub fn calls(&self) -> EventSet {
        self.set_where(|e| e.kind.is_call())
    }

    /// Events carrying all the given attribute flags.
    pub fn with_attr(&self, a: Attrs) -> EventSet {
        self.set_where(|e| e.attrs.contains(a))
    }

    /// Acquire events.
    pub fn acq(&self) -> EventSet {
        self.with_attr(Attrs::ACQ)
    }

    /// Release events.
    pub fn rel_events(&self) -> EventSet {
        self.with_attr(Attrs::REL)
    }

    /// SC events.
    pub fn sc_events(&self) -> EventSet {
        self.with_attr(Attrs::SC)
    }

    /// C++ atomic events (`Ato`).
    pub fn ato(&self) -> EventSet {
        self.with_attr(Attrs::ATO)
    }

    /// Events accessing location `l`.
    pub fn at_loc(&self, l: Loc) -> EventSet {
        self.set_where(|e| e.loc == Some(l))
    }

    // ---- Primitive relations --------------------------------------------

    /// Program order.
    pub fn po(&self) -> &Rel {
        &self.po
    }

    /// Address dependencies.
    pub fn addr(&self) -> &Rel {
        &self.addr
    }

    /// Control dependencies.
    pub fn ctrl(&self) -> &Rel {
        &self.ctrl
    }

    /// Data dependencies.
    pub fn data(&self) -> &Rel {
        &self.data
    }

    /// Read-modify-write pairs.
    pub fn rmw(&self) -> &Rel {
        &self.rmw
    }

    /// Reads-from.
    pub fn rf(&self) -> &Rel {
        &self.rf
    }

    /// Coherence order.
    pub fn co(&self) -> &Rel {
        &self.co
    }

    // ---- Derived relations ----------------------------------------------

    /// Same-location: both events access the same location.
    ///
    /// Includes the diagonal on accesses; fences and calls are excluded.
    pub fn sloc(&self) -> Rel {
        let n = self.len();
        let mut r = Rel::empty(n);
        for l in self.locations() {
            let s = self.at_loc(l);
            r = r.union(&Rel::cross(n, s, s));
        }
        r
    }

    /// Same-thread pairs, including the diagonal: `(po ∪ po⁻¹)*`.
    pub fn sthd(&self) -> Rel {
        let n = self.len();
        let mut r = Rel::id(n);
        for t in 0..self.num_threads() {
            let s = self.set_where(|e| e.tid as usize == t);
            r = r.union(&Rel::cross(n, s, s));
        }
        r
    }

    /// The external (inter-thread) part of a relation: `r \ (po ∪ po⁻¹)*`.
    pub(crate) fn external(&self, r: &Rel) -> Rel {
        r.minus(&self.sthd())
    }

    /// The internal (intra-thread) part of a relation: `r ∩ (po ∪ po⁻¹)*`.
    pub(crate) fn internal(&self, r: &Rel) -> Rel {
        r.inter(&self.sthd())
    }

    /// `po` restricted to same-location accesses.
    pub fn po_loc(&self) -> Rel {
        self.po.inter(&self.sloc())
    }

    /// From-read: `fr = ([R] ; sloc ; [W]) \ (rf⁻¹ ; (co⁻¹)*)`.
    ///
    /// A read with no incoming `rf` edge observes the initial value and is
    /// therefore `fr`-before every write to its location.
    pub fn fr(&self) -> Rel {
        self.fr_with_sloc(&self.sloc())
    }

    /// [`Execution::fr`] with a caller-provided `sloc` (the single
    /// definition of from-read; [`crate::ExecutionAnalysis`] passes its
    /// cached `sloc` through here).
    pub(crate) fn fr_with_sloc(&self, sloc: &Rel) -> Rel {
        let n = self.len();
        let r_sloc_w = Rel::id_on(n, self.reads())
            .seq(sloc)
            .seq(&Rel::id_on(n, self.writes()));
        let seen_or_before = self.rf.inverse().seq(&self.co.inverse().star());
        r_sloc_w.minus(&seen_or_before)
    }

    /// Communication: `com = rf ∪ co ∪ fr`.
    pub fn com(&self) -> Rel {
        self.rf.union(&self.co).union(&self.fr())
    }

    /// External reads-from.
    pub fn rfe(&self) -> Rel {
        self.external(&self.rf)
    }

    /// Internal reads-from.
    pub fn rfi(&self) -> Rel {
        self.internal(&self.rf)
    }

    /// External coherence.
    pub fn coe(&self) -> Rel {
        self.external(&self.co)
    }

    /// Internal coherence.
    pub fn coi(&self) -> Rel {
        self.internal(&self.co)
    }

    /// External from-read.
    pub fn fre(&self) -> Rel {
        self.external(&self.fr())
    }

    /// Internal from-read.
    pub fn fri(&self) -> Rel {
        self.internal(&self.fr())
    }

    /// External communication `come = rfe ∪ coe ∪ fre`.
    pub fn come(&self) -> Rel {
        self.external(&self.com())
    }

    /// The fence relation induced by fence events of kind `f`:
    /// `po ; [F_f] ; po`.
    pub fn fence_rel(&self, f: Fence) -> Rel {
        let idf = Rel::id_on(self.len(), self.fence_events(f));
        self.po.seq(&idf).seq(&self.po)
    }

    /// The `stxn` relation: a partial equivalence with a class per
    /// successful transaction (reflexive on members).
    pub fn stxn(&self) -> Rel {
        let n = self.len();
        let mut r = Rel::empty(n);
        for t in &self.txns {
            let s = EventSet::from_iter(t.events.iter().copied());
            r = r.union(&Rel::cross(n, s, s));
        }
        r
    }

    /// The `stxnat` relation: only the atomic transactions.
    pub fn stxnat(&self) -> Rel {
        let n = self.len();
        let mut r = Rel::empty(n);
        for t in self.txns.iter().filter(|t| t.atomic) {
            let s = EventSet::from_iter(t.events.iter().copied());
            r = r.union(&Rel::cross(n, s, s));
        }
        r
    }

    /// Implicit transaction fences (§5.2):
    /// `tfence = po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn))`, derived in
    /// the closed form `po ∩ ¬stxn ∩ (T×E ∪ E×T)` with `T` the
    /// transactional events.
    pub fn tfence(&self) -> Rel {
        tfence_of(&self.po, &self.stxn())
    }

    /// Critical regions derived from the lock/unlock call events, in the
    /// order they open per thread (§8.3).
    pub(crate) fn cr_classes(&self) -> Vec<CrClass> {
        let mut crs = Vec::new();
        for t in 0..self.num_threads() {
            let mut open: Option<(bool, Vec<EventId>)> = None;
            for e in self.thread_events(t as Tid) {
                match self.events[e].kind {
                    EventKind::Call(Call::Lock) => {
                        open = Some((false, vec![e]));
                    }
                    EventKind::Call(Call::TLock) => {
                        open = Some((true, vec![e]));
                    }
                    EventKind::Call(Call::Unlock) | EventKind::Call(Call::TUnlock) => {
                        if let Some((elided, mut evs)) = open.take() {
                            evs.push(e);
                            crs.push(CrClass {
                                events: evs,
                                elided,
                            });
                        }
                    }
                    _ => {
                        if let Some((_, evs)) = open.as_mut() {
                            evs.push(e);
                        }
                    }
                }
            }
        }
        crs
    }

    /// The `scr` equivalence: events in the same critical region
    /// (reflexive on members).
    pub fn scr(&self) -> Rel {
        let n = self.len();
        let mut r = Rel::empty(n);
        for cr in self.cr_classes() {
            let s = EventSet::from_iter(cr.events.iter().copied());
            r = r.union(&Rel::cross(n, s, s));
        }
        r
    }

    /// The `scrt` sub-equivalence: only the transactionalised regions.
    pub fn scrt(&self) -> Rel {
        let n = self.len();
        let mut r = Rel::empty(n);
        for cr in self.cr_classes().into_iter().filter(|c| c.elided) {
            let s = EventSet::from_iter(cr.events.iter().copied());
            r = r.union(&Rel::cross(n, s, s));
        }
        r
    }

    // ---- Well-formedness and transformations -----------------------------

    /// Check the well-formedness conditions of §2.1/§3.1.
    pub fn check_wf(&self) -> Result<(), WfError> {
        wf::check(self)
    }

    /// A copy with all transactions erased (the non-TM baseline view).
    pub fn erase_txns(&self) -> Execution {
        let mut e = self.clone();
        e.txns.clear();
        e.txn_index = Some(vec![None; e.events.len()]);
        e
    }

    /// A copy with the given transaction classes (unchecked; call
    /// [`Execution::check_wf`] afterwards if the classes are not known to
    /// be contiguous).
    pub fn with_txns(&self, txns: Vec<TxnClass>) -> Execution {
        let mut e = self.clone();
        e.set_txns(txns);
        e
    }

    /// Replace the transaction classes in place.
    pub(crate) fn set_txns(&mut self, txns: Vec<TxnClass>) {
        self.txn_index = Some(build_txn_index(self.events.len(), &txns));
        self.txns = txns;
    }

    /// Rewrite the transaction classes in place from a per-event class
    /// table: class `c` holds, in id order, every event `e` with
    /// `class_of[e] == c`, and events mapped to [`NO_TXN`] stay outside
    /// every transaction. Class ids must be dense from 0; every class
    /// gets the `atomic` flag.
    ///
    /// The class list, the member buffers and the txn index are all
    /// reused: buffers of classes the new layout does not need move to
    /// `spare`, and new classes draw from it, so a walk cycling layouts
    /// over one structure allocates nothing once `spare` is warm.
    pub fn set_txn_layout(&mut self, class_of: &[u8], atomic: bool, spare: &mut Vec<Vec<EventId>>) {
        let class_of = &class_of[..self.events.len()];
        let classes = class_of
            .iter()
            .filter(|&&c| c != NO_TXN)
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0);
        while self.txns.len() > classes {
            let mut dropped = self.txns.pop().expect("more classes than needed");
            dropped.events.clear();
            spare.push(dropped.events);
        }
        for t in &mut self.txns {
            t.events.clear();
            t.atomic = atomic;
        }
        while self.txns.len() < classes {
            let events = spare.pop().unwrap_or_default();
            self.txns.push(TxnClass { events, atomic });
        }
        let idx = self.txn_index.get_or_insert_with(Vec::new);
        idx.clear();
        idx.resize(class_of.len(), None);
        for (e, &c) in class_of.iter().enumerate() {
            if c != NO_TXN {
                self.txns[c as usize].events.push(e);
                idx[e] = Some(u32::from(c));
            }
        }
    }

    /// Remove event `e`, dropping incident edges and re-indexing.
    ///
    /// This is clause (i) of the paper's ⊏ weakening order (§4.2). Reads
    /// that observed a removed write observe the initial value instead;
    /// coherence stays total over the remaining writes.
    pub fn remove_event(&self, victim: EventId) -> Execution {
        let n = self.len();
        assert!(victim < n);
        let map = |e: EventId| -> Option<EventId> {
            use std::cmp::Ordering;
            match e.cmp(&victim) {
                Ordering::Less => Some(e),
                Ordering::Equal => None,
                Ordering::Greater => Some(e - 1),
            }
        };
        let remap = |r: &Rel| -> Rel {
            let mut out = Rel::empty(n - 1);
            for (a, b) in r.pairs() {
                if let (Some(a2), Some(b2)) = (map(a), map(b)) {
                    out.add(a2, b2);
                }
            }
            out
        };
        let mut events = self.events.clone();
        events.remove(victim);
        let txns = self
            .txns
            .iter()
            .filter_map(|t| {
                let evs: Vec<EventId> = t.events.iter().filter_map(|&e| map(e)).collect();
                if evs.is_empty() {
                    None
                } else {
                    Some(TxnClass {
                        events: evs,
                        atomic: t.atomic,
                    })
                }
            })
            .collect();
        Execution::from_parts(
            events,
            remap(&self.po),
            remap(&self.addr),
            remap(&self.ctrl),
            remap(&self.data),
            remap(&self.rmw),
            remap(&self.rf),
            remap(&self.co),
            txns,
        )
    }

    /// Raw constructor for crates that build executions directly
    /// (enumerators, transformation expanders). Prefer
    /// [`crate::build::ExecBuilder`] in user code.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        events: Vec<Event>,
        po: Rel,
        addr: Rel,
        ctrl: Rel,
        data: Rel,
        rmw: Rel,
        rf: Rel,
        co: Rel,
        txns: Vec<TxnClass>,
    ) -> Execution {
        let txn_index = Some(build_txn_index(events.len(), &txns));
        Execution {
            events,
            po,
            addr,
            ctrl,
            data,
            rmw,
            rf,
            co,
            txns,
            txn_index,
        }
    }

    /// Mutable access to the dependency relations (used by the ⊏
    /// weakening steps in the synthesiser).
    pub fn deps_mut(&mut self) -> (&mut Rel, &mut Rel, &mut Rel, &mut Rel) {
        (
            &mut self.addr,
            &mut self.ctrl,
            &mut self.data,
            &mut self.rmw,
        )
    }

    /// Mutable access to the communication relations `(rf, co)`, for
    /// walks that re-point one execution at each completed rf/co
    /// assignment instead of building a new one.
    pub fn comm_mut(&mut self) -> (&mut Rel, &mut Rel) {
        (&mut self.rf, &mut self.co)
    }

    /// Mutable access to an event (attribute downgrades).
    pub fn event_mut(&mut self, e: EventId) -> &mut Event {
        &mut self.events[e]
    }

    /// Mutable access to the transaction classes.
    ///
    /// Invalidates the event→transaction index: subsequent
    /// [`Execution::txn_of`] calls fall back to a linear scan until a
    /// constructor ([`Execution::with_txns`], [`Execution::from_parts`],
    /// ...) rebuilds it.
    pub fn txns_mut(&mut self) -> &mut Vec<TxnClass> {
        self.txn_index = None;
        &mut self.txns
    }
}

/// `tfence = po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn))` in closed form.
///
/// `stxn` is an equivalence on the transactional events `T` (its
/// domain), so `(a, b) ∈ ¬stxn ; stxn` iff `b ∈ T` and `a` lies outside
/// `b`'s class: the witness is `b` itself, and every member of `b`'s
/// class is `stxn`-related to `a` when `a` shares it. Symmetrically for
/// the exit half, hence `tfence = po ∩ ¬stxn ∩ (T×E ∪ E×T)`: one
/// difference and two products instead of two compositions.
pub(crate) fn tfence_of(po: &Rel, stxn: &Rel) -> Rel {
    let n = po.size();
    let (t, all) = (stxn.domain(), EventSet::universe(n));
    po.minus(stxn)
        .inter(&Rel::cross(n, t, all).union(&Rel::cross(n, all, t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ExecBuilder;

    /// Fig. 1: Wx=1 po-before Rx (reads 2) on thread 0; Wx=2 on thread 1;
    /// co: a -> c, rf: c -> b.
    fn fig1() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let bb = b.read(t0, 0);
        let t1 = b.new_thread();
        let c = b.write(t1, 0);
        b.rf(c, bb);
        b.co(a, c);
        b.build().expect("fig1 well-formed")
    }

    #[test]
    fn fig1_structure() {
        let x = fig1();
        assert_eq!(x.len(), 3);
        assert_eq!(x.num_threads(), 2);
        assert!(x.po().contains(0, 1));
        assert!(!x.po().contains(0, 2));
        assert_eq!(x.reads(), EventSet::singleton(1));
        assert_eq!(x.writes(), EventSet::from_iter([0, 2]));
    }

    #[test]
    fn fig1_fr() {
        let x = fig1();
        // b read from c, the co-maximal write, so b has no fr successor.
        let fr = x.fr();
        assert!(fr.is_empty());
    }

    #[test]
    fn fr_with_init_read() {
        // A read with no rf edge observes the initial value: fr to all
        // writes at the location.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let t1 = b.new_thread();
        let w = b.write(t1, 0);
        let x = b.build().unwrap();
        assert!(x.fr().contains(r, w));
    }

    #[test]
    fn fr_middle_write() {
        // r reads w1; w1 -> w2 in co; so (r, w2) ∈ fr but (r, w1) ∉ fr.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w1 = b.write(t0, 0);
        let t1 = b.new_thread();
        let w2 = b.write(t1, 0);
        let t2 = b.new_thread();
        let r = b.read(t2, 0);
        b.rf(w1, r);
        b.co(w1, w2);
        let x = b.build().unwrap();
        let fr = x.fr();
        assert!(fr.contains(r, w2));
        assert!(!fr.contains(r, w1));
    }

    #[test]
    fn internal_external_split() {
        let x = fig1();
        // rf crosses threads: external.
        assert_eq!(x.rfe().len(), 1);
        assert!(x.rfi().is_empty());
        assert_eq!(x.coe().len(), 1);
    }

    #[test]
    fn sloc_diagonal_and_cross() {
        let x = fig1();
        let sloc = x.sloc();
        assert!(sloc.contains(0, 0));
        assert!(sloc.contains(0, 2));
        assert!(sloc.contains(2, 1));
    }

    #[test]
    fn stxn_reflexive_on_members() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(a, r);
        b.txn(&[a, r]);
        let x = b.build().unwrap();
        let stxn = x.stxn();
        assert!(stxn.contains(a, a));
        assert!(stxn.contains(a, r));
        assert!(stxn.contains(r, a));
        assert!(stxn.is_symmetric());
        assert!(stxn.is_transitive());
    }

    #[test]
    fn tfence_boundaries() {
        // w0 ; [t: r1 w2] ; r3  — tfence edges enter and exit the txn.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w0 = b.write(t0, 0);
        let r1 = b.read(t0, 0);
        let w2 = b.write(t0, 1);
        let r3 = b.read(t0, 1);
        b.rf(w0, r1);
        b.rf(w2, r3);
        b.txn(&[r1, w2]);
        let x = b.build().unwrap();
        let tf = x.tfence();
        assert!(tf.contains(w0, r1));
        assert!(tf.contains(w0, w2));
        assert!(tf.contains(r1, r3));
        assert!(tf.contains(w2, r3));
        assert!(!tf.contains(r1, w2));
        assert!(!tf.contains(w0, r3));
    }

    /// The closed form equals the paper's composition on seeded
    /// executions at every size the kernel admits: random kinds and
    /// thread splits, and per thread a random run of disjoint
    /// contiguous transactions (atomic or not).
    #[test]
    fn tfence_closed_form_matches_the_composition() {
        use crate::rng::SplitMix64;
        for n in 1..=MAX_EVENTS {
            for seed in 0..24u64 {
                let mut rng = SplitMix64::seed_from_u64(seed * 131 + n as u64);
                let threads = 1 + rng.below(n.min(4));
                let mut events = Vec::with_capacity(n);
                for e in 0..n {
                    let tid = (e * threads / n) as Tid;
                    events.push(match rng.below(3) {
                        0 => Event::read(tid, 0),
                        1 => Event::write(tid, 1),
                        _ => Event::fence(tid, Fence::MFence),
                    });
                }
                let mut po = Rel::empty(n);
                for a in 0..n {
                    for b in a + 1..n {
                        if events[a].tid == events[b].tid {
                            po.add(a, b);
                        }
                    }
                }
                let mut txns = Vec::new();
                let mut e = 0;
                while e < n {
                    let tid = events[e].tid;
                    let mut end = e;
                    while end + 1 < n && events[end + 1].tid == tid && rng.below(3) != 0 {
                        end += 1;
                    }
                    if rng.below(2) == 0 {
                        txns.push(TxnClass {
                            events: (e..=end).collect(),
                            atomic: rng.below(2) == 0,
                        });
                    }
                    e = end + 1;
                }
                let empty = Rel::empty(n);
                let x = Execution::from_parts(
                    events, po, empty, empty, empty, empty, empty, empty, txns,
                );
                let stxn = x.stxn();
                let nstxn = stxn.complement();
                let composed = po.inter(&nstxn.seq(&stxn).union(&stxn.seq(&nstxn)));
                assert_eq!(x.tfence(), composed, "n={n} seed={seed}");
                assert_eq!(*x.analysis().tfence(), composed, "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn set_txn_layout_reuses_buffers_and_reindexes() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w0 = b.write(t0, 0);
        let r0 = b.read(t0, 0);
        let t1 = b.new_thread();
        let w1 = b.write(t1, 1);
        let mut x = b.build().unwrap();
        let mut spare = Vec::new();
        // Two classes, then one, then none, then two again: the
        // dropped buffers come back from `spare`.
        x.set_txn_layout(&[0, 0, 1], true, &mut spare);
        assert_eq!(x.txns().len(), 2);
        assert_eq!(x.txns()[0].events, vec![w0, r0]);
        assert_eq!(x.txns()[1].events, vec![w1]);
        assert!(x.txns().iter().all(|t| t.atomic));
        assert_eq!((x.txn_of(r0), x.txn_of(w1)), (Some(0), Some(1)));
        x.set_txn_layout(&[NO_TXN, 0, NO_TXN], false, &mut spare);
        assert_eq!(
            x.txns(),
            [TxnClass {
                events: vec![r0],
                atomic: false
            }]
        );
        assert_eq!((x.txn_of(w0), x.txn_of(r0)), (None, Some(0)));
        assert_eq!(spare.len(), 1);
        x.set_txn_layout(&[NO_TXN; 3], false, &mut spare);
        assert!(x.txns().is_empty());
        assert_eq!(x.txn_of(r0), None);
        assert_eq!(spare.len(), 2);
        x.set_txn_layout(&[0, 1, NO_TXN], false, &mut spare);
        assert!(spare.is_empty());
        assert_eq!(x, x.with_txns(x.txns().to_vec()));
        assert_eq!((x.txn_of(w0), x.txn_of(r0)), (Some(0), Some(1)));
    }

    #[test]
    fn erase_txns_keeps_events() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let c = b.read(t0, 0);
        b.rf(a, c);
        b.txn(&[a, c]);
        let x = b.build().unwrap();
        let y = x.erase_txns();
        assert_eq!(y.len(), 2);
        assert!(y.stxn().is_empty());
        assert!(y.tfence().is_empty());
    }

    #[test]
    fn remove_event_reindexes() {
        let x = fig1();
        // Remove the thread-1 write (id 2): b's rf vanishes, co vanishes.
        let y = x.remove_event(2);
        assert_eq!(y.len(), 2);
        assert!(y.rf().is_empty());
        assert!(y.co().is_empty());
        assert!(y.po().contains(0, 1));
        // Remove event 0: ids shift down.
        let z = x.remove_event(0);
        assert_eq!(z.len(), 2);
        assert!(z.rf().contains(1, 0));
    }

    #[test]
    fn remove_event_drops_empty_txn() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let x = b.build().unwrap();
        assert_eq!(x.len(), 1);
        let mut xt = x.clone();
        xt.txns_mut().push(TxnClass {
            events: vec![a],
            atomic: false,
        });
        let y = xt.remove_event(a);
        assert!(y.txns().is_empty());
        assert!(y.is_empty());
    }

    #[test]
    fn txn_of_index_tracks_mutation() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(a, r);
        b.txn(&[a, r]);
        let x = b.build().unwrap();
        // Constructed path: O(1) index.
        assert_eq!(x.txn_of(a), Some(0));
        assert_eq!(x.txn_of(r), Some(0));
        // with_txns rebuilds the index.
        let y = x.with_txns(vec![TxnClass {
            events: vec![r],
            atomic: true,
        }]);
        assert_eq!(y.txn_of(a), None);
        assert_eq!(y.txn_of(r), Some(0));
        // erase_txns clears it.
        assert_eq!(x.erase_txns().txn_of(a), None);
        // Raw mutation invalidates the index; the linear fallback stays
        // correct.
        let mut z = x.clone();
        z.txns_mut().push(TxnClass {
            events: vec![],
            atomic: false,
        });
        z.txns_mut()[1].events.push(a);
        z.txns_mut()[0].events.retain(|&e| e != a);
        assert_eq!(z.txn_of(a), Some(1));
        assert_eq!(z.txn_of(r), Some(0));
        // Equality ignores index state.
        assert_eq!(x, x.with_txns(x.txns().to_vec()));
    }

    #[test]
    fn cr_classes_and_scr() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let l = b.call(t0, Call::Lock);
        let w = b.write(t0, 0);
        let u = b.call(t0, Call::Unlock);
        let t1 = b.new_thread();
        let lt = b.call(t1, Call::TLock);
        let r = b.read(t1, 0);
        let ut = b.call(t1, Call::TUnlock);
        b.rf(w, r);
        let x = b.build().unwrap();
        let crs = x.cr_classes();
        assert_eq!(crs.len(), 2);
        assert_eq!(crs[0].events, vec![l, w, u]);
        assert!(!crs[0].elided);
        assert_eq!(crs[1].events, vec![lt, r, ut]);
        assert!(crs[1].elided);
        let scr = x.scr();
        assert!(scr.contains(l, u));
        assert!(scr.contains(lt, r));
        assert!(!scr.contains(l, lt));
        let scrt = x.scrt();
        assert!(scrt.contains(lt, ut));
        assert!(!scrt.contains(l, u));
    }

    #[test]
    fn fence_rel_derivation() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        b.fence(t0, Fence::MFence);
        let r = b.read(t0, 1);
        let x = b.build().unwrap();
        let mf = x.fence_rel(Fence::MFence);
        assert!(mf.contains(w, r));
        assert!(!mf.contains(r, w));
        assert!(x.fence_rel(Fence::Sync).is_empty());
    }
}
