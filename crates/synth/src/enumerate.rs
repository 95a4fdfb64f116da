//! Exhaustive enumeration of candidate executions, up to a bounded
//! event count, for a given architecture.
//!
//! This replaces Memalloy's SAT search with explicit generation: every
//! well-formed execution over the architecture's event vocabulary is
//! produced exactly once (up to thread and location symmetry).
//!
//! ## The streaming engine
//!
//! The space is sharded by **thread shape** (the non-increasing
//! partition of the event count across threads) and, within a shape, by
//! **kind assignment**: one `Subtree` per canonical choice of event
//! kinds. Canonicalisation is *incremental* (see [`txmm_core::canon`]):
//! symmetry-duplicate prefixes are rejected mid-construction — at the
//! kind stage, again when the per-event labels complete, and finally by
//! a stateless automorphism-minimality test on the finished candidate —
//! so the engine streams exactly one representative per symmetry class
//! while carrying **no dedup set and no candidate buffer**.
//!
//! ## Transaction layouts
//!
//! Every rf/co assignment fans out into every transaction layout: each
//! way of cutting each thread into po-contiguous transactions (89
//! layouts per assignment on a five-event single thread, 233 on six),
//! times the atomic flag for C++. A label assignment lists its layouts
//! once, as a table of per-event class ids built at its first completed
//! rf/co assignment, and the structure walk (the `consistent` module)
//! switches each layout into one execution in place
//! (`Execution::set_txn_layout`): no class vector, txn index or
//! execution is rebuilt per layout. The last symmetry stage splits the
//! same way: its txn-free half is decided once per rf/co assignment
//! ([`txmm_core::canon::LayoutOrbit`]), and a layout is compared only
//! when that half ties under some automorphism. The leaf check splits
//! too: a [`LeafChecker`](crate::LeafChecker) decides most layouts of
//! an rf/co assignment from the verdicts of a few, over the lattice in
//! which deleting one transaction of a layout gives another layout.
//!
//! `Frontier` is the resumable form of that decomposition: a lazy
//! iterator of subtree jobs. A [`Walk`](crate::Walk) walks it, in order
//! on one worker or across the work-stealing pool (the `steal` module),
//! which splits *within* a shape, so one huge shape never serialises a
//! core's worth of work.
//!
//! The seed generate-then-dedup pipeline survives as
//! [`enumerate_reference`]: the differential suite checks the streaming
//! engine emits exactly the same canonical classes.

use std::cell::OnceCell;
use std::collections::HashSet;

use txmm_core::canon::{canon_key, kind_rows_sorted, kind_tag, LayoutOrbit};
use txmm_core::incr::{PruneStats, Stage};
use txmm_core::{Attrs, Event, EventId, EventKind, Execution, Fence, Rel, MAX_EVENTS, NO_TXN};
use txmm_models::Arch;

use crate::consistent::pruned_structures;

/// What the enumerator may use.
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// The target architecture (fixes fences and attributes).
    pub arch: Arch,
    /// Exact number of events to generate (callers loop over sizes).
    pub events: usize,
    /// Maximum number of threads.
    pub max_threads: usize,
    /// Maximum number of distinct locations.
    pub max_locs: usize,
    /// Include fence events.
    pub fences: bool,
    /// Include address/data/control dependencies.
    pub deps: bool,
    /// Include read-modify-write pairs.
    pub rmws: bool,
    /// Include transactions.
    pub txns: bool,
    /// Include architecture attributes (ARMv8 acq/rel, C++ modes).
    pub attrs: bool,
    /// For C++: also enumerate atomic transactions.
    pub atomic_txns: bool,
}

impl EnumConfig {
    /// A sensible default for hardware models.
    pub fn hw(arch: Arch, events: usize) -> EnumConfig {
        EnumConfig {
            arch,
            events,
            max_threads: 3,
            max_locs: 3,
            fences: true,
            deps: matches!(arch, Arch::Power | Arch::Armv8),
            rmws: true,
            txns: true,
            attrs: matches!(arch, Arch::Armv8),
            atomic_txns: false,
        }
    }
}

/// Compositions of `n` into at most `k` non-increasing positive parts
/// (thread shapes; non-increasing kills most thread symmetry up front).
fn shapes(n: usize, k: usize, max_part: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    if k == 0 {
        return vec![];
    }
    let mut out = Vec::new();
    for first in (1..=n.min(max_part)).rev() {
        for rest in shapes(n - first, k - 1, first) {
            let mut s = vec![first];
            s.extend(rest);
            out.push(s);
        }
    }
    out
}

pub(crate) fn kinds_for(cfg: &EnumConfig) -> Vec<EventKind> {
    let mut ks = vec![EventKind::Read, EventKind::Write];
    if cfg.fences {
        for &f in cfg.arch.fences() {
            ks.push(EventKind::Fence(f));
        }
    }
    ks
}

fn attr_options(cfg: &EnumConfig, kind: EventKind) -> Vec<Attrs> {
    if !cfg.attrs {
        // C++ accesses still need *some* mode decision even when attrs
        // are off: default to relaxed atomics so programs are race-free
        // by construction... no: keep them plain (non-atomic).
        if cfg.arch == Arch::Cpp {
            if let EventKind::Fence(Fence::CppFence) = kind {
                return vec![Attrs::SC.union(Attrs::ACQ).union(Attrs::REL)];
            }
        }
        return vec![Attrs::NONE];
    }
    match (cfg.arch, kind) {
        (Arch::Armv8, EventKind::Read) => vec![Attrs::NONE, Attrs::ACQ],
        (Arch::Armv8, EventKind::Write) => vec![Attrs::NONE, Attrs::REL],
        (Arch::Cpp, EventKind::Read) => vec![
            Attrs::NONE,
            Attrs::ATO,
            Attrs::ATO.union(Attrs::ACQ),
            Attrs::ATO.union(Attrs::SC).union(Attrs::ACQ),
        ],
        (Arch::Cpp, EventKind::Write) => vec![
            Attrs::NONE,
            Attrs::ATO,
            Attrs::ATO.union(Attrs::REL),
            Attrs::ATO.union(Attrs::SC).union(Attrs::REL),
        ],
        (Arch::Cpp, EventKind::Fence(_)) => vec![
            Attrs::ACQ,
            Attrs::REL,
            Attrs::ACQ.union(Attrs::REL),
            Attrs::SC.union(Attrs::ACQ).union(Attrs::REL),
        ],
        _ => vec![Attrs::NONE],
    }
}

/// Disjoint contiguous interval covers of `0..k` (transaction layouts on
/// one thread): each position is either outside any transaction or in
/// exactly one interval. The pre-table layout source, kept as the
/// reference the layout table is tested against.
#[cfg(test)]
fn interval_sets(k: usize) -> Vec<Vec<(usize, usize)>> {
    fn go(i: usize, k: usize) -> Vec<Vec<(usize, usize)>> {
        if i >= k {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        // Position i not in a transaction.
        for rest in go(i + 1, k) {
            out.push(rest);
        }
        // A transaction [i..=j].
        for j in i..k {
            for rest in go(j + 1, k) {
                let mut v = vec![(i, j)];
                v.extend(rest);
                out.push(v);
            }
        }
        out
    }
    go(0, k)
}

/// The number of transaction layouts of a `k`-event thread: position
/// 0 is either outside every transaction (`c(k - 1)` layouts of the
/// rest) or opens one of length `l` (`c(k - l)` layouts of the rest).
pub(crate) fn interval_count(k: usize) -> u64 {
    let mut c = vec![1u64; k + 1];
    for m in 1..=k {
        c[m] = c[m - 1].saturating_add(c[..m].iter().fold(0u64, |s, &x| s.saturating_add(x)));
    }
    c[k]
}

/// The thread shapes (non-increasing partitions) the enumeration of
/// `cfg` is sharded over.
pub(crate) fn config_shapes(cfg: &EnumConfig) -> Vec<Vec<usize>> {
    shapes(cfg.events, cfg.max_threads, cfg.events)
}

// ---- The resumable frontier --------------------------------------------

/// One unit of stealable work: all candidates of one shape with one
/// (canonical) kind assignment. The location × attribute × relation ×
/// transaction subtree below it is enumerated by whichever worker
/// claims the job.
#[derive(Debug, Clone)]
pub(crate) struct Subtree {
    /// Position in the sequential enumeration order (strictly
    /// increasing across the frontier).
    pub seq: u64,
    /// Index into [`config_shapes`].
    pub shape_idx: usize,
    /// Closed-form size proxy for the subtree (rf choices × co
    /// orderings of its kind assignment) — the weight unit of progress
    /// accounting ([`walk_weight`]).
    pub weight: u64,
    /// Kind index per event slot (into the config's kind vocabulary).
    pub(crate) kind_choice: Vec<u8>,
}

/// Total work of the walk over `cfg`, in [`Subtree::weight`] units (the
/// denominator of "fraction done"): a dry pass over the frontier, a few
/// thousand odometer steps, negligible against the walk itself.
pub(crate) fn walk_weight(cfg: &EnumConfig) -> u64 {
    Frontier::new(cfg).fold(0, |w, sub| w.saturating_add(sub.weight))
}

/// The per-subtree weight: with `w` writes and `r` reads in the kind
/// assignment, each read has up to `w + 1` rf sources and the writes
/// admit up to `w!` coherence orders. Labels, dependencies and
/// transaction layouts multiply every subtree of a shape by the same
/// factors, so the proxy ranks subtrees correctly where it matters —
/// a fence-heavy assignment weighs far less than a write-heavy one.
fn subtree_weight(kinds: &[EventKind], kind_choice: &[u8]) -> u64 {
    let mut reads = 0u32;
    let mut writes = 0u64;
    for &i in kind_choice {
        match kinds[i as usize] {
            EventKind::Read => reads += 1,
            EventKind::Write => writes += 1,
            _ => {}
        }
    }
    let mut w = (writes + 1).saturating_pow(reads);
    for k in 2..=writes {
        w = w.saturating_mul(k);
    }
    w.max(1)
}

/// The lazy stream of [`Subtree`] jobs, in sequential enumeration
/// order: shapes outermost, the kind odometer within a shape. Only
/// stage-1-canonical kind assignments (sorted kind rows) are yielded —
/// symmetry-duplicate subtrees are pruned before they ever become work.
///
/// The iterator *is* the resumable enumeration state: the parallel
/// drivers pull from it under a lock, so splitting work is `next()`.
pub(crate) struct Frontier {
    shapes: Vec<Vec<usize>>,
    kinds: Vec<EventKind>,
    tags: Vec<u8>,
    /// (shape index, next kind choice); `None` when exhausted.
    state: Option<(usize, Vec<u8>)>,
    seq: u64,
}

impl Frontier {
    /// The frontier over the whole configuration.
    pub(crate) fn new(cfg: &EnumConfig) -> Frontier {
        let shapes = config_shapes(cfg);
        let kinds = kinds_for(cfg);
        let tags = kinds.iter().map(|&k| kind_tag(k)).collect();
        let state = if shapes.is_empty() {
            None
        } else {
            Some((0, vec![0u8; cfg.events]))
        };
        Frontier {
            shapes,
            kinds,
            tags,
            state,
            seq: 0,
        }
    }

    fn advance(&mut self) {
        let Some((shape_idx, choice)) = self.state.as_mut() else {
            return;
        };
        let n = choice.len();
        let mut i = 0;
        loop {
            if i == n {
                // Odometer wrapped: next shape.
                *shape_idx += 1;
                if *shape_idx >= self.shapes.len() {
                    self.state = None;
                }
                return;
            }
            choice[i] += 1;
            if (choice[i] as usize) < self.kinds.len() {
                return;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

impl Iterator for Frontier {
    type Item = Subtree;

    fn next(&mut self) -> Option<Subtree> {
        loop {
            let (shape_idx, choice) = self.state.as_ref()?;
            let shape = &self.shapes[*shape_idx];
            let tag_row: Vec<u8> = choice.iter().map(|&i| self.tags[i as usize]).collect();
            if kind_rows_sorted(shape, &tag_row) {
                let sub = Subtree {
                    seq: self.seq,
                    shape_idx: *shape_idx,
                    weight: subtree_weight(&self.kinds, choice),
                    kind_choice: choice.clone(),
                };
                self.seq += 1;
                self.advance();
                return Some(sub);
            }
            self.advance();
        }
    }
}

pub(crate) fn shape_tids(shape: &[usize]) -> Vec<u8> {
    let mut tids = Vec::with_capacity(shape.iter().sum());
    for (t, &sz) in shape.iter().enumerate() {
        tids.extend(std::iter::repeat_n(t as u8, sz));
    }
    tids
}

/// Position of a candidate in the sequential enumeration order:
/// (subtree sequence number, leaf index within the subtree). Sorting
/// parallel results by this key reproduces the one-worker order
/// exactly.
pub type CandSeq = (u64, u32);

// ---- Label enumeration --------------------------------------------------

/// Enumerate locations × attributes for a fixed kind assignment,
/// invoking `sink` with each completed per-event label vector.
pub(crate) fn enumerate_labels(
    cfg: &EnumConfig,
    tids: &[u8],
    kinds: &[EventKind],
    sink: &mut dyn FnMut(&[Event]),
) {
    let n = tids.len();
    let access: Vec<usize> = (0..n).filter(|&e| kinds[e].is_access()).collect();
    // Canonical location assignment: each access gets a loc index no
    // larger than 1 + max of earlier assignments (first-occurrence
    // numbering), bounded by max_locs.
    fn go(
        idx: usize,
        access: &[usize],
        locs: &mut Vec<u8>,
        max_used: i32,
        cfg: &EnumConfig,
        k: &mut dyn FnMut(&[u8]),
    ) {
        if idx == access.len() {
            k(locs);
            return;
        }
        let limit = ((max_used + 1) as usize).min(cfg.max_locs - 1);
        for l in 0..=limit {
            locs.push(l as u8);
            go(idx + 1, access, locs, max_used.max(l as i32), cfg, k);
            locs.pop();
        }
    }
    let mut locs_buf = Vec::new();
    go(0, &access, &mut locs_buf, -1, cfg, &mut |locs| {
        let mut ev_locs = vec![None; n];
        for (i, &e) in access.iter().enumerate() {
            ev_locs[e] = Some(locs[i]);
        }
        assign_attrs(cfg, tids, kinds, &ev_locs, sink);
    });
}

fn assign_attrs(
    cfg: &EnumConfig,
    tids: &[u8],
    kinds: &[EventKind],
    locs: &[Option<u8>],
    sink: &mut dyn FnMut(&[Event]),
) {
    let n = tids.len();
    let options: Vec<Vec<Attrs>> = (0..n).map(|e| attr_options(cfg, kinds[e])).collect();
    let mut choice = vec![0usize; n];
    loop {
        let events: Vec<Event> = (0..n)
            .map(|e| Event {
                kind: kinds[e],
                tid: tids[e],
                loc: locs[e],
                attrs: options[e][choice[e]],
            })
            .collect();
        sink(&events);
        let mut i = 0;
        loop {
            if i == n {
                return;
            }
            choice[i] += 1;
            if choice[i] < options[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

// ---- Structure enumeration ---------------------------------------------

/// One transaction layout of a label assignment: the class id of every
/// event slot ([`NO_TXN`] outside every transaction), plus the atomic
/// flag every class carries. Class ids follow the layout's thread-major,
/// interval order, which is the order of its `txns()` classes.
#[derive(Debug)]
pub(crate) struct TxnLayout {
    pub(crate) class: [u8; MAX_EVENTS],
    pub(crate) atomic: bool,
}

/// The structure choice space over one fully labelled event vector:
/// everything the structure walk ([`crate::consistent`]) enumerates
/// once kinds, locations and attributes are fixed.
pub(crate) struct StructureSpace {
    /// Program order: same thread, earlier slot.
    pub(crate) po: Rel,
    /// Subsets of the candidate (po-adjacent same-loc read→write) rmw
    /// pairs.
    pub(crate) rmw_sets: Vec<Vec<(usize, usize)>>,
    /// Dependency slots: (read, po-later event) pairs.
    pub(crate) dep_slots: Vec<(usize, usize)>,
    /// The rf/co stages: every read's source, from the last read to
    /// the first (read 0 varies fastest), then every location's
    /// coherence order (location 0 slowest). A source is the initial
    /// value (`None`) or a same-location write, in slot order.
    pub(crate) stages: Vec<Stage>,
    /// Event slots per thread.
    pub(crate) thread_slots: Vec<Vec<usize>>,
    /// Enumerate transactions at all, and atomic ones too.
    txns: bool,
    atomic_txns: bool,
    /// Leaf candidates per complete rf/co assignment.
    txn_leaves: u64,
    /// Every transaction layout, built at the first completed rf/co
    /// assignment (see [`StructureSpace::layouts`]).
    layouts: OnceCell<Vec<TxnLayout>>,
}

impl StructureSpace {
    pub(crate) fn new(cfg: &EnumConfig, events: &[Event]) -> StructureSpace {
        let n = events.len();
        let mut po = Rel::empty(n);
        for a in 0..n {
            for b in (a + 1)..n {
                if events[a].tid == events[b].tid {
                    po.add(a, b);
                }
            }
        }

        let mut rmw_candidates: Vec<(usize, usize)> = Vec::new();
        if cfg.rmws {
            for a in 0..n {
                if events[a].kind == EventKind::Read
                    && a + 1 < n
                    && events[a + 1].kind == EventKind::Write
                    && events[a].tid == events[a + 1].tid
                    && events[a].loc == events[a + 1].loc
                {
                    // C++ rmw events must be atomic.
                    if cfg.arch == Arch::Cpp
                        && !(events[a].attrs.contains(Attrs::ATO)
                            && events[a + 1].attrs.contains(Attrs::ATO))
                    {
                        continue;
                    }
                    rmw_candidates.push((a, a + 1));
                }
            }
        }
        // Subsets of non-overlapping rmw pairs ((a,a+1) and (a+1,a+2)
        // cannot both be candidates since a+1 is a write; safe).
        let rmw_sets: Vec<Vec<(usize, usize)>> = subsets(&rmw_candidates);

        let mut dep_slots: Vec<(usize, usize)> = Vec::new();
        if cfg.deps {
            for a in 0..n {
                if events[a].kind == EventKind::Read {
                    for b in (a + 1)..n {
                        if events[a].tid == events[b].tid {
                            dep_slots.push((a, b));
                        }
                    }
                }
            }
        }

        let writes_at = |loc| -> Vec<usize> {
            (0..n)
                .filter(|&w| events[w].kind == EventKind::Write && events[w].loc == loc)
                .collect()
        };
        let mut stages: Vec<Stage> = (0..n)
            .rev()
            .filter(|&r| events[r].kind == EventKind::Read)
            .map(|r| Stage::rf(r, &writes_at(events[r].loc)))
            .collect();
        let mut locs: Vec<u8> = events.iter().filter_map(|e| e.loc).collect();
        locs.sort_unstable();
        locs.dedup();
        stages.extend(locs.into_iter().map(|l| Stage::Co {
            writes: writes_at(Some(l)),
        }));

        let nthreads = events.iter().map(|e| e.tid as usize + 1).max().unwrap_or(0);
        let thread_slots: Vec<Vec<usize>> = (0..nthreads)
            .map(|t| (0..n).filter(|&e| events[e].tid as usize == t).collect())
            .collect();
        // The layout table's length, known before the table exists:
        // per-thread interval covers multiply, and every non-empty
        // layout comes once more with the atomic flag.
        let layouts: u64 = if cfg.txns {
            thread_slots
                .iter()
                .map(|slots| interval_count(slots.len()))
                .fold(1, u64::saturating_mul)
        } else {
            1
        };
        let txn_leaves = if cfg.atomic_txns {
            layouts.saturating_mul(2).saturating_sub(1)
        } else {
            layouts
        };

        StructureSpace {
            po,
            rmw_sets,
            dep_slots,
            stages,
            thread_slots,
            txns: cfg.txns,
            atomic_txns: cfg.atomic_txns,
            txn_leaves,
            layouts: OnceCell::new(),
        }
    }

    /// An execution over `events` with this space's program order, the
    /// given dependencies and rmw pairs, and no communication or
    /// transactions yet.
    pub(crate) fn execution(
        &self,
        events: &[Event],
        addr: Rel,
        ctrl: Rel,
        data: Rel,
        rmw: Rel,
    ) -> Execution {
        let empty = Rel::empty(events.len());
        Execution::from_parts(
            events.to_vec(),
            self.po,
            addr,
            ctrl,
            data,
            rmw,
            empty,
            empty,
            Vec::new(),
        )
    }

    /// Leaf candidates per complete rf/co assignment: the length of the
    /// layout table (transaction layout combinations times the atomic
    /// flag; the all-empty layout is enumerated once, never with
    /// `atomic` set).
    pub(crate) fn txn_leaves(&self) -> u64 {
        self.txn_leaves
    }

    /// Every transaction layout, in walk order: threads outermost
    /// (thread 0 slowest); within a thread, position by position, first
    /// outside every transaction, then opening one of each length; the
    /// atomic flag innermost, skipping the empty atomic layout. Built
    /// on first use, so a label assignment whose every rf/co assignment
    /// is cut never pays for it.
    pub(crate) fn layouts(&self) -> &[TxnLayout] {
        self.layouts.get_or_init(|| {
            let mut table = Vec::with_capacity(self.txn_leaves as usize);
            let mut class = [NO_TXN; MAX_EVENTS];
            self.fill_layouts(0, 0, 0, &mut class, &mut table);
            debug_assert_eq!(table.len() as u64, self.txn_leaves);
            table
        })
    }

    /// Extend the layout prefix in `class` (threads before `t` and
    /// positions before `i` on thread `t` decided, `next` classes
    /// opened) to every completion, in walk order.
    fn fill_layouts(
        &self,
        t: usize,
        i: usize,
        next: u8,
        class: &mut [u8; MAX_EVENTS],
        table: &mut Vec<TxnLayout>,
    ) {
        if t == self.thread_slots.len() {
            table.push(TxnLayout {
                class: *class,
                atomic: false,
            });
            if self.atomic_txns && next > 0 {
                table.push(TxnLayout {
                    class: *class,
                    atomic: true,
                });
            }
            return;
        }
        let slots = &self.thread_slots[t];
        if i == slots.len() || !self.txns {
            return self.fill_layouts(t + 1, 0, next, class, table);
        }
        self.fill_layouts(t, i + 1, next, class, table);
        for j in i..slots.len() {
            for &e in &slots[i..=j] {
                class[e] = next;
            }
            self.fill_layouts(t, j + 1, next + 1, class, table);
        }
        for &e in &slots[i..] {
            class[e] = NO_TXN;
        }
    }
}

/// How the leaf path picks class representatives among the layouts it
/// emits.
pub(crate) enum Keep<'k> {
    /// The streaming engine's stateless automorphism test against these
    /// stage-2 automorphisms, with the txn-free half decided once per
    /// rf/co group ([`LayoutOrbit`]).
    Orbit(&'k [Vec<usize>]),
    /// A per-candidate filter (the reference path's canon-key dedup
    /// set, or a test's keep-everything).
    Each(&'k mut dyn FnMut(&Execution) -> bool),
}

/// The structure walk's leaf path: every transaction layout of one
/// completed rf/co group, switched in place into one execution.
///
/// A layout costs only what it changes: [`Execution::set_txn_layout`]
/// rewrites the classes and the txn index in their existing buffers
/// (dropped class buffers wait in `spare`), and the symmetry test
/// compares the txn-free structure once per group, not per layout. The
/// scratch state carries over from group to group and from one label
/// assignment to the next.
#[derive(Default)]
pub(crate) struct Leaves {
    orbit: LayoutOrbit,
    spare: Vec<Vec<EventId>>,
}

impl Leaves {
    /// Emit the kept layouts of the group `x` holds: rf and co are
    /// complete, and its transaction classes are overwritten.
    pub(crate) fn emit(
        &mut self,
        space: &StructureSpace,
        x: &mut Execution,
        keep: &mut Keep<'_>,
        visit: &mut dyn FnMut(&Execution),
    ) {
        let layouts = space.layouts();
        match keep {
            Keep::Orbit(auts) => {
                if !self.orbit.decide(x, auts) {
                    debug_assert!(!txmm_core::canon::struct_canonical(x, auts));
                    return;
                }
                for l in layouts {
                    x.set_txn_layout(&l.class, l.atomic, &mut self.spare);
                    debug_assert!(x.check_wf().is_ok(), "{:?}", x.check_wf());
                    let kept = self.orbit.canonical(x);
                    debug_assert_eq!(kept, txmm_core::canon::struct_canonical(x, auts));
                    if kept {
                        visit(x);
                    }
                }
            }
            Keep::Each(keep) => {
                for l in layouts {
                    x.set_txn_layout(&l.class, l.atomic, &mut self.spare);
                    debug_assert!(x.check_wf().is_ok(), "{:?}", x.check_wf());
                    if keep(x) {
                        visit(x);
                    }
                }
            }
        }
    }
}

// ---- The seed reference path -------------------------------------------

/// The seed generate-then-dedup enumeration: every kind / label /
/// structure combination is built and deduplicated after the fact
/// through a per-shape [`canon_key`] set, with no symmetry cut before
/// the leaves. Kept as the differential reference for the streaming
/// engine's incremental canonicalisation (same canonical classes, in
/// whatever representative the seed path met first) and as the bench
/// baseline it is measured against.
pub fn enumerate_reference(cfg: &EnumConfig, visit: &mut dyn FnMut(&Execution)) {
    let kinds = kinds_for(cfg);
    for shape in config_shapes(cfg) {
        let tids = shape_tids(&shape);
        let n = cfg.events;
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut leaves = Leaves::default();
        let mut kind_choice = vec![0usize; n];
        loop {
            let evkinds: Vec<EventKind> = kind_choice.iter().map(|&i| kinds[i]).collect();
            enumerate_labels(cfg, &tids, &evkinds, &mut |events| {
                let mut dedup = |x: &Execution| seen.insert(canon_key(x));
                let mut keep = Keep::Each(&mut dedup);
                let st = &mut PruneStats::default();
                pruned_structures(cfg, events, None, st, &mut leaves, &mut keep, visit);
            });
            // Odometer.
            let mut i = 0;
            loop {
                if i == n {
                    break;
                }
                kind_choice[i] += 1;
                if kind_choice[i] < kinds.len() {
                    break;
                }
                kind_choice[i] = 0;
                i += 1;
            }
            if i == n {
                break;
            }
        }
    }
}

// ---- Structure helpers --------------------------------------------------

fn subsets<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    let mut out = vec![vec![]];
    for item in items {
        let mut more = Vec::new();
        for s in &out {
            let mut s2 = s.clone();
            s2.push(item.clone());
            more.push(s2);
        }
        out.extend(more);
    }
    out
}

pub(crate) fn for_deps(
    _cfg: &EnumConfig,
    events: &[Event],
    slots: &[(usize, usize)],
    k: &mut dyn FnMut(&Rel, &Rel, &Rel),
) {
    let n = events.len();
    if slots.is_empty() {
        k(&Rel::empty(n), &Rel::empty(n), &Rel::empty(n));
        return;
    }
    // Each slot: 0 none, 1 addr (target access), 2 data (target write),
    // 3 ctrl.
    let opts: Vec<Vec<u8>> = slots
        .iter()
        .map(|&(_, b)| {
            let mut o = vec![0u8, 3];
            if events[b].kind.is_access() {
                o.push(1);
            }
            if events[b].kind == EventKind::Write {
                o.push(2);
            }
            o.sort_unstable();
            o
        })
        .collect();
    let mut choice = vec![0usize; slots.len()];
    loop {
        let mut addr = Rel::empty(n);
        let mut ctrl = Rel::empty(n);
        let mut data = Rel::empty(n);
        for (i, &(a, b)) in slots.iter().enumerate() {
            match opts[i][choice[i]] {
                1 => addr.add(a, b),
                2 => data.add(a, b),
                3 => ctrl.add(a, b),
                _ => {}
            }
        }
        k(&addr, &ctrl, &data);
        let mut i = 0;
        loop {
            if i == slots.len() {
                return;
            }
            choice[i] += 1;
            if choice[i] < opts[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Walk;
    use txmm_core::canon::{label_canonical, struct_canonical, struct_key, Label};
    use txmm_core::incr::{NoPrune, PruneOracle};
    use txmm_core::TxnClass;

    #[test]
    fn shapes_are_non_increasing() {
        let ss = shapes(4, 4, 4);
        for s in &ss {
            for w in s.windows(2) {
                assert!(w[0] >= w[1]);
            }
            assert_eq!(s.iter().sum::<usize>(), 4);
        }
        // Partitions of 4: 4, 3+1, 2+2, 2+1+1, 1+1+1+1.
        assert_eq!(ss.len(), 5);
    }

    #[test]
    fn interval_sets_count() {
        // k=1: {}, {[0,0]} = 2. k=2: {}, {[0,0]}, {[1,1]}, {[0,0],[1,1]},
        // {[0,1]} = 5.
        assert_eq!(interval_sets(1).len(), 2);
        assert_eq!(interval_sets(2).len(), 5);
    }

    #[test]
    fn tiny_enumeration_wellformed() {
        let cfg = EnumConfig {
            max_threads: 2,
            max_locs: 2,
            ..EnumConfig::hw(Arch::X86, 2)
        };
        let mut total = 0;
        Walk::new(&cfg).for_each(|x| {
            assert!(x.check_wf().is_ok());
            assert!(txmm_models::Arch::X86.validate(x).is_ok());
            total += 1;
        });
        assert!(total > 10, "got {total}");
    }

    /// The pre-table layout builder, kept test-side: per-thread
    /// interval covers in an odometer with thread 0 slowest, the atomic
    /// flag innermost, the empty atomic layout skipped.
    fn reference_layouts(
        thread_slots: &[Vec<usize>],
        txns: bool,
        atomic_txns: bool,
    ) -> Vec<Vec<TxnClass>> {
        fn go(
            t: usize,
            covers: &[Vec<Vec<(usize, usize)>>],
            acc: &mut Vec<Vec<(usize, usize)>>,
            out: &mut Vec<Vec<Vec<(usize, usize)>>>,
        ) {
            if t == covers.len() {
                out.push(acc.clone());
                return;
            }
            for ivs in &covers[t] {
                acc.push(ivs.clone());
                go(t + 1, covers, acc, out);
                acc.pop();
            }
        }
        let covers: Vec<Vec<Vec<(usize, usize)>>> = thread_slots
            .iter()
            .map(|slots| {
                if txns {
                    interval_sets(slots.len())
                } else {
                    vec![vec![]]
                }
            })
            .collect();
        let mut choices = Vec::new();
        go(0, &covers, &mut Vec::new(), &mut choices);
        let atomic_opts: &[bool] = if atomic_txns {
            &[false, true]
        } else {
            &[false]
        };
        let mut out = Vec::new();
        for ivs in &choices {
            for &atomic in atomic_opts {
                let classes: Vec<TxnClass> = ivs
                    .iter()
                    .enumerate()
                    .flat_map(|(t, ivs)| {
                        let slots = &thread_slots[t];
                        ivs.iter().map(move |&(i, j)| TxnClass {
                            events: slots[i..=j].to_vec(),
                            atomic,
                        })
                    })
                    .collect();
                if !(classes.is_empty() && atomic) {
                    out.push(classes);
                }
            }
        }
        out
    }

    #[test]
    fn layout_table_matches_the_reference_builder() {
        for n in 1..=5 {
            for shape in shapes(n, n, n) {
                let tids = shape_tids(&shape);
                let events: Vec<Event> = tids.iter().map(|&t| Event::write(t, 0)).collect();
                for (txns, atomic_txns) in
                    [(true, false), (true, true), (false, false), (false, true)]
                {
                    let cfg = EnumConfig {
                        txns,
                        atomic_txns,
                        ..EnumConfig::hw(Arch::Cpp, n)
                    };
                    let space = StructureSpace::new(&cfg, &events);
                    let want = reference_layouts(&space.thread_slots, txns, atomic_txns);
                    let table = space.layouts();
                    let product: u64 = if txns {
                        shape
                            .iter()
                            .map(|&k| interval_sets(k).len() as u64)
                            .product()
                    } else {
                        1
                    };
                    let count = if atomic_txns {
                        2 * product - 1
                    } else {
                        product
                    };
                    let ctx = format!("{shape:?} txns={txns} atomic={atomic_txns}");
                    assert_eq!(table.len() as u64, count, "{ctx}");
                    assert_eq!(space.txn_leaves(), count, "{ctx}");
                    assert_eq!(table.len(), want.len(), "{ctx}");
                    // Switch every layout into one execution, in order,
                    // with a shared spare pool, as the walk does.
                    let empty = Rel::empty(n);
                    let mut x = space.execution(&events, empty, empty, empty, empty);
                    let mut spare = Vec::new();
                    for (i, (l, classes)) in table.iter().zip(&want).enumerate() {
                        x.set_txn_layout(&l.class, l.atomic, &mut spare);
                        assert_eq!(x.txns(), &classes[..], "{ctx} layout {i}");
                        for e in 0..n {
                            let owner = classes.iter().position(|c| c.events.contains(&e));
                            assert_eq!(x.txn_of(e), owner, "{ctx} layout {i} event {e}");
                        }
                    }
                }
            }
        }
    }

    /// Splits a [`struct_key`] at the transaction tag: the txn-free
    /// prefix is everything before the `255, 6` marker (event ids and
    /// relation tags never reach 255).
    fn key_prefix(key: &[u8]) -> &[u8] {
        let at = key
            .windows(2)
            .position(|w| w == [255, 6])
            .expect("txn tag present");
        &key[..at]
    }

    /// The per-group symmetry test against the one-shot
    /// [`struct_canonical`], on every layout of every group of every
    /// label assignment with a non-trivial automorphism group. Returns
    /// (layouts compared, groups rejected whole, groups with a prefix
    /// tie), the last computed independently from split keys.
    fn check_layout_orbit(cfg: &EnumConfig) -> (u64, u64, u64) {
        let kinds = kinds_for(cfg);
        let shapes = config_shapes(cfg);
        let (mut layouts, mut rejected, mut tied) = (0u64, 0u64, 0u64);
        for sub in Frontier::new(cfg) {
            let shape = &shapes[sub.shape_idx];
            let evkinds: Vec<EventKind> =
                sub.kind_choice.iter().map(|&i| kinds[i as usize]).collect();
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
                    return;
                };
                if auts.len() < 2 {
                    return;
                }
                let mut orbit = LayoutOrbit::default();
                let mut group: Option<[Rel; 6]> = None;
                let mut accepted = false;
                let mut keep_all = |x: &Execution| {
                    let free = [*x.rf(), *x.co(), *x.addr(), *x.ctrl(), *x.data(), *x.rmw()];
                    if group != Some(free) {
                        group = Some(free);
                        accepted = orbit.decide(x, &auts);
                        rejected += u64::from(!accepted);
                        let identity: Vec<usize> = (0..auts[0].len()).collect();
                        let id_key = struct_key(x, &identity);
                        tied += u64::from(auts.iter().any(|p| {
                            *p != identity && key_prefix(&struct_key(x, p)) == key_prefix(&id_key)
                        }));
                    }
                    let got = accepted && orbit.canonical(x);
                    assert_eq!(got, struct_canonical(x, &auts), "{x:?} under {auts:?}");
                    layouts += 1;
                    false
                };
                let keep = &mut Keep::Each(&mut keep_all);
                let st = &mut PruneStats::default();
                pruned_structures(cfg, events, None, st, &mut leaves, keep, &mut |_| {});
            });
        }
        (layouts, rejected, tied)
    }

    fn orbit_spaces(events: usize) -> Vec<EnumConfig> {
        vec![
            EnumConfig::hw(Arch::X86, events),
            EnumConfig::hw(Arch::Power, events),
            EnumConfig {
                arch: Arch::Cpp,
                events,
                max_threads: 2,
                max_locs: 2,
                fences: false,
                deps: false,
                rmws: false,
                txns: true,
                attrs: true,
                atomic_txns: true,
            },
        ]
    }

    /// Every space must exercise both shortcuts: a group rejected on
    /// its prefix alone and a group whose prefix ties.
    fn assert_layout_orbit(bounds: std::ops::RangeInclusive<usize>) {
        for space in 0..orbit_spaces(1).len() {
            let mut totals = (0, 0, 0);
            for events in bounds.clone() {
                let (l, r, t) = check_layout_orbit(&orbit_spaces(events)[space]);
                totals = (totals.0 + l, totals.1 + r, totals.2 + t);
            }
            let (layouts, rejected, tied) = totals;
            let name = format!("{:?} |E| in {bounds:?}", orbit_spaces(1)[space].arch);
            assert!(layouts > 0, "{name}: no symmetric label assignment");
            assert!(rejected > 0, "{name}: no group rejected whole");
            assert!(tied > 0, "{name}: no prefix tie");
        }
    }

    #[test]
    fn layout_orbit_matches_struct_canonical() {
        assert_layout_orbit(1..=3);
    }

    #[test]
    #[ignore = "minutes in debug; the CI prune-smoke job runs it in release"]
    fn layout_orbit_matches_struct_canonical_at_four_events() {
        assert_layout_orbit(4..=4);
    }

    /// The size of the structure space over `events`, from the events
    /// alone: rmw subsets × dependency choices × rf sources × coherence
    /// orders × transaction layouts.
    fn structure_space_size(cfg: &EnumConfig, events: &[Event]) -> u64 {
        let n = events.len();
        let is = |e: usize, kind: EventKind| events[e].kind == kind;
        let same_thread = |a: usize, b: usize| events[a].tid == events[b].tid;
        let mut size = 1u64;
        if cfg.rmws {
            // po-adjacent same-location read→write pairs, atomic in C++.
            for a in 1..n {
                let (r, w) = (&events[a - 1], &events[a]);
                let atomic = r.attrs.contains(Attrs::ATO) && w.attrs.contains(Attrs::ATO);
                if is(a - 1, EventKind::Read)
                    && is(a, EventKind::Write)
                    && same_thread(a - 1, a)
                    && r.loc == w.loc
                    && (cfg.arch != Arch::Cpp || atomic)
                {
                    size *= 2;
                }
            }
        }
        let reads: Vec<usize> = (0..n).filter(|&e| is(e, EventKind::Read)).collect();
        if cfg.deps {
            // Per read and po-later event: none or ctrl, addr onto an
            // access, data onto a write.
            for &a in &reads {
                for b in (a + 1..n).filter(|&b| same_thread(a, b)) {
                    size *= 2
                        + u64::from(events[b].kind.is_access())
                        + u64::from(is(b, EventKind::Write));
                }
            }
        }
        let writes_at = |loc: Option<u8>| {
            (0..n)
                .filter(|&w| is(w, EventKind::Write) && events[w].loc == loc)
                .count() as u64
        };
        for &r in &reads {
            size *= 1 + writes_at(events[r].loc);
        }
        let mut locs: Vec<u8> = events.iter().filter_map(|e| e.loc).collect();
        locs.sort_unstable();
        locs.dedup();
        for loc in locs {
            size *= (1..=writes_at(Some(loc))).product::<u64>();
        }
        let layouts: u64 = if cfg.txns {
            let threads = events.iter().map(|e| e.tid as usize + 1).max().unwrap_or(0);
            (0..threads)
                .map(|t| {
                    interval_sets(events.iter().filter(|e| e.tid as usize == t).count()).len()
                        as u64
                })
                .product()
        } else {
            1
        };
        size * if cfg.atomic_txns {
            2 * layouts - 1
        } else {
            layouts
        }
    }

    /// Under [`NoPrune`] with a keep-everything filter, the structure
    /// walk over every label assignment visits exactly
    /// [`structure_space_size`] leaves, no two with the same structure.
    /// Every leaf lies in that space, so the walk covers it exactly.
    /// Both ways of walking without cuts are checked: no oracle (one
    /// partial candidate per label assignment) and `NoPrune` as the
    /// oracle (one per rmw and dependency choice). Returns the leaves
    /// visited.
    fn check_structure_bijection(cfg: &EnumConfig) -> u64 {
        let kinds = kinds_for(cfg);
        let shapes = config_shapes(cfg);
        let mut total = 0u64;
        for sub in Frontier::new(cfg) {
            let evkinds: Vec<EventKind> =
                sub.kind_choice.iter().map(|&i| kinds[i as usize]).collect();
            let tids = shape_tids(&shapes[sub.shape_idx]);
            let mut leaves = Leaves::default();
            enumerate_labels(cfg, &tids, &evkinds, &mut |events| {
                let size = structure_space_size(cfg, events);
                for oracle in [None, Some(&NoPrune as &dyn PruneOracle)] {
                    let mut seen = HashSet::new();
                    let mut visited = 0u64;
                    let st = &mut PruneStats::default();
                    let keep = &mut Keep::Each(&mut |_| true);
                    pruned_structures(cfg, events, oracle, st, &mut leaves, keep, &mut |x| {
                        visited += 1;
                        let structure =
                            (*x.rmw(), *x.addr(), *x.ctrl(), *x.data(), *x.rf(), *x.co());
                        assert!(
                            seen.insert((structure, x.txns().to_vec())),
                            "visited twice: {x:?}"
                        );
                    });
                    assert_eq!(visited, size, "{events:?}");
                    total += visited;
                }
            });
        }
        total
    }

    fn assert_structure_bijection(spaces: &[EnumConfig]) {
        for cfg in spaces {
            let leaves = check_structure_bijection(cfg);
            assert!(
                leaves > 0,
                "{:?} |E| = {}: empty space",
                cfg.arch,
                cfg.events
            );
        }
    }

    #[test]
    fn structure_walk_is_a_bijection() {
        for events in 1..=3 {
            assert_structure_bijection(&orbit_spaces(events));
        }
    }

    #[test]
    #[ignore = "minutes in debug; the CI prune-smoke job runs it in release"]
    fn structure_walk_is_a_bijection_at_four_events() {
        let spaces = orbit_spaces(4);
        assert_structure_bijection(&[spaces[0].clone(), spaces[2].clone()]);
    }

    #[test]
    fn enumeration_deterministic() {
        let walk = Walk::new(&EnumConfig::hw(Arch::X86, 3)).workers(1);
        assert_eq!(walk.count().0, walk.count().0);
    }

    #[test]
    fn streaming_emits_no_duplicates() {
        // The stateless incremental canonicalisation must emit exactly
        // one representative per canonical class.
        for cfg in [EnumConfig::hw(Arch::X86, 3), EnumConfig::hw(Arch::Sc, 3)] {
            let mut keys = HashSet::new();
            Walk::new(&cfg).for_each(|x| {
                assert!(keys.insert(canon_key(x)), "duplicate class emitted");
            });
        }
    }

    #[test]
    fn streaming_matches_reference_classes() {
        // The streaming engine and the seed generate-then-dedup path
        // emit the same canonical-key set (representatives may differ).
        let cfg = EnumConfig::hw(Arch::X86, 3);
        let mut stream_keys = HashSet::new();
        Walk::new(&cfg).for_each(|x| {
            stream_keys.insert(canon_key(x));
        });
        let mut ref_keys = HashSet::new();
        let mut ref_count = 0;
        enumerate_reference(&cfg, &mut |x| {
            ref_keys.insert(canon_key(x));
            ref_count += 1;
        });
        assert_eq!(stream_keys.len(), ref_keys.len());
        assert_eq!(stream_keys, ref_keys);
        assert_eq!(Walk::new(&cfg).count().0, ref_count);
    }

    #[test]
    fn parallel_enumeration_matches_sequential() {
        let cfg = EnumConfig::hw(Arch::X86, 3);
        let mut seq = Vec::new();
        Walk::new(&cfg).for_each(|x| seq.push(canon_key(x)));
        // Work-stealing walks: same candidates, and sorting by CandSeq
        // reproduces the sequential order exactly.
        let (mut states, _, _) = Walk::new(&cfg).workers(3).visit(
            |_| Vec::new(),
            |seq, x, s: &mut Vec<(CandSeq, Vec<u8>)>| s.push((seq, canon_key(x))),
        );
        let mut par: Vec<(CandSeq, Vec<u8>)> = states.drain(..).flatten().collect();
        par.sort();
        assert_eq!(par.len(), seq.len());
        for ((_, a), b) in par.iter().zip(&seq) {
            assert_eq!(a, b);
        }
        assert_eq!(
            Walk::new(&cfg).workers(3).count().0,
            Walk::new(&cfg).workers(1).count().0
        );
    }

    #[test]
    fn frontier_is_resumable_and_ordered() {
        let cfg = EnumConfig::hw(Arch::X86, 3);
        let mut frontier = Frontier::new(&cfg);
        let first: Vec<Subtree> = frontier.by_ref().take(3).collect();
        // Subtree sequence numbers are the resume position: pulling the
        // rest later continues exactly where the prefix stopped.
        let rest: Vec<Subtree> = frontier.collect();
        let seqs: Vec<u64> = first.iter().chain(&rest).map(|s| s.seq).collect();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
        // Walking the subtrees reproduces the sequential enumeration.
        let shapes = config_shapes(&cfg);
        let walk = Walk::new(&cfg);
        let mut lane = walk.lane();
        let mut n = 0usize;
        for sub in first.iter().chain(&rest) {
            walk.subtree(&shapes, sub, &mut lane, |_, _| n += 1);
        }
        assert_eq!(n, walk.count().0);
    }

    #[test]
    fn enumeration_contains_sb_shape() {
        // The 4-event store-buffering execution (both reads from init)
        // must appear in the x86 enumeration.
        let cfg = EnumConfig {
            max_threads: 2,
            max_locs: 2,
            fences: false,
            rmws: false,
            txns: false,
            ..EnumConfig::hw(Arch::X86, 4)
        };
        let sb_key = canon_key(&txmm_models::catalog::sb(None, false, false));
        let mut found = false;
        Walk::new(&cfg).for_each(|x| {
            if canon_key(x) == sb_key {
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn armv8_attrs_enumerated() {
        let cfg = EnumConfig {
            max_threads: 2,
            max_locs: 1,
            fences: false,
            deps: false,
            rmws: false,
            txns: false,
            ..EnumConfig::hw(Arch::Armv8, 2)
        };
        let mut with_acq = 0;
        Walk::new(&cfg).for_each(|x| {
            if !x.acq().is_empty() {
                with_acq += 1;
            }
        });
        assert!(with_acq > 0);
    }
}
