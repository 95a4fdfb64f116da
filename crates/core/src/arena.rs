//! An arena for executions: inline, `Copy`-cheap storage.
//!
//! [`crate::rel::Rel`] already keeps its bit blocks in a fixed inline
//! array so the whole relational algebra is allocation-free, but
//! [`Execution`] itself still heap-allocates its event and transaction
//! lists. That cost is invisible for a single check and dominant for a
//! long-lived serving process that interns thousands of executions.
//! This module closes the gap:
//!
//! * [`PackedExecution`] — a whole execution in one flat `Copy` value:
//!   events in a fixed `[Event; MAX_EVENTS]` array, sized to the same
//!   cap as `Rel`'s blocks, transaction classes as
//!   ([`EventSet`], atomic-flag) pairs. Packing and comparing are pure
//!   word operations; no allocation anywhere.
//! * [`ExecArena`] — an interning store of packed executions: equal
//!   executions share one [`ExecId`], so per-execution caches (verdicts,
//!   observability, analyses) can be keyed by a dense integer.
//!
//! Symmetry-aware (canonical) interning lives a layer up: callers that
//! want thread/location-permutation aliasing key the arena through a
//! canonical hash (see `txmm::Session`), while the arena itself dedups
//! on structural equality and is therefore always sound.

use std::collections::HashMap;

use crate::event::{Attrs, Event, EventKind};
use crate::exec::{Execution, TxnClass};
use crate::rel::Rel;
use crate::set::{EventSet, MAX_EVENTS};

/// Dense handle of an interned execution within one [`ExecArena`].
pub type ExecId = u32;

/// One transaction class, packed: the member set plus the atomic flag.
/// Program order within the class is recovered on unpacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PackedTxn {
    members: EventSet,
    atomic: bool,
}

const NO_TXN: PackedTxn = PackedTxn {
    members: EventSet::EMPTY,
    atomic: false,
};

/// The filler for unused event slots; never observed (all accessors
/// bound by `len`) but fixed so derived `Eq`/`Hash` see identical bytes
/// for identical executions.
const FILLER_EVENT: Event = Event {
    kind: EventKind::Read,
    tid: 0,
    loc: None,
    attrs: Attrs::NONE,
};

/// A whole execution in one inline `Copy` value (640 bytes): events and
/// transactions in fixed arrays, relations as the existing inline
/// [`Rel`] bit-matrices. Packing, copying, hashing and comparing never
/// allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedExecution {
    len: u8,
    events: [Event; MAX_EVENTS],
    po: Rel,
    addr: Rel,
    ctrl: Rel,
    data: Rel,
    rmw: Rel,
    rf: Rel,
    co: Rel,
    ntxns: u8,
    txns: [PackedTxn; MAX_EVENTS],
}

impl PackedExecution {
    /// Pack an execution. Allocation-free.
    pub(crate) fn pack(x: &Execution) -> PackedExecution {
        assert!(x.len() <= MAX_EVENTS, "execution too large to pack");
        assert!(x.txns().len() <= MAX_EVENTS, "too many transactions");
        let mut events = [FILLER_EVENT; MAX_EVENTS];
        events[..x.len()].copy_from_slice(x.events());
        let mut txns = [NO_TXN; MAX_EVENTS];
        for (i, t) in x.txns().iter().enumerate() {
            txns[i] = PackedTxn {
                members: EventSet::from_iter(t.events.iter().copied()),
                atomic: t.atomic,
            };
        }
        PackedExecution {
            len: x.len() as u8,
            events,
            po: *x.po(),
            addr: *x.addr(),
            ctrl: *x.ctrl(),
            data: *x.data(),
            rmw: *x.rmw(),
            rf: *x.rf(),
            co: *x.co(),
            ntxns: x.txns().len() as u8,
            txns,
        }
    }

    /// Number of events.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the packed execution has no events.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of transaction classes.
    pub(crate) fn num_txns(&self) -> usize {
        self.ntxns as usize
    }

    /// Reconstruct the heap [`Execution`]. Transaction members come out
    /// in program order, so `unpack(pack(x)) == x` for every well-formed
    /// execution.
    pub(crate) fn unpack(&self) -> Execution {
        let n = self.len();
        let txns = self.txns[..self.num_txns()]
            .iter()
            .map(|t| {
                let mut evs: Vec<usize> = t.members.iter().collect();
                // Members are same-thread; order them by po (ids are
                // po-ordered in every constructor this workspace ships,
                // but `from_parts` accepts any per-thread total order).
                evs.sort_by(|&a, &b| {
                    if self.po.contains(a, b) {
                        std::cmp::Ordering::Less
                    } else if self.po.contains(b, a) {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                });
                TxnClass {
                    events: evs,
                    atomic: t.atomic,
                }
            })
            .collect();
        Execution::from_parts(
            self.events[..n].to_vec(),
            self.po,
            self.addr,
            self.ctrl,
            self.data,
            self.rmw,
            self.rf,
            self.co,
            txns,
        )
    }
}

impl From<&Execution> for PackedExecution {
    fn from(x: &Execution) -> PackedExecution {
        PackedExecution::pack(x)
    }
}

/// An interning arena of [`PackedExecution`]s.
///
/// Structurally equal executions (same events, relations, transaction
/// classes) intern to the same [`ExecId`]; lookups go through a hash
/// index with full equality verification, so collisions cannot alias
/// distinct executions.
#[derive(Default)]
pub struct ExecArena {
    execs: Vec<PackedExecution>,
    index: HashMap<u64, Vec<ExecId>>,
}

impl ExecArena {
    /// An empty arena.
    pub fn new() -> ExecArena {
        ExecArena::default()
    }

    /// Number of distinct interned executions.
    pub fn len(&self) -> usize {
        self.execs.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.execs.is_empty()
    }

    fn hash_of(p: &PackedExecution) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        p.hash(&mut h);
        h.finish()
    }

    /// Intern a packed execution; returns its id and whether it was new.
    pub(crate) fn intern_packed(&mut self, p: PackedExecution) -> (ExecId, bool) {
        let h = Self::hash_of(&p);
        let bucket = self.index.entry(h).or_default();
        for &id in bucket.iter() {
            if self.execs[id as usize] == p {
                return (id, false);
            }
        }
        let id = self.execs.len() as ExecId;
        bucket.push(id);
        self.execs.push(p);
        (id, true)
    }

    /// Intern an execution; returns its id and whether it was new.
    pub fn intern(&mut self, x: &Execution) -> (ExecId, bool) {
        self.intern_packed(PackedExecution::pack(x))
    }

    /// The packed execution behind an id.
    pub(crate) fn get(&self, id: ExecId) -> &PackedExecution {
        &self.execs[id as usize]
    }

    /// Unpack the execution behind an id.
    pub fn unpack(&self, id: ExecId) -> Execution {
        self.get(id).unpack()
    }

    /// Iterate over `(id, packed)` pairs in interning order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ExecId, &PackedExecution)> {
        self.execs.iter().enumerate().map(|(i, p)| (i as ExecId, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ExecBuilder;
    use crate::event::Fence;

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
        b.rf(w0, r1);
        b.txn(&[w1, r1]);
        b.build().unwrap()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let x = sample();
        let p = PackedExecution::pack(&x);
        assert_eq!(p.len(), x.len());
        assert_eq!(p.num_txns(), x.txns().len());
        assert_eq!(p.unpack(), x);
    }

    #[test]
    fn roundtrip_preserves_txn_order_and_flags() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let c = b.read(t0, 0);
        b.rf(a, c);
        b.txn_atomic(&[a, c]);
        let x = b.build().unwrap();
        let y = PackedExecution::pack(&x).unpack();
        assert_eq!(y.txns()[0].events, vec![a, c]);
        assert!(y.txns()[0].atomic);
        assert_eq!(x, y);
    }

    #[test]
    fn empty_execution_roundtrips() {
        let x = ExecBuilder::new().build().unwrap();
        let p = PackedExecution::pack(&x);
        assert!(p.is_empty());
        assert_eq!(p.unpack(), x);
    }

    #[test]
    fn packed_equality_matches_execution_equality() {
        let x = sample();
        let y = sample();
        assert_eq!(PackedExecution::pack(&x), PackedExecution::pack(&y));
        let z = x.erase_txns();
        assert_ne!(PackedExecution::pack(&x), PackedExecution::pack(&z));
    }

    #[test]
    fn arena_interns_structurally() {
        let mut arena = ExecArena::new();
        let x = sample();
        let (a, fresh_a) = arena.intern(&x);
        let (b, fresh_b) = arena.intern(&sample());
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(a, b);
        assert_eq!(arena.len(), 1);
        let (c, fresh_c) = arena.intern(&x.erase_txns());
        assert!(fresh_c);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.unpack(a), x);
        assert_eq!(arena.iter().count(), 2);
    }

    #[test]
    fn unpacked_analysis_matches_original() {
        let x = sample();
        let y = PackedExecution::pack(&x).unpack();
        let ax = x.analysis();
        let ay = y.analysis();
        assert_eq!(ax.fr(), ay.fr());
        assert_eq!(ax.com(), ay.com());
        assert_eq!(ax.stxn(), ay.stxn());
        assert_eq!(ax.tfence(), ay.tfence());
    }
}
