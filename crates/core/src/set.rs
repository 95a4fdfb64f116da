//! Dense event sets over a small universe (≤ [`MAX_EVENTS`] events), as
//! bit-sets.

use crate::event::EventId;
use std::fmt;

/// The maximum number of events an execution may contain.
///
/// Sized to the executions the system handles: the paper's synthesis
/// bounds stop at |E| = 7 (x86) and 6 (Power), the walks use at most 7
/// events and the largest served litmus program has 9. Programs past
/// the cap are refused before any relation is built. [`crate::Rel`] is
/// laid out for this cap: a 2×2 matrix of 8×8 bit blocks.
pub const MAX_EVENTS: usize = 16;

/// A set of events, represented as a 64-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventSet(u64);

impl EventSet {
    /// The empty set.
    pub const EMPTY: EventSet = EventSet(0);

    /// The set `{0, 1, ..., n-1}`.
    pub fn universe(n: usize) -> EventSet {
        assert!(n <= MAX_EVENTS, "universe too large: {n}");
        EventSet((1u64 << n) - 1)
    }

    /// The singleton `{e}`.
    pub(crate) fn singleton(e: EventId) -> EventSet {
        assert!(e < MAX_EVENTS);
        EventSet(1u64 << e)
    }

    /// Build a set from an iterator of event ids.
    ///
    /// Deliberately shadows the trait method's name: `EventSet` also
    /// implements `FromIterator` (which delegates here), and call sites
    /// read better without a `<EventSet as FromIterator>` turbofish.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> EventSet {
        let mut s = EventSet::EMPTY;
        for e in iter {
            s.insert(e);
        }
        s
    }

    /// Insert an event.
    pub fn insert(&mut self, e: EventId) {
        assert!(e < MAX_EVENTS);
        self.0 |= 1u64 << e;
    }

    /// Remove an event.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, e: EventId) {
        assert!(e < MAX_EVENTS);
        self.0 &= !(1u64 << e);
    }

    /// Membership test.
    pub fn contains(self, e: EventId) -> bool {
        e < MAX_EVENTS && self.0 & (1u64 << e) != 0
    }

    /// Set union.
    pub fn union(self, other: EventSet) -> EventSet {
        EventSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn inter(self, other: EventSet) -> EventSet {
        EventSet(self.0 & other.0)
    }

    /// Set difference.
    pub fn minus(self, other: EventSet) -> EventSet {
        EventSet(self.0 & !other.0)
    }

    /// Complement with respect to a universe of `n` events.
    pub fn complement(self, n: usize) -> EventSet {
        EventSet(!self.0).inter(EventSet::universe(n))
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of events in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is `self ⊆ other`?
    pub(crate) fn is_subset(self, other: EventSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Do the sets share an element?
    pub fn intersects(self, other: EventSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterate over members in increasing order.
    pub fn iter(self) -> impl Iterator<Item = EventId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let e = bits.trailing_zeros() as EventId;
                bits &= bits - 1;
                Some(e)
            }
        })
    }

    /// Raw bit-mask (used by relation code).
    pub(crate) fn bits(self) -> u64 {
        self.0
    }

    /// Construct from a raw bit-mask.
    pub fn from_bits(bits: u64) -> EventSet {
        EventSet(bits)
    }
}

impl fmt::Display for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for e in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<EventId> for EventSet {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> EventSet {
        EventSet::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = EventSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(5);
        assert!(s.contains(3) && s.contains(5) && !s.contains(4));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn universe_and_complement() {
        let u = EventSet::universe(5);
        assert_eq!(u.len(), 5);
        let s = EventSet::from_iter([0, 2, 4]);
        let c = s.complement(5);
        assert_eq!(c, EventSet::from_iter([1, 3]));
        assert_eq!(EventSet::universe(MAX_EVENTS).len(), MAX_EVENTS);
    }

    #[test]
    fn algebra() {
        let a = EventSet::from_iter([0, 1, 2]);
        let b = EventSet::from_iter([2, 3]);
        assert_eq!(a.union(b), EventSet::from_iter([0, 1, 2, 3]));
        assert_eq!(a.inter(b), EventSet::singleton(2));
        assert_eq!(a.minus(b), EventSet::from_iter([0, 1]));
        assert!(a.intersects(b));
        assert!(EventSet::singleton(2).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn iteration_order() {
        let s = EventSet::from_iter([7, 1, 4]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![1, 4, 7]);
    }

    #[test]
    fn display() {
        let s = EventSet::from_iter([1, 2]);
        assert_eq!(s.to_string(), "{1,2}");
        assert_eq!(EventSet::EMPTY.to_string(), "{}");
    }
}
