//! Binary relations over a small event universe, as dense bit-matrices.
//!
//! This module implements the relational algebra that axiomatic memory
//! models are written in (§2.1 of the paper and the `.cat` language):
//! union, intersection, difference, complement, inverse, composition
//! (`;`), reflexive (`?`), transitive (`+`) and reflexive-transitive
//! (`*`) closure, set-lifting `[s]`, and the `acyclic` / `irreflexive` /
//! `empty` consistency predicates.
//!
//! Executions are tiny (the paper's bounds stop at nine events), so a row
//! of a relation is a single [`Row`] word with one bit per possible
//! event, and every operation is a handful of word operations. Rows live
//! in a fixed inline array rather than a heap `Vec`: relation algebra is
//! completely allocation-free, which matters because enumeration and
//! model checking construct millions of intermediate relations. With
//! [`MAX_EVENTS`] = 16 and 16-bit rows a whole relation is 34 bytes, so
//! those temporaries cost little to zero, copy and compare.

use crate::event::EventId;
use crate::set::{EventSet, Row, MAX_EVENTS};
use std::fmt;

/// A binary relation over events `0..n`.
///
/// Invariant: `rows[n..]` is always all-zero and no row has a bit at or
/// past `n`, so the derived equality and hashing over the whole array
/// agree with the semantic relation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rel {
    n: u8,
    rows: [Row; MAX_EVENTS],
}

/// The row mask of a universe of `n` events.
fn row_mask(n: usize) -> Row {
    EventSet::universe(n).bits() as Row
}

impl Rel {
    /// The empty relation over `n` events.
    pub fn empty(n: usize) -> Rel {
        assert!(n <= MAX_EVENTS, "relation universe too large: {n}");
        Rel {
            n: n as u8,
            rows: [0; MAX_EVENTS],
        }
    }

    /// The full relation `n × n`.
    pub fn full(n: usize) -> Rel {
        let mut r = Rel::empty(n);
        r.rows[..n].fill(row_mask(n));
        r
    }

    /// The identity relation over `n` events.
    pub fn id(n: usize) -> Rel {
        let mut r = Rel::empty(n);
        for e in 0..n {
            r.add(e, e);
        }
        r
    }

    /// The identity restricted to a set: the `.cat` construct `[s]`.
    pub fn id_on(n: usize, s: EventSet) -> Rel {
        let mut r = Rel::empty(n);
        for e in s.iter() {
            if e < n {
                r.add(e, e);
            }
        }
        r
    }

    /// The Cartesian product `a × b`.
    pub fn cross(n: usize, a: EventSet, b: EventSet) -> Rel {
        let mut r = Rel::empty(n);
        let bb = b.bits() as Row & row_mask(n);
        for e in a.iter() {
            if e < n {
                r.rows[e] = bb;
            }
        }
        r
    }

    /// Build from explicit pairs.
    pub fn from_pairs<I: IntoIterator<Item = (EventId, EventId)>>(n: usize, pairs: I) -> Rel {
        let mut r = Rel::empty(n);
        for (a, b) in pairs {
            r.add(a, b);
        }
        r
    }

    /// The universe size.
    pub fn size(&self) -> usize {
        self.n as usize
    }

    /// The `n` live rows.
    fn live(&self) -> &[Row] {
        &self.rows[..self.size()]
    }

    /// Add the pair `(a, b)`.
    pub fn add(&mut self, a: EventId, b: EventId) {
        assert!(
            a < self.size() && b < self.size(),
            "pair ({a},{b}) out of range {}",
            self.n
        );
        self.rows[a] |= 1 << b;
    }

    /// Remove the pair `(a, b)`.
    pub fn remove(&mut self, a: EventId, b: EventId) {
        assert!(a < self.size() && b < self.size());
        self.rows[a] &= !(1 << b);
    }

    /// Membership test.
    pub fn contains(&self, a: EventId, b: EventId) -> bool {
        a < self.size() && b < self.size() && self.rows[a] & (1 << b) != 0
    }

    /// The successors of `a` as a set.
    pub fn row(&self, a: EventId) -> EventSet {
        EventSet::from_bits(self.rows[a].into())
    }

    /// The raw bit-row `i` (`i < n`), widened to the `u64` of an
    /// [`EventSet`]. With [`Rel::set_word`], lets hot interpreters (the
    /// `.cat` VM) compute row-wise into an existing relation instead of
    /// materialising temporaries.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        debug_assert!(i < self.size());
        self.rows[i].into()
    }

    /// Overwrite bit-row `i` with `w`, whose bits must lie below `n`.
    /// Restricted to `i < n` so the zero-tail invariant is preserved.
    #[inline]
    pub fn set_word(&mut self, i: usize, w: u64) {
        debug_assert!(i < self.size() && w >> self.n == 0);
        self.rows[i] = w as Row;
    }

    /// Copy another relation's live rows into this one (same universe).
    #[inline]
    pub fn copy_from(&mut self, src: &Rel) {
        debug_assert_eq!(self.n, src.n);
        let n = self.size();
        self.rows[..n].copy_from_slice(&src.rows[..n]);
    }

    fn zip(&self, other: &Rel, f: impl Fn(Row, Row) -> Row) -> Rel {
        assert_eq!(self.n, other.n, "relation universe mismatch");
        let mut r = Rel::empty(self.size());
        for i in 0..self.size() {
            r.rows[i] = f(self.rows[i], other.rows[i]);
        }
        r
    }

    /// Union.
    pub fn union(&self, other: &Rel) -> Rel {
        self.zip(other, |a, b| a | b)
    }

    /// Intersection.
    pub fn inter(&self, other: &Rel) -> Rel {
        self.zip(other, |a, b| a & b)
    }

    /// Difference (`\`).
    pub fn minus(&self, other: &Rel) -> Rel {
        self.zip(other, |a, b| a & !b)
    }

    /// Complement with respect to the full `n × n` relation (`¬`).
    pub fn complement(&self) -> Rel {
        let n = self.size();
        let mask = row_mask(n);
        let mut r = Rel::empty(n);
        for i in 0..n {
            r.rows[i] = !self.rows[i] & mask;
        }
        r
    }

    /// Inverse (`r⁻¹`).
    pub fn inverse(&self) -> Rel {
        let n = self.size();
        let mut r = Rel::empty(n);
        for a in 0..n {
            let mut bits = self.rows[a];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                r.rows[b] |= 1 << a;
            }
        }
        r
    }

    /// Relational composition (`r1 ; r2`).
    pub fn seq(&self, other: &Rel) -> Rel {
        assert_eq!(self.n, other.n, "relation universe mismatch");
        let n = self.size();
        let mut r = Rel::empty(n);
        for a in 0..n {
            let mut mids = self.rows[a];
            let mut out: Row = 0;
            while mids != 0 {
                let m = mids.trailing_zeros() as usize;
                mids &= mids - 1;
                out |= other.rows[m];
            }
            r.rows[a] = out;
        }
        r
    }

    /// Reflexive closure (`r?`).
    pub fn opt(&self) -> Rel {
        self.union(&Rel::id(self.size()))
    }

    /// Reflexive closure, in place.
    pub fn reflexive_close(&mut self) {
        for e in 0..self.size() {
            self.rows[e] |= 1 << e;
        }
    }

    /// Transitive closure (`r⁺`), via bit-parallel Warshall: `n²` word
    /// operations, no intermediate relations.
    pub fn plus(&self) -> Rel {
        let mut r = *self;
        r.transitive_close();
        r
    }

    /// Transitive closure, in place.
    pub fn transitive_close(&mut self) {
        let n = self.size();
        for k in 0..n {
            let through_k = self.rows[k];
            let bit: Row = 1 << k;
            for i in 0..n {
                if self.rows[i] & bit != 0 {
                    self.rows[i] |= through_k;
                }
            }
        }
    }

    /// Reflexive-transitive closure (`r*`).
    pub fn star(&self) -> Rel {
        let mut r = *self;
        r.transitive_close();
        r.reflexive_close();
        r
    }

    /// Keep only pairs whose source is in `s`.
    pub fn restrict_domain(&self, s: EventSet) -> Rel {
        let n = self.size();
        let mut r = Rel::empty(n);
        for a in s.iter() {
            if a < n {
                r.rows[a] = self.rows[a];
            }
        }
        r
    }

    /// Keep only pairs whose target is in `s`.
    pub fn restrict_range(&self, s: EventSet) -> Rel {
        let n = self.size();
        let mask = s.bits() as Row & row_mask(n);
        let mut r = Rel::empty(n);
        for i in 0..n {
            r.rows[i] = self.rows[i] & mask;
        }
        r
    }

    /// The set of sources.
    pub fn domain(&self) -> EventSet {
        let mut s = EventSet::EMPTY;
        for a in 0..self.size() {
            if self.rows[a] != 0 {
                s.insert(a);
            }
        }
        s
    }

    /// The set of targets.
    pub fn range(&self) -> EventSet {
        let mut bits: Row = 0;
        for &row in self.live() {
            bits |= row;
        }
        EventSet::from_bits(bits.into())
    }

    /// Is the relation empty? (`empty(r)` in `.cat`.)
    pub fn is_empty(&self) -> bool {
        self.live().iter().all(|&r| r == 0)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.live().iter().map(|r| r.count_ones() as usize).sum()
    }

    /// Does the relation contain a pair `(e, e)`?
    pub fn is_irreflexive(&self) -> bool {
        (0..self.size()).all(|e| self.rows[e] & (1 << e) == 0)
    }

    /// Is the relation free of cycles? (`acyclic(r)` ⟺ `irreflexive(r⁺)`.)
    ///
    /// Warshall over a scratch copy of the live rows, bailing out the
    /// moment any diagonal bit appears.
    pub fn is_acyclic(&self) -> bool {
        // Cheap pre-check: a reflexive pair is already a cycle.
        if !self.is_irreflexive() {
            return false;
        }
        let n = self.size();
        let mut rows = self.rows;
        for k in 0..n {
            let through_k = rows[k];
            let bit: Row = 1 << k;
            for (i, row) in rows.iter_mut().enumerate().take(n) {
                if *row & bit != 0 {
                    *row |= through_k;
                    if *row & (1 << i) != 0 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &Rel) -> bool {
        assert_eq!(self.n, other.n);
        self.live()
            .iter()
            .zip(other.live())
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Is the relation symmetric?
    pub fn is_symmetric(&self) -> bool {
        *self == self.inverse()
    }

    /// Is the relation transitive?
    pub fn is_transitive(&self) -> bool {
        self.seq(self).is_subset(self)
    }

    /// Iterate over all pairs, in row-major order.
    pub fn pairs(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        (0..self.size()).flat_map(move |a| self.row(a).iter().map(move |b| (a, b)))
    }

    /// Is `r` a strict total order when restricted to `s`?
    ///
    /// Used by well-formedness: `po` per thread, `co` per location.
    pub fn is_strict_total_order_on(&self, s: EventSet) -> bool {
        // Irreflexive on s.
        for e in s.iter() {
            if self.contains(e, e) {
                return false;
            }
        }
        // Transitive within s.
        let on_s = self.restrict_domain(s).restrict_range(s);
        if !on_s.is_transitive() {
            return false;
        }
        // Total: any two distinct elements related one way or the other.
        let members: Vec<_> = s.iter().collect();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if !self.contains(a, b) && !self.contains(b, a) {
                    return false;
                }
                if self.contains(a, b) && self.contains(b, a) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (a, b) in self.pairs() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "({a},{b})")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rel(n={}, {self})", self.n)
    }
}

/// Union of an iterator of relations (convenience for model definitions).
pub fn union_all<'a, I: IntoIterator<Item = &'a Rel>>(n: usize, rels: I) -> Rel {
    let mut acc = Rel::empty(n);
    for r in rels {
        acc = acc.union(r);
    }
    acc
}

/// The paper's `weaklift(r, t) = t ; (r \ t) ; t` (§3.3).
///
/// If `r` relates events in two different transactions, the lift relates
/// *every* event of the first transaction to *every* event of the second.
pub fn weaklift(r: &Rel, t: &Rel) -> Rel {
    t.seq(&r.minus(t)).seq(t)
}

/// The paper's `stronglift(r, t) = t? ; (r \ t) ; t?` (§3.3).
///
/// Like [`weaklift`], but the source and/or target may also be
/// non-transactional events.
pub fn stronglift(r: &Rel, t: &Rel) -> Rel {
    let topt = t.opt();
    topt.seq(&r.minus(t)).seq(&topt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: usize, pairs: &[(usize, usize)]) -> Rel {
        Rel::from_pairs(n, pairs.iter().copied())
    }

    #[test]
    fn basic_membership() {
        let mut rel = Rel::empty(4);
        rel.add(0, 1);
        rel.add(2, 3);
        assert!(rel.contains(0, 1));
        assert!(!rel.contains(1, 0));
        rel.remove(0, 1);
        assert!(!rel.contains(0, 1));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn composition() {
        let a = r(4, &[(0, 1), (1, 2)]);
        let b = r(4, &[(1, 3), (2, 0)]);
        let c = a.seq(&b);
        assert!(c.contains(0, 3));
        assert!(c.contains(1, 0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn closures() {
        let a = r(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = a.plus();
        assert!(p.contains(0, 3));
        assert!(!p.contains(3, 0));
        assert!(p.is_irreflexive());
        let s = a.star();
        assert!(s.contains(2, 2));
        let o = a.opt();
        assert!(o.contains(0, 0) && o.contains(0, 1) && !o.contains(0, 2));
    }

    #[test]
    fn acyclicity() {
        assert!(r(3, &[(0, 1), (1, 2)]).is_acyclic());
        assert!(!r(3, &[(0, 1), (1, 2), (2, 0)]).is_acyclic());
        assert!(!r(3, &[(1, 1)]).is_acyclic());
        assert!(Rel::empty(3).is_acyclic());
    }

    #[test]
    fn inverse_and_complement() {
        let a = r(3, &[(0, 1), (1, 2)]);
        let inv = a.inverse();
        assert!(inv.contains(1, 0) && inv.contains(2, 1));
        assert_eq!(inv.len(), 2);
        let c = a.complement();
        assert!(!c.contains(0, 1));
        assert!(c.contains(1, 0));
        assert_eq!(c.len(), 9 - 2);
        assert_eq!(a.complement().complement(), a);
    }

    #[test]
    fn set_lifting_and_cross() {
        let s = EventSet::from_iter([0, 2]);
        let idr = Rel::id_on(3, s);
        assert!(idr.contains(0, 0) && idr.contains(2, 2) && !idr.contains(1, 1));
        let x = Rel::cross(3, EventSet::singleton(0), EventSet::from_iter([1, 2]));
        assert!(x.contains(0, 1) && x.contains(0, 2) && !x.contains(1, 2));
    }

    #[test]
    fn restriction_domain_range() {
        let a = r(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = a.restrict_domain(EventSet::from_iter([0, 2]));
        assert!(d.contains(0, 1) && d.contains(2, 3) && !d.contains(1, 2));
        let g = a.restrict_range(EventSet::from_iter([2]));
        assert!(g.contains(1, 2) && !g.contains(0, 1));
        assert_eq!(a.domain(), EventSet::from_iter([0, 1, 2]));
        assert_eq!(a.range(), EventSet::from_iter([1, 2, 3]));
    }

    #[test]
    fn total_order_check() {
        let s = EventSet::from_iter([0, 1, 2]);
        assert!(r(3, &[(0, 1), (1, 2), (0, 2)]).is_strict_total_order_on(s));
        // Missing transitive pair (0,2): not a strict total order.
        assert!(!r(3, &[(0, 1), (1, 2)]).is_strict_total_order_on(s));
        // Reflexive: no.
        assert!(!r(3, &[(0, 1), (1, 2), (0, 2), (0, 0)]).is_strict_total_order_on(s));
        // Symmetric pair: no.
        assert!(!r(3, &[(0, 1), (1, 0), (1, 2), (0, 2)]).is_strict_total_order_on(s));
        // Restriction to a subset ignores outside elements.
        assert!(r(3, &[(0, 1)]).is_strict_total_order_on(EventSet::from_iter([0, 1])));
    }

    #[test]
    fn subset_symmetric_transitive() {
        let a = r(3, &[(0, 1)]);
        let b = r(3, &[(0, 1), (1, 2)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(r(3, &[(0, 1), (1, 0)]).is_symmetric());
        assert!(!a.is_symmetric());
        assert!(r(3, &[(0, 1), (1, 2), (0, 2)]).is_transitive());
        assert!(!b.is_transitive());
    }

    #[test]
    fn union_all_helper() {
        let a = r(3, &[(0, 1)]);
        let b = r(3, &[(1, 2)]);
        let u = union_all(3, [&a, &b]);
        assert!(u.contains(0, 1) && u.contains(1, 2));
    }

    #[test]
    fn display_pairs() {
        let a = r(3, &[(0, 1), (1, 2)]);
        assert_eq!(a.to_string(), "{(0,1), (1,2)}");
    }
}
