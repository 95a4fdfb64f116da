//! Binary relations over a small event universe, as blocked bit-matrices.
//!
//! This module implements the relational algebra that axiomatic memory
//! models are written in (§2.1 of the paper and the `.cat` language):
//! union, intersection, difference, complement, inverse, composition
//! (`;`), reflexive (`?`), transitive (`+`) and reflexive-transitive
//! (`*`) closure, set-lifting `[s]`, and the `acyclic` / `irreflexive` /
//! `empty` consistency predicates.
//!
//! Executions are tiny (the walks stop at seven events and the largest
//! served litmus program has nine), so a relation is a 2×2 matrix of
//! 8×8 bit blocks, one `u64` each: bit `8i + j` of a block is the pair
//! `(i, j)` of that block, so byte `i` is row `i`. A relation over at
//! most eight events lives entirely in the first block and the other
//! three stay zero. Composition and closure are then straight-line word
//! operations on that one block: one step per pivot `k < n`, each a
//! single multiply forming the outer product of the left operand's
//! column `k` and the right operand's row `k`, with no branch on the
//! data (pivots `k ≥ n` have an empty column and row, so a relation
//! over four events takes four steps). Relations over
//! 9–[`MAX_EVENTS`] events run the same block product over all four
//! blocks. The blocks live inline, so relation algebra is completely
//! allocation-free, which matters because enumeration and model
//! checking construct millions of intermediate relations; a whole
//! relation is 40 bytes.

use crate::event::EventId;
use crate::set::{EventSet, MAX_EVENTS};
use std::fmt;

const _: () = assert!(MAX_EVENTS <= 16, "a Rel holds a 2×2 matrix of 8×8 blocks");

/// Bit 0 of every byte: column 0 of a block.
const COL0: u64 = 0x0101_0101_0101_0101;

/// The diagonal of a block.
const DIAG: u64 = 0x8040_2010_0804_0201;

/// The bits of rows `0..r` and columns `0..c` of one block (`r, c ≤ 8`).
const fn square(r: usize, c: usize) -> u64 {
    let rows = if r >= 8 { !0 } else { (1u64 << (8 * r)) - 1 };
    rows & (COL0 * ((1u64 << c) - 1))
}

/// Per event count `n`, the four block masks of the `n × n` square.
const MASKS: [[u64; 4]; MAX_EVENTS + 1] = {
    let mut t = [[0; 4]; MAX_EVENTS + 1];
    let mut n = 0;
    while n <= MAX_EVENTS {
        let lo = if n < 8 { n } else { 8 };
        let hi = n - lo;
        t[n] = [
            square(lo, lo),
            square(lo, hi),
            square(hi, lo),
            square(hi, hi),
        ];
        n += 1;
    }
    t
};

/// Spread bit `i` of `x`'s low byte to bit `8i` (a column of a block),
/// in three halving steps.
#[inline]
fn spread(x: u64) -> u64 {
    let mut x = x & 0xff;
    x = (x | (x << 28)) & 0x0000_000f_0000_000f;
    x = (x | (x << 14)) & 0x0003_0003_0003_0003;
    (x | (x << 7)) & COL0
}

/// A block whose row `i` is all-ones iff bit `i` of `x`'s low byte is set.
#[inline]
fn fill_rows(x: u64) -> u64 {
    spread(x) * 0xff
}

/// A block whose every row is `x`'s low byte.
#[inline]
fn fill_cols(x: u64) -> u64 {
    (x & 0xff) * COL0
}

/// Gather bit `8i` of `x` (the only bits set) into bit `i`: the inverse
/// of [`spread`].
#[inline]
fn gather(x: u64) -> u64 {
    x.wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The OR of a block's rows.
#[inline]
fn fold_rows(mut x: u64) -> u64 {
    x |= x >> 32;
    x |= x >> 16;
    x |= x >> 8;
    x & 0xff
}

/// Bit `i` is set iff row `i` of the block is non-empty.
#[inline]
fn nonempty_rows(x: u64) -> u64 {
    let mut t = x | (x >> 4);
    t |= t >> 2;
    t |= t >> 1;
    gather(t & COL0)
}

/// The outer product of column `k` of block `a` and row `k` of block
/// `b`: row `i` is `b`'s row `k` iff `(i, k)` is in `a`. One multiply:
/// the column's bits sit 8 apart and the row is below 256, so the
/// partial products never overlap.
#[inline]
fn outer(a: u64, b: u64, k: usize) -> u64 {
    ((a >> k) & COL0) * ((b >> (8 * k)) & 0xff)
}

/// The Boolean product of two blocks over their first `P` pivots: one
/// outer product each, unrolled.
#[inline]
fn mul<const P: usize>(a: u64, b: u64) -> u64 {
    let mut c = 0;
    for k in 0..P {
        c |= outer(a, b, k);
    }
    c
}

/// The transitive closure of one block over its first `P` pivots:
/// Warshall, one pivot per step, unrolled.
#[inline]
fn close<const P: usize>(mut a: u64) -> u64 {
    for k in 0..P {
        a |= outer(a, a, k);
    }
    a
}

/// [`mul`] over `n ≤ 8` pivots. A relation over `n` events has an empty
/// column and row past `n` (the [`Rel`] invariant), so pivots `≥ n` add
/// nothing; each count runs its own unrolled loop.
#[inline]
fn mul_small(a: u64, b: u64, n: u8) -> u64 {
    match n {
        0 | 1 => mul::<1>(a, b),
        2 => mul::<2>(a, b),
        3 => mul::<3>(a, b),
        4 => mul::<4>(a, b),
        5 => mul::<5>(a, b),
        6 => mul::<6>(a, b),
        7 => mul::<7>(a, b),
        _ => mul::<8>(a, b),
    }
}

/// [`close`] over `n ≤ 8` pivots (see [`mul_small`]).
#[inline]
fn close_small(a: u64, n: u8) -> u64 {
    match n {
        0 | 1 => close::<1>(a),
        2 => close::<2>(a),
        3 => close::<3>(a),
        4 => close::<4>(a),
        5 => close::<5>(a),
        6 => close::<6>(a),
        7 => close::<7>(a),
        _ => close::<8>(a),
    }
}

/// The product of two 2×2 block matrices: eight block products. Kept
/// out of line so the one-block path of [`Rel::seq`] stays small.
#[inline(never)]
fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    std::array::from_fn(|k| {
        let (i, j) = (k >> 1, k & 1);
        mul::<8>(a[2 * i], b[j]) | mul::<8>(a[2 * i + 1], b[2 + j])
    })
}

/// Warshall over the first `n` pivots of a 2×2 block matrix, in place.
#[inline(never)]
fn close_wide(b: &mut [u64; 4], n: usize) {
    for k in 0..n {
        // Pivot k: block (i, j) gains column k of block (i, k/8) times
        // row k of block (k/8, j).
        let (kb, kk) = (k >> 3, k & 7);
        for i in 0..2 {
            let col = b[2 * i + kb];
            for j in 0..2 {
                b[2 * i + j] |= outer(col, b[2 * kb + j], kk);
            }
        }
    }
}

/// The transpose of one block (three rounds of delta swaps).
#[inline]
fn transpose(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^ t ^ (t << 28)
}

/// A binary relation over events `0..n`.
///
/// `b` is the 2×2 block matrix `[b[0] b[1]; b[2] b[3]]`: the pair
/// `(i, j)` is bit `8 (i mod 8) + (j mod 8)` of block
/// `2 ⌊i/8⌋ + ⌊j/8⌋`.
///
/// Invariant: no bit lies outside the `n × n` square (for `n ≤ 8` every
/// block but `b[0]` is zero), so the derived equality and hashing over
/// the whole array agree with the semantic relation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rel {
    n: u8,
    b: [u64; 4],
}

/// The block index and bit of the pair `(a, b)`.
#[inline]
fn at(a: EventId, b: EventId) -> (usize, u64) {
    (2 * (a >> 3) + (b >> 3), 1 << (8 * (a & 7) + (b & 7)))
}

impl Rel {
    /// The empty relation over `n` events.
    #[inline]
    pub fn empty(n: usize) -> Rel {
        assert!(n <= MAX_EVENTS, "relation universe too large: {n}");
        Rel {
            n: n as u8,
            b: [0; 4],
        }
    }

    /// The full relation `n × n`.
    #[inline]
    pub fn full(n: usize) -> Rel {
        let mut r = Rel::empty(n);
        r.b = MASKS[n];
        r
    }

    /// The identity relation over `n` events.
    #[inline]
    pub fn id(n: usize) -> Rel {
        let mut r = Rel::empty(n);
        r.reflexive_close();
        r
    }

    /// The identity restricted to a set: the `.cat` construct `[s]`.
    #[inline]
    pub fn id_on(n: usize, s: EventSet) -> Rel {
        let s = s.bits() & EventSet::universe(n).bits();
        let mut r = Rel::empty(n);
        r.b[0] = fill_cols(s) & DIAG;
        r.b[3] = fill_cols(s >> 8) & DIAG;
        r
    }

    /// The Cartesian product `a × b`.
    #[inline]
    pub fn cross(n: usize, a: EventSet, b: EventSet) -> Rel {
        let u = EventSet::universe(n).bits();
        let (a, b) = (a.bits() & u, b.bits() & u);
        // Each block is one outer product (see `outer`).
        let rows = [spread(a), spread(a >> 8)];
        let cols = [b & 0xff, (b >> 8) & 0xff];
        let mut r = Rel::empty(n);
        r.b = [
            rows[0] * cols[0],
            rows[0] * cols[1],
            rows[1] * cols[0],
            rows[1] * cols[1],
        ];
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
    #[inline]
    pub fn size(&self) -> usize {
        self.n as usize
    }

    /// Add the pair `(a, b)`.
    #[inline]
    pub fn add(&mut self, a: EventId, b: EventId) {
        assert!(
            a < self.size() && b < self.size(),
            "pair ({a},{b}) out of range {}",
            self.n
        );
        let (k, bit) = at(a, b);
        self.b[k] |= bit;
    }

    /// Remove the pair `(a, b)`.
    #[inline]
    pub fn remove(&mut self, a: EventId, b: EventId) {
        assert!(a < self.size() && b < self.size());
        let (k, bit) = at(a, b);
        self.b[k] &= !bit;
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, a: EventId, b: EventId) -> bool {
        if a >= self.size() || b >= self.size() {
            return false;
        }
        let (k, bit) = at(a, b);
        self.b[k] & bit != 0
    }

    /// The successors of `a` as a set.
    #[inline]
    pub fn row(&self, a: EventId) -> EventSet {
        let (k, sh) = (2 * (a >> 3), 8 * (a & 7));
        let lo = (self.b[k] >> sh) & 0xff;
        let hi = (self.b[k + 1] >> sh) & 0xff;
        EventSet::from_bits(lo | hi << 8)
    }

    /// The predecessors of `b` as a set.
    #[inline]
    pub fn col(&self, b: EventId) -> EventSet {
        let (k, sh) = (b >> 3, b & 7);
        let lo = gather((self.b[k] >> sh) & COL0);
        let hi = gather((self.b[k + 2] >> sh) & COL0);
        EventSet::from_bits(lo | hi << 8)
    }

    #[inline]
    fn zip(&self, other: &Rel, f: impl Fn(u64, u64) -> u64) -> Rel {
        assert_eq!(self.n, other.n, "relation universe mismatch");
        Rel {
            n: self.n,
            b: std::array::from_fn(|k| f(self.b[k], other.b[k])),
        }
    }

    /// Union.
    #[inline]
    pub fn union(&self, other: &Rel) -> Rel {
        self.zip(other, |a, b| a | b)
    }

    /// Intersection.
    #[inline]
    pub fn inter(&self, other: &Rel) -> Rel {
        self.zip(other, |a, b| a & b)
    }

    /// Difference (`\`).
    #[inline]
    pub fn minus(&self, other: &Rel) -> Rel {
        self.zip(other, |a, b| a & !b)
    }

    /// Complement with respect to the full `n × n` relation (`¬`).
    #[inline]
    pub fn complement(&self) -> Rel {
        self.zip(&Rel::full(self.size()), |a, m| !a & m)
    }

    /// Inverse (`r⁻¹`): transpose each block and swap the off-diagonal
    /// pair.
    #[inline]
    pub fn inverse(&self) -> Rel {
        let mut r = *self;
        r.b[0] = transpose(self.b[0]);
        if self.n > 8 {
            r.b[1] = transpose(self.b[2]);
            r.b[2] = transpose(self.b[1]);
            r.b[3] = transpose(self.b[3]);
        }
        r
    }

    /// Relational composition (`r1 ; r2`): the 2×2 block product.
    #[inline]
    pub fn seq(&self, other: &Rel) -> Rel {
        assert_eq!(self.n, other.n, "relation universe mismatch");
        let b = match self.n {
            n @ 0..=8 => [mul_small(self.b[0], other.b[0], n), 0, 0, 0],
            _ => mul_wide(&self.b, &other.b),
        };
        Rel { n: self.n, b }
    }

    /// Reflexive closure (`r?`).
    #[inline]
    pub fn opt(&self) -> Rel {
        let mut r = *self;
        r.reflexive_close();
        r
    }

    /// Reflexive closure, in place.
    #[inline]
    pub fn reflexive_close(&mut self) {
        let m = &MASKS[self.size()];
        self.b[0] |= m[0] & DIAG;
        self.b[3] |= m[3] & DIAG;
    }

    /// Transitive closure (`r⁺`), via Warshall over the blocks: one
    /// pivot per step, no intermediate relations.
    #[inline]
    pub fn plus(&self) -> Rel {
        let mut r = *self;
        r.transitive_close();
        r
    }

    /// Transitive closure, in place.
    #[inline]
    pub fn transitive_close(&mut self) {
        match self.n {
            n @ 0..=8 => self.b[0] = close_small(self.b[0], n),
            n => close_wide(&mut self.b, n as usize),
        }
    }

    /// Reflexive-transitive closure (`r*`).
    #[inline]
    pub fn star(&self) -> Rel {
        let mut r = *self;
        r.transitive_close();
        r.reflexive_close();
        r
    }

    /// Keep only pairs whose source is in `s`.
    #[inline]
    pub fn restrict_domain(&self, s: EventSet) -> Rel {
        let s = s.bits();
        let rows = [fill_rows(s), fill_rows(s >> 8)];
        let mut r = *self;
        for (k, w) in r.b.iter_mut().enumerate() {
            *w &= rows[k >> 1];
        }
        r
    }

    /// Keep only pairs whose target is in `s`.
    #[inline]
    pub fn restrict_range(&self, s: EventSet) -> Rel {
        let s = s.bits();
        let cols = [fill_cols(s), fill_cols(s >> 8)];
        let mut r = *self;
        for (k, w) in r.b.iter_mut().enumerate() {
            *w &= cols[k & 1];
        }
        r
    }

    /// The set of sources.
    #[inline]
    pub fn domain(&self) -> EventSet {
        let lo = nonempty_rows(self.b[0] | self.b[1]);
        let hi = nonempty_rows(self.b[2] | self.b[3]);
        EventSet::from_bits(lo | hi << 8)
    }

    /// The set of targets.
    #[inline]
    pub fn range(&self) -> EventSet {
        let lo = fold_rows(self.b[0] | self.b[2]);
        let hi = fold_rows(self.b[1] | self.b[3]);
        EventSet::from_bits(lo | hi << 8)
    }

    /// Is the relation empty? (`empty(r)` in `.cat`.)
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.b.iter().all(|&w| w == 0)
    }

    /// Number of pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.b.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Does the relation contain a pair `(e, e)`?
    #[inline]
    pub fn is_irreflexive(&self) -> bool {
        (self.b[0] | self.b[3]) & DIAG == 0
    }

    /// Is the relation free of cycles? (`acyclic(r)` ⟺ `irreflexive(r⁺)`.)
    #[inline]
    pub fn is_acyclic(&self) -> bool {
        self.plus().is_irreflexive()
    }

    /// Is `self ⊆ other`?
    #[inline]
    pub fn is_subset(&self, other: &Rel) -> bool {
        assert_eq!(self.n, other.n);
        self.b.iter().zip(&other.b).all(|(&a, &b)| a & !b == 0)
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
