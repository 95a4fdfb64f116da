//! Canonical forms for executions — the full-execution key plus the
//! **incremental** (prefix) machinery the streaming enumerator prunes
//! with.
//!
//! The seed pipeline canonicalised *after* generation: build every
//! execution, serialise it under all thread permutations
//! ([`canon_key`]), and drop duplicates through a `HashSet`. Almost all
//! of that work is wasted — a symmetry-duplicate is already visible
//! from the partially built candidate. This module factors the
//! canonical order into three **stages that mirror construction
//! order**, so each stage can reject a prefix before the stages below
//! it are ever enumerated:
//!
//! 1. **Kinds** ([`kind_rows_sorted`]): once event kinds are chosen
//!    (before locations, attributes or any relation exists), threads of
//!    equal size must carry non-decreasing kind rows. A violating
//!    prefix is pruned together with its entire location × attribute ×
//!    structure subtree.
//! 2. **Labels** ([`label_canonical`]): once locations and attributes
//!    complete the per-event labels, the label matrix must be the
//!    minimum of its orbit under kind-preserving thread permutations
//!    composed with first-occurrence location renumbering. Non-minimal
//!    label assignments are pruned before the relation cross-product;
//!    the survivors get their **automorphism group** back.
//! 3. **Structure** ([`struct_key`]): relations and transactions are
//!    only ambiguous under the (usually trivial) automorphism group, so
//!    a finished candidate is canonical iff its structure serialisation
//!    is minimal among its automorphic images — a stateless test, which
//!    is what lets the enumerator stream with **no dedup set at all**.
//!    The key splits at the transaction boundary into a txn-free prefix
//!    (rf, co, addr, ctrl, data, rmw) and a txn suffix. The walks emit
//!    every transaction layout of one rf/co assignment back to back, so
//!    [`LayoutOrbit`] compares the prefixes once for the whole group and
//!    only the automorphisms whose prefix ties the identity's compare
//!    suffixes, once per layout. [`struct_canonical`] is the one-shot
//!    form, kept as the test-side reference.
//!
//! Composing the stages picks exactly one representative per
//! [`canon_key`]-equivalence class of the generated space (threads are
//! laid out in non-increasing shape order, so every identifying
//! permutation is shape-preserving), which the differential suite
//! checks against the seed generate-then-dedup path.

use crate::event::{EventKind, Loc};
use crate::exec::Execution;
use crate::rel::Rel;
use crate::set::MAX_EVENTS;

/// First-occurrence location renumbering: one slot per [`Loc`], so any
/// location id a program names has one.
const LOCS: usize = Loc::MAX as usize + 1;

/// A fixed total order on event kinds for serialisation.
pub fn kind_tag(k: EventKind) -> u8 {
    use crate::event::Fence;
    match k {
        EventKind::Read => 0,
        EventKind::Write => 1,
        EventKind::Fence(f) => {
            2 + match f {
                Fence::MFence => 0,
                Fence::Sync => 1,
                Fence::Lwsync => 2,
                Fence::Isync => 3,
                Fence::Dmb => 4,
                Fence::DmbLd => 5,
                Fence::DmbSt => 6,
                Fence::Isb => 7,
                Fence::CppFence => 8,
            }
        }
        EventKind::Call(c) => 11 + c as u8,
    }
}

/// Serialise the execution under one thread permutation, relabelling
/// locations by first occurrence.
fn serialise(x: &Execution, perm: &[usize]) -> Vec<u8> {
    let nt = x.num_threads();
    // New event order: threads in `perm` order, po order within.
    let mut order: Vec<usize> = Vec::with_capacity(x.len());
    for &t in perm {
        order.extend(x.thread_events(t as u8));
    }
    let mut newid = vec![0usize; x.len()];
    for (new, &old) in order.iter().enumerate() {
        newid[old] = new;
    }
    // Location relabelling by first occurrence in the new order.
    let mut locmap = [u8::MAX; LOCS];
    let mut next = 0u8;
    let mut out = Vec::with_capacity(x.len() * 4 + 64);
    out.push(nt as u8);
    for &old in &order {
        let ev = x.event(old);
        let t_old = ev.tid as usize;
        let t_new = perm.iter().position(|&p| p == t_old).expect("tid in perm");
        out.push(t_new as u8);
        out.push(kind_tag(ev.kind));
        out.push(ev.attrs.bits());
        match ev.loc {
            Some(l) => {
                if locmap[l as usize] == u8::MAX {
                    locmap[l as usize] = next;
                    next += 1;
                }
                out.push(locmap[l as usize] + 1);
            }
            None => out.push(0),
        }
    }
    push_structure(&mut out, x, &newid);
    out
}

/// Append the relational part (rf/co/deps/rmw/txns) of `x` under the
/// event renumbering `newid`.
fn push_structure(out: &mut Vec<u8>, x: &Execution, newid: &[usize]) {
    push_prefix(out, x, newid);
    push_txns(out, x, newid);
}

/// Append the txn-free relations (rf, co, addr, ctrl, data, rmw) of
/// `x` under `newid`: a tagged, sorted pair list per relation. The
/// renamed relation's row-major pairs are the sorted renamed pairs, so
/// no list is collected. Every relation keeps its pair count under
/// renaming, so prefixes of one execution under any two renumberings
/// have the same length and the same tags at the same offsets.
fn push_prefix(out: &mut Vec<u8>, x: &Execution, newid: &[usize]) {
    let push_rel = |out: &mut Vec<u8>, tag: u8, rel: &Rel| {
        let mut renamed = Rel::empty(rel.size());
        for (a, b) in rel.pairs() {
            renamed.add(newid[a], newid[b]);
        }
        out.push(255);
        out.push(tag);
        for (a, b) in renamed.pairs() {
            out.push(a as u8);
            out.push(b as u8);
        }
    };
    push_rel(out, 0, x.rf());
    push_rel(out, 1, x.co());
    push_rel(out, 2, x.addr());
    push_rel(out, 3, x.ctrl());
    push_rel(out, 4, x.data());
    push_rel(out, 5, x.rmw());
}

/// Append the transaction classes of `x` under `newid`: sorted class
/// lists with atomic flags.
fn push_txns(out: &mut Vec<u8>, x: &Execution, newid: &[usize]) {
    let mut classes: Vec<(Vec<usize>, bool)> = x
        .txns()
        .iter()
        .map(|t| {
            let mut evs: Vec<usize> = t.events.iter().map(|&e| newid[e]).collect();
            evs.sort_unstable();
            (evs, t.atomic)
        })
        .collect();
    classes.sort();
    out.push(255);
    out.push(6);
    for (evs, atomic) in classes {
        out.push(254);
        out.push(atomic as u8);
        for e in evs {
            out.push(e as u8);
        }
    }
}

/// All permutations of `0..n`.
pub(crate) fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for pos in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(pos, n - 1);
            out.push(p);
        }
    }
    out
}

/// The canonical key: the lexicographically smallest serialisation over
/// all thread permutations. This is the *class invariant* — two
/// executions have equal keys iff they differ only by thread
/// permutation and location renaming.
pub fn canon_key(x: &Execution) -> Vec<u8> {
    let nt = x.num_threads();
    permutations(nt)
        .into_iter()
        .map(|p| serialise(x, &p))
        .min()
        .unwrap_or_default()
}

// ---- Stage 1: kinds ----------------------------------------------------

/// Stage-1 prefix check: with threads in non-increasing `shape` order
/// and `tags[e]` the [`kind_tag`] of slot `e` (slots thread-major, po
/// order within a thread), equal-size threads must carry
/// lexicographically non-decreasing kind rows. Kind choices failing
/// this can never serialise minimally, whatever locations, attributes
/// and relations follow — the whole subtree is pruned.
pub fn kind_rows_sorted(shape: &[usize], tags: &[u8]) -> bool {
    let mut off = 0usize;
    for w in shape.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a == b && tags[off..off + a] > tags[off + a..off + 2 * a] {
            return false;
        }
        off += a;
    }
    true
}

// ---- Stage 2: labels ---------------------------------------------------

/// Per-event labels of a partially built candidate: everything the
/// enumerator fixes before relations exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    /// [`kind_tag`] of the event kind.
    pub tag: u8,
    /// Attribute bits.
    pub attrs: u8,
    /// Location, if the event is an access.
    pub loc: Option<u8>,
}

/// Serialise the label matrix under a thread permutation with
/// first-occurrence location renumbering, into `out`.
fn serialise_labels(shape: &[usize], labels: &[Label], perm: &[usize], out: &mut Vec<u8>) {
    out.clear();
    let offsets = thread_offsets(shape);
    let mut locmap = [u8::MAX; LOCS];
    let mut next = 0u8;
    for &t in perm {
        for l in &labels[offsets[t]..offsets[t] + shape[t]] {
            out.push(l.tag);
            out.push(l.attrs);
            match l.loc {
                Some(loc) => {
                    if locmap[loc as usize] == u8::MAX {
                        locmap[loc as usize] = next;
                        next += 1;
                    }
                    out.push(locmap[loc as usize] + 1);
                }
                None => out.push(0),
            }
        }
    }
}

fn thread_offsets(shape: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(shape.len());
    let mut off = 0;
    for &s in shape {
        offsets.push(off);
        off += s;
    }
    offsets
}

/// The kind-row-stabilising permutations of `shape`'s threads: those
/// permuting only equal-size threads with equal kind rows. Stage-1
/// sorting makes equal rows adjacent, so the group is a product of
/// symmetric groups over runs of identical rows.
fn kind_stabiliser(shape: &[usize], tags: &[u8]) -> Vec<Vec<usize>> {
    let nt = shape.len();
    let offsets = thread_offsets(shape);
    let row = |t: usize| &tags[offsets[t]..offsets[t] + shape[t]];
    // Runs of threads with identical (size, kind row).
    let mut runs: Vec<(usize, usize)> = Vec::new(); // (start, len)
    let mut start = 0;
    for t in 1..=nt {
        if t == nt || shape[t] != shape[start] || row(t) != row(start) {
            runs.push((start, t - start));
            start = t;
        }
    }
    // Cartesian product of within-run permutations.
    let mut perms: Vec<Vec<usize>> = vec![Vec::with_capacity(nt)];
    for (s, len) in runs {
        let locals = permutations(len);
        let mut next = Vec::with_capacity(perms.len() * locals.len());
        for p in &perms {
            for q in &locals {
                let mut r = p.clone();
                r.extend(q.iter().map(|&i| s + i));
                next.push(r);
            }
        }
        perms = next;
    }
    perms
}

/// Stage-2 check: is the completed label assignment the canonical
/// representative of its orbit? Returns `None` to prune (some
/// kind-preserving permutation + location renumbering is strictly
/// smaller), or the **automorphism permutations** (those reproducing
/// the label matrix exactly; always contains the identity) for stage 3.
pub fn label_canonical(shape: &[usize], labels: &[Label]) -> Option<Vec<Vec<usize>>> {
    let tags: Vec<u8> = labels.iter().map(|l| l.tag).collect();
    let perms = kind_stabiliser(shape, &tags);
    if perms.len() == 1 {
        return Some(perms);
    }
    let mut id_ser = Vec::new();
    let identity: Vec<usize> = (0..shape.len()).collect();
    serialise_labels(shape, labels, &identity, &mut id_ser);
    let mut auts = Vec::with_capacity(1);
    let mut buf = Vec::new();
    for p in perms {
        if p == identity {
            auts.push(p);
            continue;
        }
        serialise_labels(shape, labels, &p, &mut buf);
        match buf.cmp(&id_ser) {
            std::cmp::Ordering::Less => return None,
            std::cmp::Ordering::Equal => auts.push(p),
            std::cmp::Ordering::Greater => {}
        }
    }
    Some(auts)
}

// ---- Stage 3: structure ------------------------------------------------

/// The event renumbering of a thread permutation: threads in `perm`
/// order, program order within each.
fn renumbering(x: &Execution, perm: &[usize]) -> [usize; MAX_EVENTS] {
    let mut newid = [0usize; MAX_EVENTS];
    let mut next = 0;
    for &t in perm {
        for old in x.thread_events(t as u8) {
            newid[old] = next;
            next += 1;
        }
    }
    newid
}

fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &t)| i == t)
}

/// Serialise only the relational part of `x` under a thread
/// permutation: the txn-free prefix, then the txn suffix. Labels are
/// invariant under stage-2 automorphisms, so this is all that can
/// distinguish automorphic images of a finished candidate.
pub fn struct_key(x: &Execution, perm: &[usize]) -> Vec<u8> {
    let newid = renumbering(x, perm);
    let mut out = Vec::with_capacity(x.len() * 4 + 32);
    push_structure(&mut out, x, &newid[..x.len()]);
    out
}

/// Stage-3 check: a finished candidate over a canonical label
/// assignment is the class representative iff its structure
/// serialisation is minimal among its automorphic images. Stateless —
/// the streaming enumerator carries no dedup set.
pub fn struct_canonical(x: &Execution, auts: &[Vec<usize>]) -> bool {
    if auts.len() <= 1 {
        return true;
    }
    let identity: Vec<usize> = (0..x.num_threads()).collect();
    let id_key = struct_key(x, &identity);
    auts.iter()
        .filter(|p| **p != identity)
        .all(|p| struct_key(x, p) >= id_key)
}

/// Stage 3 decided once per txn-free structure: the
/// [`struct_canonical`] verdict of every transaction layout of one
/// rf/co assignment.
///
/// Under every automorphism the txn-free prefix of [`struct_key`] has
/// the same length and the same tags at the same offsets (renaming
/// keeps pair counts), so the key comparison is decided by the prefix
/// unless the prefixes tie. [`LayoutOrbit::decide`] compares them once
/// per structure: a smaller image rejects every layout, a larger one
/// can never undercut the identity whatever the transactions, and only
/// ties are kept. [`LayoutOrbit::canonical`] then compares the txn
/// suffixes of the ties, once per layout. The scratch buffers are
/// reused across structures, so neither call allocates once warm
/// (suffix comparisons aside).
#[derive(Debug, Default)]
pub struct LayoutOrbit {
    /// Renumberings of the automorphisms whose prefix ties the
    /// identity's; the identity's own renumbering is `id`.
    ties: Vec<[usize; MAX_EVENTS]>,
    id: [usize; MAX_EVENTS],
    id_buf: Vec<u8>,
    buf: Vec<u8>,
}

impl LayoutOrbit {
    /// Decide the txn-free prefix of `x` against the stage-2
    /// automorphisms `auts` (identity included). `false` when some
    /// automorphic image has a strictly smaller prefix: no transaction
    /// layout over this structure is canonical. The transaction
    /// classes `x` currently holds are ignored.
    pub fn decide(&mut self, x: &Execution, auts: &[Vec<usize>]) -> bool {
        self.ties.clear();
        if auts.len() <= 1 {
            return true;
        }
        let n = x.len();
        let identity: [usize; MAX_EVENTS] = std::array::from_fn(|t| t);
        self.id = renumbering(x, &identity[..x.num_threads()]);
        self.id_buf.clear();
        push_prefix(&mut self.id_buf, x, &self.id[..n]);
        for p in auts.iter().filter(|p| !is_identity(p)) {
            let newid = renumbering(x, p);
            self.buf.clear();
            push_prefix(&mut self.buf, x, &newid[..n]);
            match self.buf.cmp(&self.id_buf) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Equal => self.ties.push(newid),
                std::cmp::Ordering::Greater => {}
            }
        }
        true
    }

    /// [`struct_canonical`] of `x`, one transaction layout over the
    /// structure the last [`LayoutOrbit::decide`] accepted.
    pub fn canonical(&mut self, x: &Execution) -> bool {
        if self.ties.is_empty() {
            return true;
        }
        let n = x.len();
        self.id_buf.clear();
        push_txns(&mut self.id_buf, x, &self.id[..n]);
        for newid in &self.ties {
            self.buf.clear();
            push_txns(&mut self.buf, x, &newid[..n]);
            if self.buf < self.id_buf {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ExecBuilder;

    #[test]
    fn thread_symmetry_collapses() {
        // SB written with threads in either order has the same key.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 0);
        b.read(t0, 1);
        let t1 = b.new_thread();
        b.write(t1, 1);
        b.read(t1, 0);
        let x1 = b.build().unwrap();

        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 1);
        b.read(t0, 0);
        let t1 = b.new_thread();
        b.write(t1, 0);
        b.read(t1, 1);
        let x2 = b.build().unwrap();

        assert_eq!(canon_key(&x1), canon_key(&x2));
    }

    #[test]
    fn location_relabelling() {
        // Same shape with locations renamed: same key.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 2);
        b.read(t0, 2);
        let x1 = b.build().unwrap();
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 0);
        b.read(t0, 0);
        let x2 = b.build().unwrap();
        assert_eq!(canon_key(&x1), canon_key(&x2));
    }

    #[test]
    fn different_rf_distinct() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(w, r);
        let x1 = b.build().unwrap();
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 0);
        b.read(t0, 0); // reads init instead
        let x2 = b.build().unwrap();
        assert_ne!(canon_key(&x1), canon_key(&x2));
    }

    #[test]
    fn txn_membership_distinct() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(w, r);
        b.txn(&[w, r]);
        let x1 = b.build().unwrap();
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(w, r);
        let x2 = b.build().unwrap();
        assert_ne!(canon_key(&x1), canon_key(&x2));
        // Atomic vs relaxed transactions are distinct too.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(w, r);
        b.txn_atomic(&[w, r]);
        let x3 = b.build().unwrap();
        assert_ne!(canon_key(&x1), canon_key(&x3));
    }

    #[test]
    fn every_location_id_has_a_slot() {
        // Location ids span all of `Loc`: the highest one relabels like
        // the lowest, in the full key and in the label stage alike.
        let build = |loc: Loc| {
            let mut b = ExecBuilder::new();
            let t0 = b.new_thread();
            let w = b.write(t0, loc);
            let r = b.read(t0, loc);
            b.rf(w, r);
            let t1 = b.new_thread();
            b.read(t1, loc);
            b.build().unwrap()
        };
        assert_eq!(canon_key(&build(Loc::MAX)), canon_key(&build(0)));
        assert_eq!(canon_key(&build(100)), canon_key(&build(0)));
        let w = |loc| Label {
            tag: 1,
            attrs: 0,
            loc: Some(loc),
        };
        let high = label_canonical(&[1, 1], &[w(Loc::MAX), w(100)]).map(|a| a.len());
        assert_eq!(
            high,
            label_canonical(&[1, 1], &[w(0), w(1)]).map(|a| a.len())
        );
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(0).len(), 1);
    }

    #[test]
    fn kind_rows_prefix_check() {
        // Shape (2, 2): rows [W R] vs [R R] are out of order (W=1 > R=0).
        assert!(!kind_rows_sorted(&[2, 2], &[1, 0, 0, 0]));
        assert!(kind_rows_sorted(&[2, 2], &[0, 0, 1, 0]));
        // Unequal sizes never compare.
        assert!(kind_rows_sorted(&[2, 1], &[1, 1, 0]));
        // Equal rows are fine (automorphism, handled later).
        assert!(kind_rows_sorted(&[1, 1], &[1, 1]));
        assert!(kind_rows_sorted(&[], &[]));
    }

    #[test]
    fn label_canonical_prunes_and_reports_automorphisms() {
        let w = |loc| Label {
            tag: 1,
            attrs: 0,
            loc: Some(loc),
        };
        // Two single-write threads on one shared location: swapping the
        // threads reproduces the matrix — an automorphism.
        let auts = label_canonical(&[1, 1], &[w(0), w(0)]).expect("canonical");
        assert_eq!(auts.len(), 2);
        // Distinct locations renumber to the same matrix either way:
        // both orders serialise to loc 1 then loc 2, so the swap is an
        // automorphism here too.
        let auts = label_canonical(&[1, 1], &[w(0), w(1)]).expect("canonical");
        assert_eq!(auts.len(), 2);
        // Attributes break the tie: (attrs 0, attrs 2) is minimal,
        // (attrs 2, attrs 0) is pruned.
        let wa = |attrs| Label {
            tag: 1,
            attrs,
            loc: Some(0),
        };
        assert_eq!(
            label_canonical(&[1, 1], &[wa(0), wa(2)]).map(|a| a.len()),
            Some(1)
        );
        assert!(label_canonical(&[1, 1], &[wa(2), wa(0)]).is_none());
        // Different kinds are out of the stabiliser: no pruning, no
        // non-trivial automorphisms.
        let r = Label {
            tag: 0,
            attrs: 0,
            loc: Some(0),
        };
        let auts = label_canonical(&[1, 1], &[w(0), r]).expect("canonical");
        assert_eq!(auts.len(), 1);
    }

    #[test]
    fn struct_canonical_picks_one_orbit_member() {
        // Two identical single-write threads, same location; the co
        // edge can point either way — exactly one direction survives.
        let build = |forward: bool| {
            let mut b = ExecBuilder::new();
            let t0 = b.new_thread();
            let w0 = b.write(t0, 0);
            let t1 = b.new_thread();
            let w1 = b.write(t1, 0);
            if forward {
                b.co(w0, w1);
            } else {
                b.co(w1, w0);
            }
            b.build().unwrap()
        };
        let auts = vec![vec![0, 1], vec![1, 0]];
        let a = struct_canonical(&build(true), &auts);
        let b = struct_canonical(&build(false), &auts);
        assert_ne!(a, b, "exactly one of the two co orientations survives");
        // Both directions share one canonical key.
        assert_eq!(canon_key(&build(true)), canon_key(&build(false)));
        // Trivial automorphism group: everything is canonical.
        assert!(struct_canonical(&build(true), &[vec![0, 1]]));
        assert!(struct_canonical(&build(false), &[vec![0, 1]]));
        // The per-structure split agrees: co decides in the prefix.
        let mut orbit = LayoutOrbit::default();
        assert_eq!(orbit.decide(&build(true), &auts), a);
        assert_eq!(orbit.decide(&build(false), &auts), b);
    }

    #[test]
    fn layout_orbit_compares_txns_only_on_prefix_ties() {
        // Two identical single-write threads on distinct locations: the
        // txn-free prefix ties under the swap, so the transactions
        // decide. Exactly one of "txn on thread 0" / "txn on thread 1"
        // is canonical, and the split agrees with the one-shot test.
        let build = |txn_on: Option<usize>| {
            let mut b = ExecBuilder::new();
            let t0 = b.new_thread();
            let w0 = b.write(t0, 0);
            let t1 = b.new_thread();
            let w1 = b.write(t1, 1);
            if let Some(t) = txn_on {
                b.txn(&[[w0, w1][t]]);
            }
            b.build().unwrap()
        };
        let auts = vec![vec![0, 1], vec![1, 0]];
        let mut orbit = LayoutOrbit::default();
        assert!(orbit.decide(&build(None), &auts), "prefixes tie");
        let mut kept = 0;
        for layout in [None, Some(0), Some(1)] {
            let x = build(layout);
            let got = orbit.canonical(&x);
            assert_eq!(got, struct_canonical(&x, &auts), "{layout:?}");
            kept += usize::from(got);
        }
        assert_eq!(kept, 2, "the empty layout and one of the two txns");
    }
}
