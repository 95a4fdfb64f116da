//! The transaction-layout lattice of one thread structure, over which
//! a [`LeafChecker`](crate::LeafChecker) infers most layout verdicts.
//!
//! A layout cuts each thread into po-contiguous transactions, as the
//! walks enumerate them. Deleting one whole transaction of a layout
//! gives a *child*; adding one transaction over free events gives a
//! *parent*. When a model's consistency survives deleting any one whole
//! transaction ([`Model::survives_txn_deletion`](txmm_models::Model)),
//! a consistent layout vouches for its children and an inconsistent one
//! condemns its parents, so verdicts spread along these edges.

use txmm_core::prelude::Tid;
use txmm_core::{Execution, MAX_EVENTS, NO_TXN};

use crate::enumerate::interval_count;

/// Thread structures with more layouts than this are checked leaf by
/// leaf (a 7-event thread has 610 layouts, an 8-event one 1,597).
const MAX_LAYOUTS: u64 = 4096;

/// A layout's 2-bit code for one event: outside every transaction,
/// opening one, or continuing its po-predecessor's.
const OUTSIDE: u32 = 0;
const OPENS: u32 = 1;
const CONTINUES: u32 = 2;

/// No po-predecessor: the event opens its thread.
const FIRST: u8 = u8::MAX;

fn code(key: u32, e: usize) -> u32 {
    (key >> (2 * e)) & 3
}

/// Every interval layout of one thread structure, keyed by its codes
/// (2 bits per event, event 0 lowest), with each layout's parents and
/// children as index lists. Built once per structure; a group of
/// layouts looks its members up by key.
pub(crate) struct Lattice {
    /// Each event's immediate po-predecessor, or [`FIRST`].
    pred: [u8; MAX_EVENTS],
    /// Every layout's key, ascending: the txn-free layout, key 0, is
    /// layout 0.
    keys: Vec<u32>,
    /// Every layout's class table, for `Execution::set_txn_layout`.
    classes: Vec<[u8; MAX_EVENTS]>,
    /// Layout `i`'s parents are `parents[parent_at[i]..parent_at[i + 1]]`,
    /// the one adding the largest interval first.
    parent_at: Vec<u32>,
    parents: Vec<u16>,
    /// Layout `i`'s children, likewise.
    child_at: Vec<u32>,
    children: Vec<u16>,
}

impl Lattice {
    /// The lattice of `x`'s thread structure, or `None` when it has
    /// more than [`MAX_LAYOUTS`] layouts.
    pub(crate) fn new(x: &Execution) -> Option<Lattice> {
        let threads: Vec<Vec<usize>> = (0..x.num_threads())
            .map(|t| x.thread_events(t as Tid).collect())
            .collect();
        let count = threads
            .iter()
            .map(|t| interval_count(t.len()))
            .fold(1, u64::saturating_mul);
        if count > MAX_LAYOUTS {
            return None;
        }
        let mut pred = [FIRST; MAX_EVENTS];
        for t in &threads {
            for w in t.windows(2) {
                pred[w[1]] = w[0] as u8;
            }
        }
        let mut keys = Vec::with_capacity(count as usize);
        fill(&threads, 0, 0, 0, &mut keys);
        keys.sort_unstable();
        let index = |key: u32| keys.binary_search(&key).expect("an interval layout") as u16;

        let (mut parent_at, mut parents) = (vec![0], Vec::new());
        let (mut child_at, mut children) = (vec![0], Vec::new());
        let mut added: Vec<(usize, u32)> = Vec::new();
        let mut classes = Vec::with_capacity(keys.len());
        for &key in &keys {
            let mut class = [NO_TXN; MAX_EVENTS];
            let mut next = 0;
            for (e, c) in class.iter_mut().enumerate().take(x.len()) {
                if code(key, e) == OPENS {
                    *c = next;
                    next += 1;
                }
            }
            added.clear();
            for t in &threads {
                let mut i = 0;
                while i < t.len() {
                    match code(key, t[i]) {
                        OUTSIDE => {
                            // Every interval of the free run from `i`.
                            let end = (i..t.len())
                                .find(|&j| code(key, t[j]) != OUTSIDE)
                                .unwrap_or(t.len());
                            for s in i..end {
                                let mut k = key | OPENS << (2 * t[s]);
                                for (len, &e) in t[s..end].iter().enumerate() {
                                    if len > 0 {
                                        k |= CONTINUES << (2 * e);
                                    }
                                    added.push((len + 1, k));
                                }
                            }
                            i = end;
                        }
                        _ => {
                            // The transaction opening at `i`: its child
                            // clears it.
                            let mut k = key & !(3 << (2 * t[i]));
                            let mut j = i + 1;
                            while j < t.len() && code(key, t[j]) == CONTINUES {
                                class[t[j]] = class[t[j - 1]];
                                k &= !(3 << (2 * t[j]));
                                j += 1;
                            }
                            children.push(index(k));
                            i = j;
                        }
                    }
                }
            }
            added.sort_by_key(|&(len, _)| std::cmp::Reverse(len));
            parents.extend(added.iter().map(|&(_, k)| index(k)));
            parent_at.push(parents.len() as u32);
            child_at.push(children.len() as u32);
            classes.push(class);
        }
        Some(Lattice {
            pred,
            keys,
            classes,
            parent_at,
            parents,
            child_at,
            children,
        })
    }

    /// How many layouts the structure has.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The lattice index of `x`'s layout, or `None` when some class is
    /// atomic, or not one po-contiguous run of one thread.
    pub(crate) fn layout_of(&self, x: &Execution) -> Option<usize> {
        let mut key = 0u32;
        for t in x.txns() {
            let (&first, rest) = t.events.split_first()?;
            if t.atomic || code(key, first) != OUTSIDE {
                return None;
            }
            key |= OPENS << (2 * first);
            let mut last = first;
            for &e in rest {
                if usize::from(self.pred[e]) != last || code(key, e) != OUTSIDE {
                    return None;
                }
                key |= CONTINUES << (2 * e);
                last = e;
            }
        }
        self.keys.binary_search(&key).ok()
    }

    /// Layout `i`'s class table.
    pub(crate) fn classes(&self, i: usize) -> &[u8; MAX_EVENTS] {
        &self.classes[i]
    }

    /// The layouts with one transaction more than `i`, the one adding
    /// the largest interval first.
    pub(crate) fn parents(&self, i: usize) -> &[u16] {
        &self.parents[self.parent_at[i] as usize..self.parent_at[i + 1] as usize]
    }

    /// The layouts with one of `i`'s transactions deleted.
    pub(crate) fn children(&self, i: usize) -> &[u16] {
        &self.children[self.child_at[i] as usize..self.child_at[i + 1] as usize]
    }
}

/// Push every layout key extending `key` (threads before `t` and
/// positions before `i` on thread `t` decided).
fn fill(threads: &[Vec<usize>], t: usize, i: usize, key: u32, out: &mut Vec<u32>) {
    let Some(thread) = threads.get(t) else {
        out.push(key);
        return;
    };
    if i == thread.len() {
        return fill(threads, t + 1, 0, key, out);
    }
    fill(threads, t, i + 1, key, out);
    let mut k = key | OPENS << (2 * thread[i]);
    for (j, &e) in thread.iter().enumerate().skip(i) {
        if j > i {
            k |= CONTINUES << (2 * e);
        }
        fill(threads, t, j + 1, k, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::TxnClass;

    /// An execution of reads of one location, threads of the given
    /// lengths in slot order.
    fn shaped(lens: &[usize]) -> Execution {
        let mut b = txmm_core::ExecBuilder::new();
        for &k in lens {
            let t = b.new_thread();
            for _ in 0..k {
                b.read(t, 0);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn every_interval_layout_is_one_node_with_its_edges() {
        let mut x = shaped(&[3, 2]);
        let lattice = Lattice::new(&x).expect("65 layouts");
        assert_eq!(lattice.len(), 13 * 5);
        let mut spare = Vec::new();
        let txns = |x: &Execution| x.txns().len();
        for i in 0..lattice.len() {
            x.set_txn_layout(lattice.classes(i), false, &mut spare);
            assert!(x.check_wf().is_ok(), "layout {i}");
            assert_eq!(lattice.layout_of(&x), Some(i));
            let n = txns(&x);
            assert_eq!(lattice.children(i).len(), n);
            let mut sizes = Vec::new();
            for &p in lattice.parents(i) {
                let p = usize::from(p);
                assert!(lattice.children(p).contains(&(i as u16)));
                x.set_txn_layout(lattice.classes(p), false, &mut spare);
                assert_eq!(txns(&x), n + 1);
                sizes.push(x.txns().iter().map(|t| t.events.len()).sum::<usize>());
            }
            // The parent adding the largest interval comes first.
            assert!(
                sizes.windows(2).all(|w| w[0] >= w[1]),
                "layout {i}: {sizes:?}"
            );
        }
        assert_eq!(lattice.parents(0).len(), 6 + 3);
    }

    #[test]
    fn other_layouts_are_not_in_the_lattice() {
        let x = shaped(&[3, 1]);
        let lattice = Lattice::new(&x).expect("26 layouts");
        let with = |events: Vec<usize>, atomic| x.with_txns(vec![TxnClass { events, atomic }]);
        assert!(lattice.layout_of(&with(vec![0, 1], false)).is_some());
        assert_eq!(lattice.layout_of(&with(vec![0, 1], true)), None);
        assert_eq!(lattice.layout_of(&with(vec![0, 2], false)), None);
        assert_eq!(lattice.layout_of(&with(vec![2, 3], false)), None);
        // Past the cap there is no lattice: an 8-event thread has 1,597
        // layouts, two of them 1597².
        assert!(Lattice::new(&shaped(&[8])).is_some());
        assert!(Lattice::new(&shaped(&[8, 8])).is_none());
    }
}
