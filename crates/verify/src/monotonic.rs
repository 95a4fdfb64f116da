//! Monotonicity checking (§8.1): introducing, enlarging or coalescing
//! transactions must never make an inconsistent execution consistent.
//!
//! The bounded check is one [`Walk::search`]: candidates are checked
//! on whichever worker enumerates them, and the earliest
//! counterexample in emission order ends the search.

use std::time::Duration;

use txmm_core::{Execution, TxnClass};
use txmm_models::Model;
use txmm_synth::{Probe, Walk};

use crate::CheckResult;

/// The outcome of a bounded monotonicity check: a violating pair
/// `(X, Y)` has `X` inconsistent, `Y = X` with more `stxn` edges, and
/// `Y` consistent.
pub type MonotonicityResult = CheckResult<(Execution, Execution)>;

/// One-step transaction *extensions* of `x`: the inverse of weakening
/// clause (v), plus coalescing of adjacent transactions.
pub fn txn_extensions(x: &Execution) -> Vec<Execution> {
    let mut out = Vec::new();
    let n = x.len();
    // Introduce: a new singleton transaction on an unclaimed event.
    for e in 0..n {
        if x.txn_of(e).is_none() {
            let mut y = x.clone();
            y.txns_mut().push(TxnClass {
                events: vec![e],
                atomic: false,
            });
            if y.check_wf().is_ok() {
                out.push(y);
            }
        }
    }
    // Enlarge: absorb the po-neighbour before the first or after the
    // last member; coalesce when the neighbour belongs to another txn.
    for ti in 0..x.txns().len() {
        let class = &x.txns()[ti];
        let tid = x.event(class.events[0]).tid;
        let thread = x.thread_events(tid);
        let first_pos = thread.index_of(class.events[0]).expect("member");
        let last = *class.events.last().expect("non-empty");
        let last_pos = thread.index_of(last).expect("member");
        let mut grow = |neighbour: usize, at_front: bool| {
            let mut y = x.clone();
            match x.txn_of(neighbour) {
                None => {
                    let c = &mut y.txns_mut()[ti];
                    if at_front {
                        c.events.insert(0, neighbour);
                    } else {
                        c.events.push(neighbour);
                    }
                }
                Some(tj) if tj != ti => {
                    // Coalesce classes ti and tj.
                    let other = y.txns_mut()[tj].events.clone();
                    let c = &mut y.txns_mut()[ti];
                    if at_front {
                        let mut evs = other;
                        evs.extend(c.events.iter().copied());
                        c.events = evs;
                    } else {
                        c.events.extend(other);
                    }
                    y.txns_mut().remove(tj);
                }
                _ => return,
            }
            if y.check_wf().is_ok() {
                out.push(y);
            }
        };
        if first_pos > 0 {
            grow(thread.get(first_pos - 1), true);
        }
        if last_pos + 1 < thread.len() {
            grow(thread.get(last_pos + 1), false);
        }
    }
    out
}

/// One candidate's worth of monotonicity checking; returns a violating
/// pair when the model is non-monotone at `x`.
fn violation_at(model: &dyn Model, x: &Execution) -> Option<(Execution, Execution)> {
    if model.consistent(x) {
        return None;
    }
    for y in txn_extensions(x) {
        if model.consistent(&y) {
            return Some((x.clone(), y));
        }
    }
    None
}

/// Bounded monotonicity check for one model over the candidates of
/// `walk`. The earliest counterexample in emission order is reported,
/// and `checked` counts the candidates up to it, at any worker count.
pub fn check_monotonicity(
    walk: &Walk,
    model: &dyn Model,
    budget: Option<Duration>,
) -> MonotonicityResult {
    walk.search(
        budget,
        |_| (),
        |x, _| match violation_at(model, x) {
            Some(pair) => Probe::Stop(pair),
            None => Probe::Pass,
        },
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::ExecBuilder;
    use txmm_models::{Arch, Armv8, Power, X86};
    use txmm_synth::{canon_key, EnumConfig};

    /// A space with rmws and transactions, and no dependencies or
    /// attributes; one thread and location is the §8.1 split-rmw space.
    fn space(arch: Arch, events: usize, threads: usize, fences: bool) -> Walk<'static> {
        Walk::new(&EnumConfig {
            arch,
            events,
            max_threads: threads,
            max_locs: threads,
            fences,
            deps: false,
            rmws: true,
            txns: true,
            attrs: false,
            atomic_txns: false,
        })
    }

    #[test]
    fn extensions_cover_intro_enlarge_coalesce() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.read(t0, 0);
        let c = b.read(t0, 0);
        let d = b.read(t0, 0);
        b.txn(&[a]);
        b.txn(&[c]);
        let _ = d;
        let x = b.build().unwrap();
        let exts = txn_extensions(&x);
        // Introduce on d; enlarge txn{a} to the right = coalesce with
        // txn{c}; enlarge txn{c} left = coalesce; enlarge txn{c} right
        // onto d.
        assert!(exts.iter().any(|y| y.txns().len() == 3));
        assert!(exts
            .iter()
            .any(|y| y.txns().len() == 1 && y.txns()[0].events.len() == 2));
        assert!(exts
            .iter()
            .any(|y| y.txns().iter().any(|t| t.events == vec![c, d])));
    }

    #[test]
    fn power_counterexample_at_two_events() {
        // §8.1: the split-rmw execution is inconsistent
        // (TxnCancelsRMW) but coalescing makes it consistent.
        let r = check_monotonicity(&space(Arch::Power, 2, 1, false), &Power::tm(), None);
        let (x, y) = r.counterexample.expect("paper finds a c'ex at |E| = 2");
        // The violation is TxnCancelsRMW: an rmw straddling a
        // transaction boundary, cured by growing/merging the txn.
        assert!(!x.rmw().is_empty());
        assert!(!Power::tm().consistent(&x));
        assert!(Power::tm().consistent(&y));
        assert!(
            y.txns().iter().any(|t| t.events.len() == 2),
            "rmw reunited in one txn"
        );
    }

    #[test]
    fn armv8_counterexample_at_two_events() {
        let r = check_monotonicity(&space(Arch::Armv8, 2, 1, false), &Armv8::tm(), None);
        assert!(r.counterexample.is_some());
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        // Violation-free sweep: three workers and one examine the same
        // space and agree exactly.
        let cfg = space(Arch::X86, 3, 2, false);
        let par = check_monotonicity(&cfg.clone().workers(3), &X86::tm(), None);
        let seq = check_monotonicity(&cfg.workers(1), &X86::tm(), None);
        assert_eq!(par.checked, seq.checked);
        assert_eq!(par.complete, seq.complete);
        assert!(par.counterexample.is_none() && seq.counterexample.is_none());
        // Violating sweep: both find the same earliest counterexample
        // after the same number of candidates.
        let cfg = space(Arch::Power, 2, 1, false);
        let par = check_monotonicity(&cfg.clone().workers(3), &Power::tm(), None);
        let seq = check_monotonicity(&cfg.workers(1), &Power::tm(), None);
        let keys = |r: &MonotonicityResult| {
            r.counterexample
                .as_ref()
                .map(|(x, y)| (canon_key(x), canon_key(y)))
        };
        assert!(seq.counterexample.is_some());
        assert_eq!(keys(&par), keys(&seq));
        assert_eq!(par.checked, seq.checked);
    }

    #[test]
    fn x86_monotone_at_small_bounds() {
        // Table 2: no counterexample for x86 (paper checks 6 events; we
        // check 3 here, the bench pushes further).
        let r = check_monotonicity(&space(Arch::X86, 3, 2, true), &X86::tm(), None);
        assert!(r.counterexample.is_none(), "x86 TM is monotone");
        assert!(r.complete);
        assert!(r.checked > 0);
    }
}
