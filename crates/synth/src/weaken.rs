//! The ⊏ weakening order on executions (§4.2).
//!
//! `X ⊏ Y` holds when `X` is obtained from `Y` by one step of:
//!
//! (i)   removing an event (plus incident edges),
//! (ii)  removing a dependency edge (`addr`, `ctrl`, `data`, `rmw`),
//! (iii) downgrading an event (e.g. acquire-read → plain read), or
//! (v)   making the first or last event of a transaction
//!       non-transactional.
//!
//! Minimally-forbidden tests are those whose every one-step weakening is
//! consistent; maximally-allowed tests are the consistent one-step
//! weakenings of minimally-forbidden ones.

use txmm_core::Execution;
use txmm_models::Arch;

/// All one-step ⊏-predecessors of `x` (well-formed ones only).
pub(crate) fn weakenings(x: &Execution, arch: Arch) -> Vec<Execution> {
    let mut out = Vec::new();

    // (i) Remove an event.
    for e in 0..x.len() {
        let y = x.remove_event(e);
        if y.check_wf().is_ok() {
            out.push(y);
        }
    }

    // (ii) Remove a dependency edge.
    for (idx, rel) in [x.addr(), x.ctrl(), x.data(), x.rmw()]
        .into_iter()
        .enumerate()
    {
        for (a, b) in rel.pairs() {
            let mut y = x.clone();
            {
                let (addr, ctrl, data, rmw) = y.deps_mut();
                match idx {
                    0 => addr.remove(a, b),
                    1 => ctrl.remove(a, b),
                    2 => data.remove(a, b),
                    _ => rmw.remove(a, b),
                }
            }
            if y.check_wf().is_ok() {
                out.push(y);
            }
        }
    }

    // (iii) Downgrade an event.
    for e in 0..x.len() {
        for weaker in arch.downgrades(x.event(e)) {
            let mut y = x.clone();
            *y.event_mut(e) = weaker;
            if y.check_wf().is_ok() {
                out.push(y);
            }
        }
    }

    // (v) Strip the first or last event of a transaction. (The paper
    // avoids the middle so transactions stay contiguous.)
    for ti in 0..x.txns().len() {
        let class = &x.txns()[ti];
        let mut strip = |pos: usize| {
            let mut y = x.clone();
            let c = &mut y.txns_mut()[ti];
            c.events.remove(pos);
            if c.events.is_empty() {
                y.txns_mut().remove(ti);
            }
            if y.check_wf().is_ok() {
                out.push(y);
            }
        };
        strip(0);
        if class.events.len() > 1 {
            strip(class.events.len() - 1);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::ExecBuilder;
    use txmm_models::catalog;

    #[test]
    fn event_removal_counts() {
        let x = catalog::sb(None, false, false);
        let ws = weakenings(&x, Arch::X86);
        // 4 event removals, nothing else (no deps/attrs/txns).
        assert_eq!(ws.len(), 4);
        assert!(ws.iter().all(|w| w.len() == 3));
    }

    #[test]
    fn txn_stripping() {
        let x = catalog::sb(None, true, true);
        let ws = weakenings(&x, Arch::X86);
        // 4 removals + 2 strips per transaction (first/last).
        assert_eq!(ws.len(), 4 + 4);
        let stripped: Vec<_> = ws.iter().filter(|w| w.len() == 4).collect();
        assert_eq!(stripped.len(), 4);
        for w in stripped {
            // One transaction shrank to a single event.
            assert!(w.txns().iter().any(|t| t.events.len() == 1));
        }
    }

    #[test]
    fn singleton_txn_strip_removes_class() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        b.txn(&[w]);
        let x = b.build().unwrap();
        let ws = weakenings(&x, Arch::X86);
        // Removal of the event, plus one strip (leaving no txn).
        assert_eq!(ws.len(), 2);
        assert!(ws.iter().any(|w| w.len() == 1 && w.txns().is_empty()));
    }

    #[test]
    fn dep_removal() {
        let x = catalog::mp(None, true, false);
        let ws = weakenings(&x, Arch::Power);
        // 4 event removals + 1 addr removal.
        assert_eq!(ws.len(), 5);
        assert!(ws.iter().any(|w| w.len() == 4 && w.addr().is_empty()));
    }

    #[test]
    fn downgrade_acquire() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.read_acq(t0, 0);
        let x = b.build().unwrap();
        let ws = weakenings(&x, Arch::Armv8);
        // Removal + downgrade.
        assert_eq!(ws.len(), 2);
        assert!(ws.iter().any(|w| w.len() == 1 && w.acq().is_empty()));
    }

    #[test]
    fn rmw_edge_removal() {
        let x = catalog::rmw_txn(true);
        let ws = weakenings(&x, Arch::Power);
        assert!(ws.iter().any(|w| w.rmw().is_empty() && w.len() == 2));
    }
}
