//! Sequential consistency and transactional SC (§3.4, Fig. 4), plus the
//! weak/strong isolation predicates of §3.3.

use txmm_core::incr::{DeltaPlan, Lift, Obligation, PruneOracle};
use txmm_core::{stronglift, Execution, ExecutionAnalysis, Rel};

use crate::arch::Arch;
use crate::delta::com_feeds;
use crate::model::{Checker, Model};

/// The SC memory model: `acyclic(po ∪ com)` (Shasha & Snir).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sc;

impl Model for Sc {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn arch(&self) -> Arch {
        Arch::Sc
    }

    fn is_tm(&self) -> bool {
        false
    }

    fn axioms(&self, a: &ExecutionAnalysis<'_>, c: &mut Checker) {
        c.acyclic("Order", &sc_hb(a));
    }

    fn prune_oracle(&self, _txns_known: bool) -> Option<&dyn PruneOracle> {
        Some(self)
    }
}

// `po ∪ com` only grows with (rf, co, fr), so the full check prunes
// partial executions soundly.
impl PruneOracle for Sc {
    fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
        self.consistent_analysis(a)
    }

    fn coherence_gate(&self) -> bool {
        true // acyclic(po ∪ com) subsumes acyclic(po_loc ∪ com)
    }

    fn event_monotone(&self) -> bool {
        true // po and com are preserved pointwise under event growth
    }

    // The single axiom decomposes exactly: seed po, feed com edge by
    // edge. Exact — a clean detector IS the axiom.
    fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
        let mut plan = DeltaPlan::fallback(x, false);
        plan.exact = true;
        plan.obls.push(Obligation {
            seed: *x.po(),
            feed: com_feeds(),
            lift: Lift::No,
        });
        Some(plan)
    }
}

/// Transactional SC: SC plus `acyclic(stronglift(hb, stxn))` (Fig. 4).
///
/// TSC is the upper bound on the guarantees a reasonable TM
/// implementation provides; every architecture model of the paper lies
/// between [`weak_isolation`] and TSC.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tsc;

impl Model for Tsc {
    fn name(&self) -> &'static str {
        "TSC"
    }

    fn arch(&self) -> Arch {
        Arch::Sc
    }

    fn is_tm(&self) -> bool {
        true
    }

    fn axioms(&self, a: &ExecutionAnalysis<'_>, c: &mut Checker) {
        let hb = sc_hb(a);
        c.acyclic("Order", &hb);
        c.acyclic("TxnOrder", &stronglift(&hb, a.stxn()));
    }

    fn prune_oracle(&self, _txns_known: bool) -> Option<&dyn PruneOracle> {
        Some(self)
    }
}

// As for [`Sc`]; the TxnOrder lift is monotone in `hb` with `stxn`
// fixed, and empty while transactions are still unassigned.
impl PruneOracle for Tsc {
    fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
        self.consistent_analysis(a)
    }

    fn coherence_gate(&self) -> bool {
        true
    }

    fn event_monotone(&self) -> bool {
        true // as Sc; the lift only grows with hb and the txn classes
    }

    // Order as for Sc; TxnOrder = stronglift(po ∪ com, stxn)
    // distributes over the union, so its obligation seeds the lifted
    // `po` and strong-lifts each com edge on arrival. With no
    // transactions TxnOrder degenerates to Order and is omitted.
    fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
        let mut plan = DeltaPlan::fallback(x, false);
        plan.exact = true;
        plan.obls.push(Obligation {
            seed: *x.po(),
            feed: com_feeds(),
            lift: Lift::No,
        });
        let stxn = x.stxn();
        if !stxn.is_empty() {
            plan.obls.push(Obligation {
                seed: stronglift(x.po(), &stxn),
                feed: com_feeds(),
                lift: Lift::Strong,
            });
        }
        Some(plan)
    }
}

/// Weak isolation (§3.3): transactions are isolated from other
/// *transactions* — `acyclic(weaklift(com, stxn))`.
pub fn weak_isolation(x: &Execution) -> bool {
    x.analysis().weak_isol().is_acyclic()
}

/// Strong isolation (§3.3): transactions are also isolated from
/// non-transactional code — `acyclic(stronglift(com, stxn))`.
pub fn strong_isolation(x: &Execution) -> bool {
    x.analysis().strong_isol().is_acyclic()
}

/// The `hb` relation used by SC/TSC (exported for the metatheory code).
pub(crate) fn sc_hb(a: &ExecutionAnalysis<'_>) -> Rel {
    a.po().union(a.com())
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::ExecBuilder;

    /// Fig. 3 shapes: 3-event executions distinguishing weak from strong
    /// isolation. The two same-thread events form a transaction; the
    /// interfering event is non-transactional.
    mod fig3 {
        use super::*;

        /// (a) non-interference: R x; R x in a txn, external W x between
        /// the two reads (first read sees the initial value, second sees
        /// the interfering write).
        pub fn a() -> Execution {
            let mut b = ExecBuilder::new();
            let t0 = b.new_thread();
            let r1 = b.read(t0, 0);
            let r2 = b.read(t0, 0);
            let t1 = b.new_thread();
            let w = b.write(t1, 0);
            // r1 reads the initial value, so fr(r1, w); r2 observes w.
            b.rf(w, r2);
            b.txn(&[r1, r2]);
            b.build().unwrap()
        }

        /// (b) RMW-style: R x; W x in a txn, external W x in between.
        pub fn b() -> Execution {
            let mut bd = ExecBuilder::new();
            let t0 = bd.new_thread();
            let r = bd.read(t0, 0);
            let w1 = bd.write(t0, 0);
            let t1 = bd.new_thread();
            let w2 = bd.write(t1, 0);
            // r reads init, so fr(r, w2); w2 co-before w1.
            bd.co(w2, w1);
            bd.txn(&[r, w1]);
            bd.build().unwrap()
        }

        /// (c) intermediate-value leak: W x; W x in a txn, external R x
        /// observing the first write.
        pub fn c() -> Execution {
            let mut b = ExecBuilder::new();
            let t0 = b.new_thread();
            let w1 = b.write(t0, 0);
            let w2 = b.write(t0, 0);
            let t1 = b.new_thread();
            let r = b.read(t1, 0);
            b.rf(w1, r);
            b.co(w1, w2);
            b.txn(&[w1, w2]);
            b.build().unwrap()
        }

        /// (d) containment: W x; R x in a txn, the read observing an
        /// external write that is co-*after* the transaction's own write.
        pub fn d() -> Execution {
            let mut b = ExecBuilder::new();
            let t0 = b.new_thread();
            let w1 = b.write(t0, 0);
            let r = b.read(t0, 0);
            let t1 = b.new_thread();
            let w2 = b.write(t1, 0);
            b.rf(w2, r);
            b.co(w1, w2);
            b.txn(&[w1, r]);
            b.build().unwrap()
        }
    }

    #[test]
    fn fig3_weak_allows_strong_forbids() {
        for (name, x) in [
            ("a", fig3::a()),
            ("b", fig3::b()),
            ("c", fig3::c()),
            ("d", fig3::d()),
        ] {
            assert!(
                weak_isolation(&x),
                "fig3({name}) should satisfy weak isolation"
            );
            assert!(
                !strong_isolation(&x),
                "fig3({name}) should violate strong isolation"
            );
        }
    }

    #[test]
    fn fig3_sc_allows_tsc_forbids() {
        // All four are SC executions (Fig. 3's caption) but TSC forbids
        // them since TxnOrder subsumes StrongIsol.
        for x in [fig3::a(), fig3::b(), fig3::c(), fig3::d()] {
            assert!(Sc.consistent(&x));
            assert!(!Tsc.consistent(&x));
        }
    }

    #[test]
    fn fig3_interferer_in_txn_violates_weak() {
        // Wrapping the interfering event in its own transaction turns
        // each violation into a weak-isolation violation too.
        let x = fig3::c();
        let interferer = 2; // the external read
        let mut y = x.clone();
        y.txns_mut().push(txmm_core::TxnClass {
            events: vec![interferer],
            atomic: false,
        });
        assert!(!weak_isolation(&y));
    }

    #[test]
    fn sc_forbids_po_com_cycle() {
        // Message passing with stale data read: forbidden under SC.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let wx = b.write(t0, 0);
        let wy = b.write(t0, 1);
        let t1 = b.new_thread();
        let ry = b.read(t1, 1);
        let rx = b.read(t1, 0);
        b.rf(wy, ry); // sees the flag...
        let _ = (wx, rx); // ...but rx reads the initial x: fr(rx, wx).
        let x = b.build().unwrap();
        assert!(!Sc.consistent(&x));
        let v = Sc.check(&x);
        assert_eq!(v.violations(), ["Order"]);
    }

    #[test]
    fn sc_allows_sequential() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(w, r);
        let x = b.build().unwrap();
        assert!(Sc.consistent(&x));
        assert!(Tsc.consistent(&x));
    }

    #[test]
    fn tsc_no_txn_equals_sc() {
        // On transaction-free executions TSC coincides with SC.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 0);
        b.read(t0, 1);
        let t1 = b.new_thread();
        b.write(t1, 1);
        b.read(t1, 0);
        let x = b.build().unwrap(); // store-buffering, both reads read init
        assert_eq!(Sc.consistent(&x), Tsc.consistent(&x));
        assert!(!Tsc.consistent(&x));
    }

    #[test]
    fn strong_isolation_atomic_only_counts_stxnat() {
        // A strong-isolation violation through a *relaxed* transaction is
        // invisible to the atomic-only predicate.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w1 = b.write(t0, 0);
        let w2 = b.write(t0, 0);
        let t1 = b.new_thread();
        let r = b.read(t1, 0);
        b.rf(w1, r);
        b.co(w1, w2);
        b.txn(&[w1, w2]); // relaxed
        let x = b.build().unwrap();
        assert!(!strong_isolation(&x));
        assert!(x.analysis().strong_isol_atomic().is_acyclic());
    }
}
