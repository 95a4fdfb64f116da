//! The ARMv8 memory model with the proposed TM extension (Fig. 8).
//!
//! The baseline is the official multicopy-atomic axiomatic model
//! (Deacon's `aarch64.cat`, Pulte et al. POPL 2018): ordered-before
//! `ob = come ∪ dob ∪ aob ∪ bob`, required acyclic. The paper's TM
//! extension (unofficial, based on a proposal considered within ARM
//! Research) adds `tfence` to `ob`, plus `StrongIsol`, `TxnOrder` and
//! `TxnCancelsRMW`.

use txmm_core::incr::{ComposeRule, DeltaPlan, EdgeKind, EdgeSel, Lift, Obligation, PruneOracle};
use txmm_core::{stronglift, union_all, Execution, ExecutionAnalysis, Fence, MemoKey, Rel};

use crate::arch::Arch;
use crate::delta::{com_feeds, come_feeds};
use crate::model::{Checker, Model};

/// The ARMv8 model; `tm` selects the transactional extension.
#[derive(Debug, Clone, Copy)]
pub struct Armv8 {
    /// Interpret transactions?
    pub tm: bool,
}

impl Armv8 {
    /// The transactional model.
    pub fn tm() -> Armv8 {
        Armv8 { tm: true }
    }

    /// The non-transactional baseline.
    pub fn base() -> Armv8 {
        Armv8 { tm: false }
    }

    /// Dependency-ordered-before (elided in Fig. 8; from `aarch64.cat`).
    pub(crate) fn dob(a: &ExecutionAnalysis<'_>) -> Rel {
        let n = a.len();
        let po = a.po();
        let idw = Rel::id_on(n, a.writes());
        let idr = Rel::id_on(n, a.reads());
        let idisb = Rel::id_on(n, a.exec().fence_events(Fence::Isb));
        let addr = a.addr();
        let data = a.data();
        // ARMv8 dependencies order only when sourced at a read: a ctrl
        // from a store-exclusive's result does NOT order later accesses
        // (that is exactly the Example 1.1 / Appendix B relaxation).
        let ctrl = &Rel::id_on(n, a.reads()).seq(a.ctrl());
        let addr_po = addr.seq(po);
        union_all(
            n,
            [
                addr,
                data,
                &ctrl.seq(&idw),
                &ctrl.union(&addr_po).seq(&idisb).seq(po).seq(&idr),
                &addr.seq(po).seq(&idw),
                &ctrl.union(data).seq(a.coi()),
                &addr.union(data).seq(a.rfi()),
            ],
        )
    }

    /// Atomic-ordered-before: `aob = rmw ∪ [range(rmw)] ; rfi ; [A]`.
    pub(crate) fn aob(a: &ExecutionAnalysis<'_>) -> Rel {
        let n = a.len();
        let idwx = Rel::id_on(n, a.rmw().range());
        let ida = Rel::id_on(n, a.acq());
        a.rmw().union(&idwx.seq(a.rfi()).seq(&ida))
    }

    /// Barrier-ordered-before (from `aarch64.cat`).
    pub(crate) fn bob(a: &ExecutionAnalysis<'_>) -> Rel {
        let n = a.len();
        let po = a.po();
        let iddmb = Rel::id_on(n, a.exec().fence_events(Fence::Dmb));
        let iddmbld = Rel::id_on(n, a.exec().fence_events(Fence::DmbLd));
        let iddmbst = Rel::id_on(n, a.exec().fence_events(Fence::DmbSt));
        let ida = Rel::id_on(n, a.acq().inter(a.reads()));
        let idl = Rel::id_on(n, a.rel_events().inter(a.writes()));
        let idr = Rel::id_on(n, a.reads());
        let idw = Rel::id_on(n, a.writes());
        union_all(
            n,
            [
                &po.seq(&iddmb).seq(po),
                &idl.seq(po).seq(&ida),
                &idr.seq(po).seq(&iddmbld).seq(po),
                &ida.seq(po),
                &idw.seq(po).seq(&iddmbst).seq(po).seq(&idw),
                &po.seq(&idl),
                &po.seq(&idl).seq(a.coi()),
            ],
        )
    }

    /// Ordered-before: `ob = come ∪ dob ∪ aob ∪ bob (∪ tfence)`.
    ///
    /// The `come ∪ dob ∪ aob ∪ bob` part is txn-independent, so it is
    /// memoised under `MemoKey::Armv8Ob` and shared across the transaction
    /// layouts of one rf/co structure; only the `tfence` union varies.
    pub(crate) fn ob(&self, a: &ExecutionAnalysis<'_>) -> Rel {
        let fixed = a.memo(MemoKey::Armv8Ob, || {
            union_all(
                a.len(),
                [a.come(), &Armv8::dob(a), &Armv8::aob(a), &Armv8::bob(a)],
            )
        });
        if self.tm {
            fixed.union(a.tfence())
        } else {
            fixed
        }
    }
}

impl Model for Armv8 {
    fn name(&self) -> &'static str {
        if self.tm {
            "armv8-tm"
        } else {
            "armv8"
        }
    }

    fn arch(&self) -> Arch {
        Arch::Armv8
    }

    fn is_tm(&self) -> bool {
        self.tm
    }

    fn axioms(&self, a: &ExecutionAnalysis<'_>, c: &mut Checker) {
        let ob = self.ob(a);
        c.require("Coherence", a.coherent());
        c.acyclic("Order", &ob);
        c.empty("RMWIsol", a.rmw_isol());
        if self.tm {
            c.acyclic("StrongIsol", a.strong_isol());
            c.acyclic("TxnOrder", &stronglift(&ob, a.stxn()));
            c.empty("TxnCancelsRMW", a.txn_cancels_rmw());
        }
    }

    fn prune_oracle(&self, _txns_known: bool) -> Option<&dyn PruneOracle> {
        Some(self)
    }

    /// Deleting a transaction `T` shrinks `stxn` and `tfence`, so `ob`
    /// and `rmw ∩ tfence⁺` (TxnCancelsRMW) shrink. StrongIsol and
    /// TxnOrder lift `com` and `ob` strongly, and a lift gains only the
    /// edges inside `T`: a cycle through them shortcuts through `T`'s
    /// old lifted edges, and a cycle of them alone breaks Coherence or
    /// Order (the argument of [`X86`](crate::X86)'s declaration).
    fn survives_txn_deletion(&self) -> bool {
        true
    }
}

// `ob` and the TM additions are monotone in (rf, co, fr); as for
// Power, the lifts cannot fire spuriously while txns are unassigned.
impl PruneOracle for Armv8 {
    fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
        self.consistent_analysis(a)
    }

    fn coherence_gate(&self) -> bool {
        true
    }
    fn event_monotone(&self) -> bool {
        true // pairwise builtins and monotone compositions only
    }

    // Exact decomposition of `ob`: the fixed part is `ob` on the base
    // analysis (communication empty), and the communication-dependent
    // terms are `come` (direct external feeds) plus four per-edge
    // compose rules with fixed left context:
    //
    //   dob:  ([R];ctrl ∪ data) ; coi      — Co internal, ctx-composed
    //   dob:  (addr ∪ data) ; rfi          — Rf internal, ctx-composed
    //   aob:  [range(rmw)] ; rfi ; [A]     — Rf internal, endpoint-set
    //   bob:  po ; [rel ∩ W] ; coi         — Co internal, ctx-composed
    //
    // TxnCancelsRMW is structure-fixed and pre-decided into
    // `plan.dead`; the TM lifts distribute over the union as for x86.
    fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
        let n = x.len();
        let base = ExecutionAnalysis::with_fr(x, Rel::empty(n));
        let rctrl = Rel::id_on(n, base.reads()).seq(base.ctrl());
        let ob_feeds = || -> Vec<ComposeRule> {
            let everything = txmm_core::EventSet::from_bits(u64::MAX);
            let mut feed = come_feeds();
            feed.push(ComposeRule {
                kind: EdgeKind::Co,
                sel: EdgeSel::Internal,
                a_in: everything,
                b_in: everything,
                ctx: Some(rctrl.union(base.data()).inverse()),
                rctx: None,
            });
            feed.push(ComposeRule {
                kind: EdgeKind::Rf,
                sel: EdgeSel::Internal,
                a_in: everything,
                b_in: everything,
                ctx: Some(base.addr().union(base.data()).inverse()),
                rctx: None,
            });
            feed.push(ComposeRule {
                kind: EdgeKind::Rf,
                sel: EdgeSel::Internal,
                a_in: base.rmw().range(),
                b_in: base.acq(),
                ctx: None,
                rctx: None,
            });
            feed.push(ComposeRule {
                kind: EdgeKind::Co,
                sel: EdgeSel::Internal,
                a_in: base.rel_events().inter(base.writes()),
                b_in: everything,
                ctx: Some(base.po().inverse()),
                rctx: None,
            });
            feed
        };
        let ob_fixed = self.ob(&base);
        let mut plan = DeltaPlan::fallback(x, true);
        plan.exact = true;
        if self.tm {
            plan.dead = !base.txn_cancels_rmw().is_empty();
        }
        plan.obls.push(Obligation {
            seed: ob_fixed,
            feed: ob_feeds(),
            lift: Lift::No,
        });
        let stxn = x.stxn();
        if self.tm && !stxn.is_empty() {
            plan.obls.push(Obligation {
                seed: Rel::empty(n),
                feed: com_feeds(),
                lift: Lift::Strong,
            });
            plan.obls.push(Obligation {
                seed: stronglift(&ob_fixed, &stxn),
                feed: ob_feeds(),
                lift: Lift::Strong,
            });
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::{ExecBuilder, Execution};

    fn mp(strength: &str) -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        if strength == "dmb" || strength == "full" {
            b.fence(t0, Fence::Dmb);
        }
        let wy = if strength == "rel" || strength == "rel-acq" {
            b.write_rel(t0, 1)
        } else {
            b.write(t0, 1)
        };
        let t1 = b.new_thread();
        let ry = if strength == "rel-acq" || strength == "acq" {
            b.read_acq(t1, 1)
        } else {
            b.read(t1, 1)
        };
        let rx = b.read(t1, 0);
        if strength == "full" || strength == "dep" || strength == "rel" {
            b.addr(ry, rx);
        }
        b.rf(wy, ry);
        b.build().unwrap()
    }

    #[test]
    fn mp_plain_allowed() {
        assert!(Armv8::base().consistent(&mp("plain")));
    }

    #[test]
    fn mp_dmb_addr_forbidden() {
        // DMB on the writer + address dependency on the reader: come ∪
        // bob ∪ dob cycle.
        assert!(!Armv8::base().consistent(&mp("full")));
    }

    #[test]
    fn mp_release_acquire_forbidden() {
        // STLR/LDAR pairing restores order (bob: po;[L] and [A];po).
        assert!(!Armv8::base().consistent(&mp("rel-acq")));
    }

    #[test]
    fn mp_release_dep_forbidden() {
        // STLR + address dependency: po;[L] orders the writes; dob
        // orders the reads.
        assert!(!Armv8::base().consistent(&mp("rel")));
    }

    #[test]
    fn mp_half_strength_allowed() {
        assert!(Armv8::base().consistent(&mp("dep")));
        assert!(Armv8::base().consistent(&mp("dmb")));
        assert!(Armv8::base().consistent(&mp("acq")));
    }

    #[test]
    fn sb_with_dmb_forbidden() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _w0 = b.write(t0, 0);
        b.fence(t0, Fence::Dmb);
        let _r0 = b.read(t0, 1);
        let t1 = b.new_thread();
        let _w1 = b.write(t1, 1);
        b.fence(t1, Fence::Dmb);
        let _r1 = b.read(t1, 0);
        let x = b.build().unwrap();
        assert!(!Armv8::base().consistent(&x));
        // dmb.st is the wrong barrier for W->R: still allowed.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 0);
        b.fence(t0, Fence::DmbSt);
        b.read(t0, 1);
        let t1 = b.new_thread();
        b.write(t1, 1);
        b.fence(t1, Fence::DmbSt);
        b.read(t1, 0);
        let y = b.build().unwrap();
        assert!(Armv8::base().consistent(&y));
    }

    #[test]
    fn iriw_forbidden_multicopy_atomic() {
        // ARMv8 is multicopy-atomic: IRIW with acquire loads is
        // forbidden even without transactions.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let t1 = b.new_thread();
        let r1 = b.read_acq(t1, 0);
        let r2 = b.read_acq(t1, 1);
        let t2 = b.new_thread();
        let r3 = b.read_acq(t2, 1);
        let r4 = b.read_acq(t2, 0);
        let t3 = b.new_thread();
        let f = b.write(t3, 1);
        b.rf(a, r1);
        b.rf(f, r3);
        let _ = (r2, r4); // both read initial values
        let x = b.build().unwrap();
        assert!(!Armv8::base().consistent(&x));
    }

    #[test]
    fn ldar_orders_later_accesses() {
        // [A];po ∈ bob: an acquire load orders everything after it.
        let x = mp("acq");
        let ob = Armv8::base().ob(&x.analysis());
        assert!(ob.contains(2, 3));
    }

    #[test]
    fn stlr_one_way_fence() {
        // po;[L] ∈ bob: a release store is ordered after everything
        // before it, but later accesses may float up past it.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write_rel(t0, 1);
        let r2 = b.read(t0, 2);
        let x = b.build().unwrap();
        let ob = Armv8::base().ob(&x.analysis());
        assert!(ob.contains(r, w));
        assert!(!ob.contains(w, r2));
    }

    #[test]
    fn txn_cancels_rmw_inherited() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 0);
        b.rmw(r, w);
        b.txn(&[r]);
        b.txn(&[w]);
        let x = b.build().unwrap();
        let v = Armv8::tm().check(&x);
        assert!(v.violations().contains(&"TxnCancelsRMW"));
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 0);
        b.rmw(r, w);
        b.txn(&[r, w]);
        assert!(Armv8::tm().consistent(&b.build().unwrap()));
    }

    #[test]
    fn transactional_sb_forbidden() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w0 = b.write(t0, 0);
        let r0 = b.read(t0, 1);
        let t1 = b.new_thread();
        let w1 = b.write(t1, 1);
        let r1 = b.read(t1, 0);
        b.txn(&[w0, r0]);
        b.txn(&[w1, r1]);
        let x = b.build().unwrap();
        assert!(Armv8::base().consistent(&x));
        let v = Armv8::tm().check(&x);
        assert!(v.violations().contains(&"TxnOrder"));
    }

    #[test]
    fn tfence_orders_around_txn() {
        // A write before a transaction is ordered before events inside
        // it, making MP forbidden when the flag update is transactional.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        let wy = b.write(t0, 1);
        b.txn(&[wy]);
        let t1 = b.new_thread();
        let ry = b.read(t1, 1);
        let rx = b.read(t1, 0);
        b.txn(&[ry, rx]);
        b.rf(wy, ry);
        let x = b.build().unwrap();
        // ob: wx -tfence-> wy -rfe-> ry/rx txn; fr(rx, wx) closes a
        // TxnOrder cycle.
        let v = Armv8::tm().check(&x);
        assert!(!v.is_consistent());
        assert!(Armv8::base().consistent(&x.erase_txns()));
    }

    #[test]
    fn tm_equals_base_without_txns() {
        for s in ["plain", "full", "rel-acq", "dep"] {
            let x = mp(s);
            assert_eq!(Armv8::base().consistent(&x), Armv8::tm().consistent(&x));
        }
    }
}
