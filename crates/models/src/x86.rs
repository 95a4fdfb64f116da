//! The x86 memory model with Intel TSX-style transactions (Fig. 5).
//!
//! The baseline is the TSO-style axiomatisation of Alglave et al.
//! ("Herding cats"); the paper adds (highlighted in Fig. 5):
//!
//! * implicit fences at transaction boundaries (`tfence` joins `implied`),
//! * strong isolation (`StrongIsol`), and
//! * transaction atomicity (`TxnOrder`).

use txmm_core::incr::{DeltaPlan, Lift, Obligation, PruneOracle};
use txmm_core::{stronglift, union_all, Execution, ExecutionAnalysis, Fence, MemoKey, Rel};

use crate::arch::Arch;
use crate::delta::{com_feeds, rfe_co_fr_feeds};
use crate::model::{Checker, Model};

/// The x86 model. `tm: false` gives the non-transactional baseline used
/// as the synthesis reference; `tm: true` adds the highlighted axioms.
#[derive(Debug, Clone, Copy)]
pub struct X86 {
    /// Interpret transactions?
    pub tm: bool,
}

impl X86 {
    /// The transactional model.
    pub fn tm() -> X86 {
        X86 { tm: true }
    }

    /// The non-transactional baseline.
    pub fn base() -> X86 {
        X86 { tm: false }
    }

    /// The happens-before relation of Fig. 5:
    /// `hb = mfence ∪ ppo ∪ implied ∪ rfe ∪ fr ∪ co`.
    ///
    /// Everything but the `tfence` term is txn-independent, so the
    /// fixed union is memoised under `MemoKey::X86Hb` and shared across the
    /// transaction layouts of one rf/co structure.
    pub(crate) fn hb(&self, a: &ExecutionAnalysis<'_>) -> Rel {
        let fixed = a.memo(MemoKey::X86Hb, || {
            let n = a.len();
            let po = a.po();
            let w = a.writes();
            let r = a.reads();

            // ppo = ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po — everything but W→R.
            let ppo = union_all(
                n,
                [
                    &Rel::cross(n, w, w),
                    &Rel::cross(n, r, w),
                    &Rel::cross(n, r, r),
                ],
            )
            .inter(po);

            // implied = [L] ; po ∪ po ; [L]: LOCK'd RMWs fence.
            let l = a.rmw().domain().union(a.rmw().range());
            let idl = Rel::id_on(n, l);
            let implied = idl.seq(po).union(&po.seq(&idl));

            let mfence = a.fence_rel(Fence::MFence);
            union_all(n, [mfence, &ppo, &implied, a.rfe(), a.fr(), a.co()])
        });
        if self.tm {
            // tfence joins implied (Fig. 5, highlighted).
            fixed.union(a.tfence())
        } else {
            fixed
        }
    }
}

impl Model for X86 {
    fn name(&self) -> &'static str {
        if self.tm {
            "x86-tm"
        } else {
            "x86"
        }
    }

    fn arch(&self) -> Arch {
        Arch::X86
    }

    fn is_tm(&self) -> bool {
        self.tm
    }

    fn axioms(&self, a: &ExecutionAnalysis<'_>, c: &mut Checker) {
        let hb = self.hb(a);
        c.require("Coherence", a.coherent());
        c.empty("RMWIsol", a.rmw_isol());
        c.acyclic("Order", &hb);
        if self.tm {
            c.acyclic("StrongIsol", a.strong_isol());
            c.acyclic("TxnOrder", &stronglift(&hb, a.stxn()));
        }
    }

    fn prune_oracle(&self, _txns_known: bool) -> Option<&dyn PruneOracle> {
        Some(self)
    }

    /// Deleting a transaction `T` shrinks `stxn`, and `tfence` too: a
    /// `po` pair inside `T` stays out of it, and a pair with one end in
    /// `T` stays in only when its other end is transactional. So `hb`
    /// shrinks and Order holds. The lifts `stronglift(r, stxn)` of
    /// StrongIsol (`r = com`) and TxnOrder (`r = hb`) gain only the
    /// `r`-edges inside `T`. A cycle through a run of those edges from
    /// `u` to `v` enters `T` by a lifted edge into `u` and leaves by one
    /// out of `v`; in the old lift both end at, or start from, any
    /// event of `T`, so the run shrinks to `v` and the cycle was
    /// already there. A cycle of those edges alone is a `com` cycle,
    /// which Coherence forbids, or an `hb` cycle, which Order does.
    /// Coherence and RMWIsol do not read transactions.
    fn survives_txn_deletion(&self) -> bool {
        true
    }
}

// Every axiom relation (hb, its stronglift, coherence, rmw ∩ fre;coe)
// is monotone in (rf, co, fr) with the structure fixed, and — with
// txns still empty — under adding transaction classes too, so the full
// check doubles as a partial-execution oracle in both modes.
impl PruneOracle for X86 {
    fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
        self.consistent_analysis(a)
    }

    fn coherence_gate(&self) -> bool {
        true // the Coherence axiom is exactly the gate relation
    }
    fn event_monotone(&self) -> bool {
        true // pairwise builtins and monotone compositions only
    }

    // Exact decomposition: hb = (fixed mfence ∪ ppo ∪ implied) ∪
    // rfe ∪ fr ∪ co, so the Order obligation seeds the fixed part
    // (hb on the base analysis, whose communication is empty) and
    // feeds each communication edge directly. Coherence is the gate,
    // RMWIsol the incremental flag, and the TM lifts distribute over
    // the union. With no transaction classes StrongIsol is subsumed
    // by the gate and TxnOrder by Order, so both are omitted.
    fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
        let n = x.len();
        let base = ExecutionAnalysis::with_fr(x, Rel::empty(n));
        let hb_fixed = self.hb(&base);
        let mut plan = DeltaPlan::fallback(x, true);
        plan.exact = true;
        plan.obls.push(Obligation {
            seed: hb_fixed,
            feed: rfe_co_fr_feeds(),
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
                seed: stronglift(&hb_fixed, &stxn),
                feed: rfe_co_fr_feeds(),
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

    /// Store buffering: Wx; Ry ∥ Wy; Rx, both reads observing the initial
    /// values. The hallmark TSO relaxation.
    fn sb(fenced: bool, txn0: bool, txn1: bool) -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w0 = b.write(t0, 0);
        if fenced {
            b.fence(t0, Fence::MFence);
        }
        let r0 = b.read(t0, 1);
        let t1 = b.new_thread();
        let w1 = b.write(t1, 1);
        if fenced {
            b.fence(t1, Fence::MFence);
        }
        let r1 = b.read(t1, 0);
        if txn0 {
            b.txn(&[w0, r0]);
        }
        if txn1 {
            b.txn(&[w1, r1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn sb_allowed_on_base_x86() {
        assert!(X86::base().consistent(&sb(false, false, false)));
        assert!(X86::tm().consistent(&sb(false, false, false)));
    }

    #[test]
    fn sb_with_mfence_forbidden() {
        let v = X86::base().check(&sb(true, false, false));
        assert_eq!(v.violations(), ["Order"]);
    }

    #[test]
    fn sb_both_txns_forbidden_under_tm() {
        // Two transactions may not exhibit store buffering: their fr
        // edges lift to a TxnOrder (and StrongIsol) cycle.
        let x = sb(false, true, true);
        assert!(X86::base().consistent(&x), "baseline ignores stxn");
        let v = X86::tm().check(&x);
        assert!(!v.is_consistent());
        assert!(v.violations().contains(&"TxnOrder"));
    }

    #[test]
    fn sb_single_txn_still_allowed() {
        // One transactional thread does not forbid store buffering: the
        // non-transactional thread may still defer its store past its
        // load, and the lifted fr edges do not close a cycle (the missing
        // link is exactly the plain thread's W->R pair).
        let x = sb(false, true, false);
        assert!(X86::tm().consistent(&x));
    }

    #[test]
    fn locked_rmw_both_sides_forbids_sb() {
        // Replacing both stores with LOCK'd RMWs restores SC:
        // implied = [L];po orders each RMW before its thread's read.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r0 = b.read(t0, 0);
        let w0 = b.write(t0, 0);
        b.rmw(r0, w0);
        let _ry = b.read(t0, 1);
        let t1 = b.new_thread();
        let r1 = b.read(t1, 1);
        let w1 = b.write(t1, 1);
        b.rmw(r1, w1);
        let _rx = b.read(t1, 0);
        // _ry reads initial y: fr(_ry, w1); _rx reads initial x: fr(_rx, w0).
        let x = b.build().unwrap();
        assert!(!X86::base().consistent(&x));
        // A single LOCK'd side leaves the shape observable.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r0 = b.read(t0, 0);
        let w0 = b.write(t0, 0);
        b.rmw(r0, w0);
        let _ry = b.read(t0, 1);
        let t1 = b.new_thread();
        let _w1 = b.write(t1, 1);
        let _rx = b.read(t1, 0);
        let y = b.build().unwrap();
        assert!(X86::base().consistent(&y));
    }

    #[test]
    fn mp_forbidden_on_x86() {
        // Message passing is already forbidden on TSO (no W->W or R->R
        // reordering).
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        let wy = b.write(t0, 1);
        let t1 = b.new_thread();
        let ry = b.read(t1, 1);
        let _rx = b.read(t1, 0);
        b.rf(wy, ry);
        let x = b.build().unwrap();
        assert!(!X86::base().consistent(&x));
    }

    #[test]
    fn rmw_isolation() {
        // An external write between the read and write of an RMW:
        // empty(rmw ∩ (fre ; coe)) fires.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 0);
        b.rmw(r, w);
        let t1 = b.new_thread();
        let wx = b.write(t1, 0);
        b.co(wx, w); // interferer hits memory between r and w
        let x = b.build().unwrap();
        let v = X86::base().check(&x);
        assert!(v.violations().contains(&"RMWIsol"));
    }

    #[test]
    fn coherence_axiom() {
        // po-loc against co: write then read of the same location must
        // not observe a co-earlier value... simplest: r reads init after
        // own write.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 0);
        let _ = (w, r); // r reads initial value: fr(r, w) vs po(w, r)
        let x = b.build().unwrap();
        let v = X86::base().check(&x);
        assert!(v.violations().contains(&"Coherence"));
    }

    #[test]
    fn fig2_transactional_wr_forbidden() {
        // Fig. 2: a transaction writes x then reads x, but observes an
        // external write that is co-after its own: StrongIsol violation
        // (containment).
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let r = b.read(t0, 0);
        let t1 = b.new_thread();
        let c = b.write(t1, 0);
        b.rf(c, r);
        b.co(a, c);
        b.txn(&[a, r]);
        let x = b.build().unwrap();
        assert!(
            X86::base().consistent(&x),
            "plain TSO allows it (read from other thread)"
        );
        let v = X86::tm().check(&x);
        assert!(v.violations().contains(&"StrongIsol"));
    }

    #[test]
    fn tm_model_matches_base_without_txns() {
        let x = sb(false, false, false);
        assert_eq!(X86::base().consistent(&x), X86::tm().consistent(&x));
        let y = sb(true, false, false);
        assert_eq!(X86::base().consistent(&y), X86::tm().consistent(&y));
    }
}
