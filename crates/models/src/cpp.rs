//! The C++ memory model with the TM technical specification (Fig. 9).
//!
//! The baseline is RC11 (Lahav et al., PLDI 2017) — chosen by the paper
//! because its fixes make compilation to Power sound, which §8.2 checks.
//! The TM extension is the paper's *simplified* formulation (§7.2): a
//! `tsw` relation (`weaklift(ecom, stxn)`) joins happens-before, avoiding
//! the specification's quantification over total transaction orders.
//!
//! C++ defines two predicates: *consistency* and *race-freedom*. A racy
//! program is undefined; [`Cpp::racy`] reports races separately from the
//! consistency verdict.

use txmm_core::incr::{ComposeRule, DeltaPlan, EdgeKind, EdgeSel, Lift, Obligation, PruneOracle};
#[cfg(test)]
use txmm_core::Attrs;
use txmm_core::{union_all, weaklift, Execution, ExecutionAnalysis, Rel};

use crate::arch::Arch;
use crate::model::{Checker, Model};

/// The C++ model; `tm` enables the transactional synchronisation rule.
#[derive(Debug, Clone, Copy)]
pub struct Cpp {
    /// Interpret transactions?
    pub tm: bool,
}

impl Cpp {
    /// The transactional model.
    pub fn tm() -> Cpp {
        Cpp { tm: true }
    }

    /// The non-transactional baseline (plain RC11).
    pub(crate) fn base() -> Cpp {
        Cpp { tm: false }
    }

    /// The synchronises-with relation (RC11):
    /// `sw = [Rel] ; ([F] ; po)? ; rs ; rf ; [R ∩ Ato] ; (po ; [F])? ; [Acq]`
    /// with the release sequence `rs = [W] ; poloc? ; [W ∩ Ato] ; (rf ; rmw)*`.
    pub(crate) fn sw(a: &ExecutionAnalysis<'_>) -> Rel {
        let n = a.len();
        let po = a.po();
        let idw = Rel::id_on(n, a.writes());
        let idwa = Rel::id_on(n, a.writes().inter(a.ato()));
        let idra = Rel::id_on(n, a.reads().inter(a.ato()));
        let idf = Rel::id_on(n, a.fences());
        let idrel = Rel::id_on(n, a.rel_events());
        let idacq = Rel::id_on(n, a.acq());

        let rs = idw
            .seq(&a.po_loc().opt())
            .seq(&idwa)
            .seq(&a.rf().seq(a.rmw()).star());

        idrel
            .seq(&idf.seq(po).opt())
            .seq(&rs)
            .seq(a.rf())
            .seq(&idra)
            .seq(&po.seq(&idf).opt())
            .seq(&idacq)
    }

    /// Extended communication: `ecom = com ∪ (co ; rf)` (§7.2). Whenever
    /// two events conflict, they are related by `ecom` one way or the
    /// other.
    pub(crate) fn ecom(a: &ExecutionAnalysis<'_>) -> Rel {
        a.com().union(&a.co().seq(a.rf()))
    }

    /// Transactional synchronises-with: `tsw = weaklift(ecom, stxn)`.
    pub(crate) fn tsw(a: &ExecutionAnalysis<'_>) -> Rel {
        weaklift(&Cpp::ecom(a), a.stxn())
    }

    /// Happens-before: `hb = (sw ∪ tsw ∪ po)⁺`.
    pub(crate) fn hb(&self, a: &ExecutionAnalysis<'_>) -> Rel {
        let mut base = Cpp::sw(a).union(a.po());
        if self.tm {
            base = base.union(&Cpp::tsw(a));
        }
        base.plus()
    }

    /// The RC11 `psc` relation (elided in Fig. 9), over a precomputed
    /// happens-before.
    pub(crate) fn psc_from_hb(&self, a: &ExecutionAnalysis<'_>, hb: &Rel) -> Rel {
        let n = a.len();
        let hbopt = hb.opt();
        let sc = a.sc_events();
        let scf = sc.inter(a.fences());
        let idsc = Rel::id_on(n, sc);
        let idscf = Rel::id_on(n, scf);
        let eco = a.com().plus();
        let sloc = a.sloc();
        let po_neq_loc = a.po().minus(sloc);

        // scb = po ∪ (po≠loc ; hb ; po≠loc) ∪ (hb ∩ sloc) ∪ co ∪ fr
        let scb = union_all(
            n,
            [
                a.po(),
                &po_neq_loc.seq(hb).seq(&po_neq_loc),
                &hb.inter(sloc),
                a.co(),
                a.fr(),
            ],
        );

        let head = idsc.union(&idscf.seq(&hbopt));
        let tail = idsc.union(&hbopt.seq(&idscf));
        let psc_base = head.seq(&scb).seq(&tail);
        let psc_f = idscf.seq(&hb.union(&hb.seq(&eco).seq(hb))).seq(&idscf);
        psc_base.union(&psc_f)
    }

    /// Conflicting event pairs:
    /// `cnf = ((W×W) ∪ (R×W) ∪ (W×R)) ∩ sloc \ id`.
    pub(crate) fn cnf(a: &ExecutionAnalysis<'_>) -> Rel {
        let n = a.len();
        let w = a.writes();
        let r = a.reads();
        union_all(
            n,
            [
                &Rel::cross(n, w, w),
                &Rel::cross(n, r, w),
                &Rel::cross(n, w, r),
            ],
        )
        .inter(a.sloc())
        .minus(&Rel::id(n))
    }

    /// Race detection against a shared analysis.
    pub fn racy_analysis(&self, a: &ExecutionAnalysis<'_>) -> bool {
        let n = a.len();
        let hb = self.hb(a);
        let ato2 = Rel::cross(n, a.ato(), a.ato());
        let races = Cpp::cnf(a).minus(&ato2).minus(&hb.union(&hb.inverse()));
        !races.is_empty()
    }

    /// Race detection: `NoRace` fails when two conflicting events, not
    /// both atomic, are unordered by happens-before.
    pub fn racy(&self, x: &Execution) -> bool {
        self.racy_analysis(&x.analysis())
    }

    /// Does the execution satisfy the TM specification's *vocabulary*
    /// side-condition: atomic transactions contain no atomic operations
    /// (§7, Theorem 7.2's hypothesis)?
    pub fn atomic_txns_wellformed(x: &Execution) -> bool {
        !x.stxnat().domain().intersects(x.ato())
    }
}

impl Model for Cpp {
    fn name(&self) -> &'static str {
        if self.tm {
            "cpp-tm"
        } else {
            "cpp"
        }
    }

    fn arch(&self) -> Arch {
        Arch::Cpp
    }

    fn is_tm(&self) -> bool {
        self.tm
    }

    fn axioms(&self, a: &ExecutionAnalysis<'_>, c: &mut Checker) {
        let hb = self.hb(a);
        c.irreflexive("HbCom", &hb.seq(&a.com().star()));
        c.empty("RMWIsol", a.rmw_isol());
        c.acyclic("NoThinAir", &a.po().union(a.rf()));
        c.acyclic("SeqCst", &self.psc_from_hb(a, &hb));
    }

    fn prune_oracle(&self, _txns_known: bool) -> Option<&dyn PruneOracle> {
        Some(self)
    }
}

// hb, psc and the axiom bodies are monotone in (rf, co, fr): every
// `minus` in their definitions has a fixed (label-derived) right-hand
// side, and `tsw` is empty while txns are unassigned. No coherence
// gate — RC11 does not entail `acyclic(po_loc ∪ com)` (races aside,
// only `hb ∩ sloc` of it enters an axiom).
impl PruneOracle for Cpp {
    fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
        self.consistent_analysis(a)
    }

    // Inexact pre-filter: NoThinAir = acyclic(po ∪ rf) decomposes
    // per-edge, and RMWIsol maps onto the incremental flag. HbCom and
    // SeqCst stay with the full check, so clean probes fall back.
    fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
        let mut plan = DeltaPlan::fallback(x, true);
        plan.obls.push(Obligation {
            seed: *x.po(),
            feed: vec![ComposeRule::direct(EdgeKind::Rf, EdgeSel::All)],
            lift: Lift::No,
        });
        Some(plan)
    }
}

/// Theorem 7.2 (strong isolation for atomic transactions): in a
/// consistent, race-free execution whose atomic transactions contain no
/// atomic operations, `stronglift(com, stxnat)` is acyclic.
///
/// Checked exhaustively (up to a bound) by `txmm-verify`; exposed here so
/// property tests can exercise it on arbitrary executions.
pub fn theorem_7_2_holds(x: &Execution) -> bool {
    let a = x.analysis();
    let m = Cpp::tm();
    if !m.consistent_analysis(&a) || m.racy_analysis(&a) || !Cpp::atomic_txns_wellformed(x) {
        return true; // hypotheses not met: vacuously true
    }
    a.strong_isol_atomic().is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::ExecBuilder;

    /// Message passing with release/acquire atomics on the flag.
    fn mp_rel_acq() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        let wy = b.write_ato(t0, 1, Attrs::REL);
        let t1 = b.new_thread();
        let ry = b.read_ato(t1, 1, Attrs::ACQ);
        let _rx = b.read(t1, 0);
        b.rf(wy, ry);
        b.build().unwrap()
    }

    #[test]
    fn mp_release_acquire_forbidden() {
        // rx reads the initial x while hb orders wx before rx: the fr
        // edge contradicts hb (HbCom).
        let x = mp_rel_acq();
        let v = Cpp::base().check(&x);
        assert!(v.violations().contains(&"HbCom"));
        assert!(!Cpp::base().racy(&x), "sw covers the data accesses");
    }

    #[test]
    fn mp_relaxed_is_racy() {
        // With a relaxed flag there is no sw edge: the data accesses race.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        let wy = b.write_ato(t0, 1, Attrs::NONE);
        let t1 = b.new_thread();
        let ry = b.read_ato(t1, 1, Attrs::NONE);
        let _rx = b.read(t1, 0);
        b.rf(wy, ry);
        let x = b.build().unwrap();
        assert!(Cpp::base().consistent(&x));
        assert!(Cpp::base().racy(&x));
    }

    #[test]
    fn sw_through_fences() {
        // Release fence + relaxed store / relaxed load + acquire fence.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        let f0 = b.fence(t0, txmm_core::Fence::CppFence);
        b.attr(f0, Attrs::REL);
        let wy = b.write_ato(t0, 1, Attrs::NONE);
        let t1 = b.new_thread();
        let ry = b.read_ato(t1, 1, Attrs::NONE);
        let f1 = b.fence(t1, txmm_core::Fence::CppFence);
        b.attr(f1, Attrs::ACQ);
        let _rx = b.read(t1, 0);
        b.rf(wy, ry);
        let x = b.build().unwrap();
        let a = x.analysis();
        let sw = Cpp::sw(&a);
        assert!(sw.contains(f0, f1), "fence-to-fence synchronisation");
        assert!(!Cpp::base().racy(&x));
        assert!(!Cpp::base().consistent(&x), "stale read now forbidden");
    }

    #[test]
    fn release_sequence_rmw_chain() {
        // A release store followed by another thread's relaxed RMW still
        // synchronises with an acquire load of the RMW's value.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write_ato(t0, 0, Attrs::REL);
        let t1 = b.new_thread();
        let r1 = b.read_ato(t1, 0, Attrs::NONE);
        let w1 = b.write_ato(t1, 0, Attrs::NONE);
        b.rmw(r1, w1);
        let t2 = b.new_thread();
        let r2 = b.read_ato(t2, 0, Attrs::ACQ);
        b.rf(w, r1);
        b.rf(w1, r2);
        b.co(w, w1);
        let x = b.build().unwrap();
        let a = x.analysis();
        let sw = Cpp::sw(&a);
        assert!(sw.contains(w, r2), "rs climbs the rf;rmw chain");
    }

    #[test]
    fn sb_sc_atomics_forbidden() {
        // Store buffering with SC atomics everywhere: psc cycle.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _w0 = b.write_ato(t0, 0, Attrs::SC);
        let _r0 = b.read_ato(t0, 1, Attrs::SC);
        let t1 = b.new_thread();
        let _w1 = b.write_ato(t1, 1, Attrs::SC);
        let _r1 = b.read_ato(t1, 0, Attrs::SC);
        let x = b.build().unwrap();
        let v = Cpp::base().check(&x);
        assert!(v.violations().contains(&"SeqCst"));
        // Downgrading one access to acquire/release re-allows it.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write_ato(t0, 0, Attrs::REL);
        b.read_ato(t0, 1, Attrs::SC);
        let t1 = b.new_thread();
        b.write_ato(t1, 1, Attrs::SC);
        b.read_ato(t1, 0, Attrs::SC);
        let y = b.build().unwrap();
        assert!(Cpp::base().consistent(&y));
    }

    #[test]
    fn lb_relaxed_allowed_deps_forbidden() {
        // RC11 allows relaxed load buffering without dependencies (it
        // only forbids po ∪ rf cycles).
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r0 = b.read_ato(t0, 0, Attrs::NONE);
        let w0 = b.write_ato(t0, 1, Attrs::NONE);
        let t1 = b.new_thread();
        let r1 = b.read_ato(t1, 1, Attrs::NONE);
        let w1 = b.write_ato(t1, 0, Attrs::NONE);
        b.rf(w0, r1);
        b.rf(w1, r0);
        let x = b.build().unwrap();
        let v = Cpp::base().check(&x);
        assert!(
            v.violations().contains(&"NoThinAir"),
            "RC11 forbids po∪rf cycles outright"
        );
    }

    #[test]
    fn transactional_synchronisation() {
        // §7.2: two conflicting transactions synchronise in ecom order;
        // the lifted tsw edge makes the stale read inconsistent.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let wx = b.write(t0, 0);
        let wy = b.write(t0, 1);
        let t1 = b.new_thread();
        let ry = b.read(t1, 1);
        let rx = b.read(t1, 0);
        b.rf(wy, ry);
        b.txn_atomic(&[wx, wy]);
        b.txn_atomic(&[ry, rx]);
        let x = b.build().unwrap();
        // rx reads initial x: fr(rx, wx) gives ecom from txn2 to txn1,
        // while rf(wy, ry) gives ecom from txn1 to txn2: hb cycle.
        let v = Cpp::tm().check(&x);
        assert!(v.violations().contains(&"HbCom"));
        // The baseline C++ model (transactions erased) calls it racy
        // instead.
        assert!(Cpp::base().racy(&x.erase_txns()));
    }

    #[test]
    fn dongol_comparison_execution() {
        // §9: forbidden by C++ TM (hb cycle) though weaker TM models
        // allow it.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let wx = b.write(t0, 0);
        let wy = b.write(t0, 1);
        let t1 = b.new_thread();
        let ry = b.read(t1, 1);
        let rx = b.read(t1, 0);
        b.rf(wy, ry);
        b.txn_atomic(&[wx, wy]);
        b.txn_atomic(&[ry, rx]);
        let x = b.build().unwrap();
        assert!(!Cpp::tm().consistent(&x));
    }

    #[test]
    fn weak_isolation_follows_from_consistency() {
        // §7.2: the WeakIsol axiom follows from the other C++ axioms —
        // sample a few transactional executions and check the
        // implication.
        use crate::sc::weak_isolation;
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w1 = b.write(t0, 0);
        let w2 = b.write(t0, 0);
        let t1 = b.new_thread();
        let r = b.read(t1, 0);
        b.rf(w1, r);
        b.co(w1, w2);
        b.txn(&[w1, w2]);
        b.txn(&[r]);
        let x = b.build().unwrap();
        if Cpp::tm().consistent(&x) {
            assert!(weak_isolation(&x));
        } else {
            // Forbidden: the intermediate-value read violates tsw order.
            assert!(!Cpp::tm().consistent(&x));
        }
    }

    #[test]
    fn racy_transactional_program() {
        // §7.2's example: atomic{ x=1 } ∥ atomic_store(&x, 2) is racy.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w1 = b.write(t0, 0);
        b.txn_atomic(&[w1]);
        let t1 = b.new_thread();
        let w2 = b.write_ato(t1, 0, Attrs::SC);
        b.co(w1, w2);
        let x = b.build().unwrap();
        assert!(
            Cpp::tm().racy(&x),
            "non-atomic store in txn races with atomic store"
        );
    }

    #[test]
    fn theorem_7_2_on_samples() {
        // Strong isolation via race-freedom: a race-free consistent
        // execution with atomic transactions keeps them isolated.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w1 = b.write(t0, 0);
        let w2 = b.write(t0, 1);
        let t1 = b.new_thread();
        let r = b.read(t1, 1);
        b.rf(w2, r);
        b.txn_atomic(&[w1, w2]);
        b.txn_atomic(&[r]);
        let x = b.build().unwrap();
        assert!(theorem_7_2_holds(&x));
    }

    #[test]
    fn atomic_txn_vocab() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write_ato(t0, 0, Attrs::NONE);
        b.txn_atomic(&[w]);
        let x = b.build().unwrap();
        assert!(!Cpp::atomic_txns_wellformed(&x));
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        b.txn_atomic(&[w]);
        let y = b.build().unwrap();
        assert!(Cpp::atomic_txns_wellformed(&y));
    }
}
