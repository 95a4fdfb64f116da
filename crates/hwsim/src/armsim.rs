//! ARMv8 with the proposed TM extension as an ordering table over one
//! multicopy-atomic memory. Dependencies order (address and data
//! always; control only to stores, or to anything across an `ISB`), as
//! do barriers (`DMB`, `DMB LD`, `DMB ST`), one-way acquire/release,
//! same-location accesses and full-barrier transaction boundaries.
//! Exclusives pair through a monitor.
//!
//! Loads read memory *at commit time*: exactly the speculation window
//! that makes Example 1.1's lock elision unsound, since the critical
//! region's load may commit before the earlier store-exclusive.

use txmm_core::Fence;
use txmm_litmus::{DepKind, Instr, Op};

use crate::machine::{fence_between, loc_of, Rules};

pub(crate) const ARMV8: Rules = Rules {
    ordered,
    multicopy_atomic: true,
    locked_rmw: false,
    plain_loads_abort: true,
};

/// Must `j` commit before the later `i`?
fn ordered(instrs: &[Instr], j: usize, i: usize) -> bool {
    let oj = &instrs[j].op;
    let oi = &instrs[i].op;
    // Transaction boundaries are full barriers.
    if matches!(oj, Op::TxBegin { .. } | Op::TxEnd) || matches!(oi, Op::TxBegin { .. } | Op::TxEnd)
    {
        return true;
    }
    // Fence *instructions* themselves commit freely (their ordering
    // power is positional, via fence_between below).
    // DMB variants between the two instructions.
    if fence_between(instrs, j, i, Fence::Dmb) {
        return true;
    }
    if fence_between(instrs, j, i, Fence::DmbLd) && matches!(oj, Op::Load { .. }) {
        return true;
    }
    if fence_between(instrs, j, i, Fence::DmbSt)
        && matches!(oj, Op::Store { .. })
        && matches!(oi, Op::Store { .. })
    {
        return true;
    }
    // Acquire loads order everything after them.
    if let Op::Load { mode, .. } = oj {
        if mode.acquire {
            return true;
        }
    }
    // Release stores are ordered after everything before them.
    if let Op::Store { mode, .. } = oi {
        if mode.release {
            return true;
        }
    }
    // A release store is ordered before a later acquire load
    // (aarch64 bob: [L];po;[A]).
    if let (Op::Store { mode: mj, .. }, Op::Load { mode: mi, .. }) = (oj, oi) {
        if mj.release && mi.acquire {
            return true;
        }
    }
    // Same-location accesses commit in program order (coherence).
    if let (Some(a), Some(b)) = (loc_of(oj), loc_of(oi)) {
        if a == b {
            return true;
        }
    }
    // Dependencies.
    for d in &instrs[i].deps {
        if d.on == j {
            match d.kind {
                DepKind::Addr | DepKind::Data => return true,
                DepKind::Ctrl => {
                    // ctrl orders stores; ctrl+ISB orders loads too.
                    // Write-sourced ctrl (from a store-exclusive)
                    // does NOT order on ARMv8 — that is the
                    // Example 1.1 relaxation.
                    let read_sourced = matches!(instrs[j].op, Op::Load { .. });
                    if read_sourced
                        && (matches!(oi, Op::Store { .. })
                            || fence_between(instrs, j, i, Fence::Isb))
                    {
                        return true;
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use txmm_core::Fence;
    use txmm_litmus::{litmus_from_execution, LitmusTest};
    use txmm_models::{catalog, Arch};

    fn make(name: &str, x: &txmm_core::Execution) -> LitmusTest {
        litmus_from_execution(name, x, Arch::Armv8)
    }

    fn seen(t: &LitmusTest) -> bool {
        crate::observable(t).expect("the ARMv8 machine runs it")
    }

    #[test]
    fn mp_plain_observable() {
        let t = make("mp", &catalog::mp(None, false, false));
        assert!(seen(&t));
    }

    #[test]
    fn mp_dmb_addr_not_observable() {
        let t = make("mp+dmb+addr", &catalog::mp(Some(Fence::Dmb), true, false));
        assert!(!seen(&t));
    }

    #[test]
    fn sb_observable_mp_dep_only_observable() {
        let t = make("sb", &catalog::sb(None, false, false));
        assert!(seen(&t));
        let t2 = make("mp+dep", &catalog::mp(None, true, false));
        assert!(seen(&t2), "dependency alone does not order the writes");
    }

    #[test]
    fn lb_observable_unless_in_order() {
        let t = make("lb", &catalog::lb(false));
        assert!(seen(&t), "ARM cores exhibit load buffering");
    }

    #[test]
    fn lb_deps_never_observable() {
        let t = make("lb+deps", &catalog::lb(true));
        assert!(!seen(&t), "data dependencies forbid thin air");
    }

    #[test]
    fn mp_txns_not_observable() {
        let t = make("mp+txns", &catalog::mp(None, false, true));
        assert!(!seen(&t), "transactions order their contents");
    }

    #[test]
    fn elision_witness_observable() {
        // Example 1.1: the simulator exhibits the unsound lock-elision
        // outcome, agreeing with the axiomatic model.
        let t = make("armv8-elision", &catalog::armv8_elision(false));
        assert!(seen(&t), "the lock-elision bug is executable");
    }

    #[test]
    fn elision_witness_with_dmb_not_observable() {
        let t = make("armv8-elision-dmb", &catalog::armv8_elision(true));
        assert!(!seen(&t), "the DMB repair closes the window");
    }

    #[test]
    fn elision_appendix_b_observable() {
        let t = make("appb", &catalog::armv8_elision_appendix_b(false));
        assert!(seen(&t));
        let t2 = make("appb+dmb", &catalog::armv8_elision_appendix_b(true));
        assert!(!seen(&t2));
    }

    #[test]
    fn fig3_shapes_not_observable() {
        for which in ['a', 'b', 'c', 'd'] {
            let t = make("fig3", &catalog::fig3(which));
            assert!(!seen(&t), "fig3({which}) violates strong isolation");
        }
    }

    #[test]
    fn release_acquire_mp_not_observable() {
        let mut b = txmm_core::ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        let wy = b.write_rel(t0, 1);
        let t1 = b.new_thread();
        let ry = b.read_acq(t1, 1);
        let _rx = b.read(t1, 0);
        b.rf(wy, ry);
        let x = b.build().unwrap();
        let t = make("mp+rel+acq", &x);
        assert!(!seen(&t));
    }

    #[test]
    fn exclusive_pair_atomicity() {
        // Two competing RMWs on x: both cannot read 0 and both succeed.
        let mut b = txmm_core::ExecBuilder::new();
        let t0 = b.new_thread();
        let r0 = b.read(t0, 0);
        let w0 = b.write(t0, 0);
        b.rmw(r0, w0);
        let t1 = b.new_thread();
        let r1 = b.read(t1, 0);
        let w1 = b.write(t1, 0);
        b.rmw(r1, w1);
        b.co(w0, w1);
        let x = b.build().unwrap();
        let t = make("2rmw", &x);
        // Postcondition: both read 0 (both RMWs started from init) and
        // both stores succeeded — forbidden by the monitors.
        assert!(!seen(&t));
    }

    #[test]
    fn iriw_not_observable_mca() {
        let mut b = txmm_core::ExecBuilder::new();
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
        let _ = (r2, r4);
        let x = b.build().unwrap();
        let t = make("iriw", &x);
        assert!(!seen(&t), "single memory = multicopy atomic");
    }
}
