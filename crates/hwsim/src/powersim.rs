//! Power with the Power 2.07 TM facility as an ordering table over the
//! propagation-based (non-multicopy-atomic) storage subsystem, in the
//! spirit of the PLDI'11 Power machine. `sync` is a full barrier,
//! `lwsync` orders all but store-to-load, dependencies order (control to
//! loads only across an `isync`, and also from a store-exclusive,
//! footnote 3), and same-location accesses commit in order. As on
//! POWER8 hardware, which never exhibits load buffering (§5.3), stores
//! wait for every earlier load.
//!
//! Transactions follow the Power ISA: `tbegin`/`tend` are cumulative
//! barriers, and transactional stores propagate *fully* at commit
//! ("robust architectural support", Cain et al. §4.2).

use txmm_core::Fence;
use txmm_litmus::{DepKind, Instr, Op};

use crate::machine::{fence_between, loc_of, Rules};

pub(crate) const POWER: Rules = Rules {
    ordered,
    multicopy_atomic: false,
    locked_rmw: false,
    plain_loads_abort: true,
};

/// Must `j` commit before the later `i`?
fn ordered(instrs: &[Instr], j: usize, i: usize) -> bool {
    let oj = &instrs[j].op;
    let oi = &instrs[i].op;
    if matches!(oj, Op::TxBegin { .. } | Op::TxEnd) || matches!(oi, Op::TxBegin { .. } | Op::TxEnd)
    {
        return true;
    }
    // sync is a full barrier; it must also commit in order.
    if fence_between(instrs, j, i, Fence::Sync)
        || matches!(oj, Op::Fence(Fence::Sync, _))
        || matches!(oi, Op::Fence(Fence::Sync, _))
    {
        return true;
    }
    // lwsync orders everything except W -> R; the fence itself
    // commits in order with its surroundings (it snapshots).
    if matches!(oj, Op::Fence(Fence::Lwsync, _)) || matches!(oi, Op::Fence(Fence::Lwsync, _)) {
        return true;
    }
    if fence_between(instrs, j, i, Fence::Lwsync)
        && !(matches!(oj, Op::Store { .. }) && matches!(oi, Op::Load { .. }))
    {
        return true;
    }
    // Same-location order.
    if let (Some(a), Some(b)) = (loc_of(oj), loc_of(oi)) {
        if a == b {
            return true;
        }
    }
    // POWER8 never exhibits load buffering (§5.3): stores wait for
    // every earlier load.
    if matches!(oj, Op::Load { .. }) && matches!(oi, Op::Store { .. }) {
        return true;
    }
    for d in &instrs[i].deps {
        if d.on == j {
            match d.kind {
                DepKind::Addr | DepKind::Data => return true,
                DepKind::Ctrl => {
                    // ctrl orders stores; ctrl+isync orders loads
                    // too. On Power, ctrl may begin at a
                    // store-exclusive (footnote 3) — honoured here.
                    if matches!(oi, Op::Store { .. }) || fence_between(instrs, j, i, Fence::Isync) {
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
        litmus_from_execution(name, x, Arch::Power)
    }

    fn seen(t: &LitmusTest) -> bool {
        crate::observable(t).expect("the Power machine runs it")
    }

    #[test]
    fn mp_plain_observable() {
        let t = make("mp", &catalog::mp(None, false, false));
        assert!(seen(&t), "writes may propagate out of order");
    }

    #[test]
    fn mp_sync_addr_not_observable() {
        let t = make("mp+sync+addr", &catalog::mp(Some(Fence::Sync), true, false));
        assert!(!seen(&t));
    }

    #[test]
    fn mp_lwsync_addr_not_observable() {
        let t = make(
            "mp+lwsync+addr",
            &catalog::mp(Some(Fence::Lwsync), true, false),
        );
        assert!(!seen(&t));
    }

    #[test]
    fn mp_half_strength_observable() {
        assert!(seen(&make("mp+dep", &catalog::mp(None, true, false))));
        assert!(seen(&make(
            "mp+sync",
            &catalog::mp(Some(Fence::Sync), false, false)
        )));
    }

    #[test]
    fn sb_observable() {
        let t = make("sb", &catalog::sb(None, false, false));
        assert!(seen(&t));
    }

    #[test]
    fn lb_conservatism() {
        let t = make("lb", &catalog::lb(false));
        assert!(!seen(&t), "POWER8 hardware never exhibits LB");
    }

    #[test]
    fn wrc_txn_not_observable() {
        // §5.2 (1): the transaction's integrated memory barrier forbids
        // the WRC shape.
        let t = make("wrc+txn", &catalog::power_exec1());
        assert!(!seen(&t));
    }

    #[test]
    fn wrc_plain_observable() {
        // Without the transaction, WRC is a legal Power weak behaviour.
        let t = make("wrc", &catalog::power_exec1().erase_txns());
        assert!(seen(&t));
    }

    #[test]
    fn wrc_txn_writer_not_observable() {
        // §5.2 (2): transactional stores are multicopy atomic.
        let t = make("wrc+txnw", &catalog::power_exec2());
        assert!(!seen(&t));
    }

    #[test]
    fn iriw_txns_not_observable() {
        // §5.2 (3): transactions serialise.
        let t = make("iriw+txns", &catalog::power_exec3(true));
        assert!(!seen(&t));
    }

    #[test]
    fn iriw_plain_observable() {
        let t = make("iriw", &catalog::power_exec3(true).erase_txns());
        assert!(seen(&t), "IRIW is the canonical non-MCA behaviour");
    }

    #[test]
    fn fig3_shapes_not_observable() {
        for which in ['a', 'b', 'c', 'd'] {
            let t = make("fig3", &catalog::fig3(which));
            assert!(!seen(&t), "fig3({which}) violates strong isolation");
        }
    }

    #[test]
    fn mp_txns_not_observable() {
        let t = make("mp+txns", &catalog::mp(None, false, true));
        assert!(!seen(&t));
    }
}
