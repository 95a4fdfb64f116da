//! x86-TSO with TSX transactions as an ordering table (after Owens et
//! al.'s TSO machine, TPHOLs 2009). Instructions commit in program
//! order, except that a load may commit before an earlier store outside
//! a transaction (the store buffer), reading the latest such store to
//! its own location (forwarding). Fences, transaction boundaries and
//! `LOCK`'d loads pass nothing, and a `LOCK`'d RMW commits as one
//! instruction. Transactions follow Intel TSX: a conflicting access by
//! another thread aborts them (requester wins, strong isolation), and a
//! commit publishes the write set atomically.

use txmm_litmus::{Instr, Op};

use crate::machine::Rules;

pub(crate) const X86: Rules = Rules {
    ordered,
    multicopy_atomic: true,
    locked_rmw: true,
    plain_loads_abort: false,
};

/// Must `j` commit before the later `i`? Only a load that is not
/// `LOCK`'d may pass an earlier store outside a transaction.
fn ordered(instrs: &[Instr], j: usize, i: usize) -> bool {
    let buffered = matches!(instrs[j].op, Op::Store { .. }) && !in_txn(instrs, j);
    !(buffered && matches!(instrs[i].op, Op::Load { mode, .. } if !mode.exclusive))
}

/// Is instruction `j` inside a transaction?
fn in_txn(instrs: &[Instr], j: usize) -> bool {
    instrs[..j]
        .iter()
        .rev()
        .find_map(|x| match x.op {
            Op::TxBegin { .. } => Some(true),
            Op::TxEnd => Some(false),
            _ => None,
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use txmm_core::Fence;
    use txmm_litmus::{litmus_from_execution, LitmusTest};
    use txmm_models::{catalog, Arch};

    fn make(name: &str, x: &txmm_core::Execution) -> LitmusTest {
        litmus_from_execution(name, x, Arch::X86)
    }

    fn seen(t: &LitmusTest) -> bool {
        crate::observable(t).expect("the x86 machine runs it")
    }

    #[test]
    fn sb_observable() {
        let t = make("sb", &catalog::sb(None, false, false));
        assert!(seen(&t), "store buffering is the hallmark TSO relaxation");
    }

    #[test]
    fn sb_mfence_not_observable() {
        let t = make("sb+mfence", &catalog::sb(Some(Fence::MFence), false, false));
        assert!(!seen(&t));
    }

    #[test]
    fn sb_both_txns_not_observable() {
        let t = make("sb+txns", &catalog::sb(None, true, true));
        assert!(!seen(&t), "transactions forbid SB between them");
    }

    #[test]
    fn sb_one_txn_observable() {
        let t = make("sb+txn0", &catalog::sb(None, true, false));
        assert!(seen(&t), "a single transactional thread leaves SB visible");
    }

    #[test]
    fn mp_not_observable() {
        let t = make("mp", &catalog::mp(None, false, false));
        assert!(!seen(&t), "TSO preserves W->W and R->R order");
    }

    #[test]
    fn fig1_observable() {
        let t = make("fig1", &catalog::fig1());
        assert!(seen(&t));
    }

    #[test]
    fn fig2_txn_not_observable() {
        // Fig. 2: the transaction's read must not observe an external
        // write that is co-after its own write (containment).
        let t = make("fig2", &catalog::fig2());
        assert!(!seen(&t));
    }

    #[test]
    fn fig3_shapes_not_observable() {
        for which in ['a', 'b', 'c', 'd'] {
            let t = make("fig3", &catalog::fig3(which));
            assert!(!seen(&t), "fig3({which}) violates strong isolation");
        }
    }

    #[test]
    fn locked_rmw_forbids_sb() {
        let mut b = txmm_core::ExecBuilder::new();
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
        let x = b.build().unwrap();
        let t = make("sb+rmws", &x);
        assert!(!seen(&t));
    }

    #[test]
    fn outcome_count_sanity() {
        // A single thread storing then loading always sees its own store
        // (forwarding): exactly one outcome.
        let mut b = txmm_core::ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(w, r);
        let x = b.build().unwrap();
        let t = make("fwd", &x);
        let outs = crate::run(&t).expect("the x86 machine runs it");
        assert_eq!(outs.len(), 1);
        assert!(seen(&t));
    }

    #[test]
    fn x86_elision_witness_not_observable() {
        // §8.3: lock elision is sound on x86 — the witness that breaks
        // ARMv8 cannot happen under TSO.
        let t = make("x86-elision", &catalog::x86_elision());
        assert!(!seen(&t));
    }

    #[test]
    fn conflicting_txns_serialise() {
        // Two transactions incrementing the same location: the final
        // value must reflect both (no lost update), because conflicting
        // transactions cannot interleave.
        let mut b = txmm_core::ExecBuilder::new();
        let t0 = b.new_thread();
        let r0 = b.read(t0, 0);
        let w0 = b.write(t0, 0);
        b.txn(&[r0, w0]);
        let t1 = b.new_thread();
        let r1 = b.read(t1, 0);
        let w1 = b.write(t1, 0);
        b.txn(&[r1, w1]);
        // The interleaved execution: both reads see 0, t0's write first.
        b.co(w0, w1);
        let x = b.build().unwrap();
        let t = make("lost-update", &x);
        // Postcondition wants r0 = 0 ∧ r1 = 0 ∧ both committed: lost
        // update, must be unobservable.
        assert!(!seen(&t));
    }
}
