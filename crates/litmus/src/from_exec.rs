//! Constructing a litmus test from an execution (§2.2, §3.2).
//!
//! Each store writes a unique non-zero value per location; each read's
//! register is checked against the value of the write it observes (0 for
//! the initial value); the final value of every multi-write location pins
//! the coherence order; and each transaction contributes an `ok` flag
//! checked to be 1 (§3.2).

use txmm_core::{EventId, EventKind, Execution};
use txmm_models::Arch;

use crate::ast::{AccessMode, Check, Dep, DepKind, Instr, LitmusTest, Op};

/// Assign each write a value: 1 + its position in the coherence order of
/// its location (so the co-maximal write has the largest value).
pub fn write_values(x: &Execution) -> Vec<u32> {
    let mut vals = vec![0u32; x.len()];
    for l in x.locations() {
        let mut ws: Vec<EventId> = x.writes().inter(x.at_loc(l)).iter().collect();
        ws.sort_by(|&a, &b| {
            if x.co().contains(a, b) {
                std::cmp::Ordering::Less
            } else if x.co().contains(b, a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        for (i, &w) in ws.iter().enumerate() {
            vals[w] = (i + 1) as u32;
        }
    }
    vals
}

/// Convert an execution into a litmus test for `arch`.
///
/// The construction follows §2.2 extended with transactions per §3.2;
/// dependency edges become [`Dep`] annotations that the renderers expand
/// into the standard idioms and that the simulators enforce.
pub fn litmus_from_execution(name: &str, x: &Execution, arch: Arch) -> LitmusTest {
    let wv = write_values(x);
    let mut post = Vec::new();
    let mut threads = Vec::new();

    // Map event -> (thread, instruction index) for dependency targets.
    let mut instr_index = vec![(0usize, 0usize); x.len()];
    let mut next_txn = 0usize;

    for tid in 0..x.num_threads() {
        let mut instrs: Vec<Instr> = Vec::new();
        let mut next_reg = 0usize;
        let mut open_txn: Option<usize> = None;
        for e in x.thread_events(tid as u8) {
            // Close/open transactions at class boundaries (adjacent
            // transactions need an explicit TxEnd before the next
            // TxBegin).
            if let Some(ti) = x.txn_of(e) {
                if open_txn != Some(ti) {
                    if open_txn.is_some() {
                        instrs.push(Instr::plain(Op::TxEnd));
                    }
                    let txn_id = next_txn;
                    next_txn += 1;
                    instrs.push(Instr::plain(Op::TxBegin {
                        txn_id,
                        atomic: x.txns()[ti].atomic,
                    }));
                    post.push(Check::TxnOk { txn_id });
                    open_txn = Some(ti);
                }
            } else if open_txn.is_some() {
                instrs.push(Instr::plain(Op::TxEnd));
                open_txn = None;
            }

            let ev = x.event(e);
            let exclusive = x.rmw().domain().contains(e) || x.rmw().range().contains(e);
            let deps: Vec<Dep> = {
                let mut d = Vec::new();
                for (kind, rel) in [
                    (DepKind::Addr, x.addr()),
                    (DepKind::Data, x.data()),
                    (DepKind::Ctrl, x.ctrl()),
                ] {
                    for (src, dst) in rel.pairs() {
                        if dst == e {
                            d.push(Dep {
                                on: instr_index[src].1,
                                kind,
                            });
                        }
                    }
                }
                d
            };
            let op = match ev.kind {
                EventKind::Read => {
                    let reg = next_reg;
                    next_reg += 1;
                    let expected = x
                        .rf()
                        .inverse()
                        .row(e)
                        .iter()
                        .next()
                        .map(|w| wv[w])
                        .unwrap_or(0);
                    post.push(Check::Reg {
                        tid,
                        reg,
                        value: expected,
                    });
                    Op::Load {
                        reg,
                        loc: ev.loc.expect("read has a location"),
                        mode: AccessMode::from_attrs(ev.attrs, exclusive),
                    }
                }
                EventKind::Write => Op::Store {
                    loc: ev.loc.expect("write has a location"),
                    value: wv[e],
                    mode: AccessMode::from_attrs(ev.attrs, exclusive),
                },
                EventKind::Fence(f) => Op::Fence(f, ev.attrs),
                EventKind::Call(c) => Op::LockCall(c.symbol()),
            };
            instr_index[e] = (tid, instrs.len());
            instrs.push(Instr { op, deps });
        }
        if open_txn.is_some() {
            instrs.push(Instr::plain(Op::TxEnd));
        }
        threads.push(instrs);
    }

    // Pin the coherence order: final value of every location with >= 2
    // writes (the co-maximal write's value); with three or more writes
    // the intermediate edges also need pinning (footnote 2), which the
    // simulated hardware exposes as the full coherence sequence.
    for l in x.locations() {
        let ws = x.writes().inter(x.at_loc(l));
        if ws.len() >= 2 {
            let max = ws
                .iter()
                .max_by_key(|&w| wv[w])
                .expect("non-empty write set");
            post.push(Check::Loc {
                loc: l,
                value: wv[max],
            });
        }
        if ws.len() >= 3 {
            let mut ordered: Vec<u32> = ws.iter().map(|w| wv[w]).collect();
            ordered.sort_unstable();
            post.push(Check::CoSeq {
                loc: l,
                values: ordered,
            });
        }
    }

    LitmusTest {
        name: name.to_string(),
        arch,
        threads,
        post,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::ExecBuilder;
    use txmm_models::catalog;

    #[test]
    fn fig1_values_and_postcondition() {
        // Fig. 1: a: Wx(1); b: Rx observes c; c: Wx(2); co a->c.
        let x = catalog::fig1();
        let wv = write_values(&x);
        assert_eq!(wv[0], 1);
        assert_eq!(wv[2], 2);
        let t = litmus_from_execution("fig1", &x, Arch::X86);
        // Postcondition: r0 = 2 ∧ x = 2 (matching the figure).
        assert!(t.post.contains(&Check::Reg {
            tid: 0,
            reg: 0,
            value: 2
        }));
        assert!(t.post.contains(&Check::Loc { loc: 0, value: 2 }));
        assert_eq!(t.num_txns(), 0);
    }

    #[test]
    fn fig2_adds_ok_flag() {
        let x = catalog::fig2();
        let t = litmus_from_execution("fig2", &x, Arch::X86);
        assert_eq!(t.num_txns(), 1);
        assert!(t.post.contains(&Check::TxnOk { txn_id: 0 }));
        // Transaction bracketed: TxBegin before the write, TxEnd after
        // the read.
        let ops: Vec<_> = t.threads[0].iter().map(|i| &i.op).collect();
        assert!(matches!(ops[0], Op::TxBegin { .. }));
        assert!(matches!(ops.last().unwrap(), Op::TxEnd));
    }

    #[test]
    fn init_reads_expect_zero() {
        let x = catalog::sb(None, false, false);
        let t = litmus_from_execution("sb", &x, Arch::X86);
        let zero_regs = t
            .post
            .iter()
            .filter(|c| matches!(c, Check::Reg { value: 0, .. }))
            .count();
        assert_eq!(zero_regs, 2, "both SB reads observe initial values");
    }

    #[test]
    fn deps_annotated() {
        let x = catalog::mp(None, true, false);
        let t = litmus_from_execution("mp+dep", &x, Arch::Power);
        // Thread 1: Ry then Rx with an addr dep on instruction 0.
        let second = &t.threads[1][1];
        assert_eq!(
            second.deps,
            vec![Dep {
                on: 0,
                kind: DepKind::Addr
            }]
        );
    }

    #[test]
    fn exclusive_flag_set_for_rmw() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 0);
        b.rmw(r, w);
        let x = b.build().unwrap();
        let t = litmus_from_execution("rmw", &x, Arch::Armv8);
        for i in &t.threads[0] {
            match &i.op {
                Op::Load { mode, .. } | Op::Store { mode, .. } => assert!(mode.exclusive),
                _ => {}
            }
        }
    }

    #[test]
    fn middle_txn_brackets() {
        // A transaction in the middle of a thread gets both TxBegin and
        // TxEnd in the right places.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _w0 = b.write(t0, 0);
        let r = b.read(t0, 1);
        let w = b.write(t0, 2);
        b.txn(&[r, w]);
        let _r2 = b.read(t0, 3);
        let x = b.build().unwrap();
        let t = litmus_from_execution("mid", &x, Arch::X86);
        let ops: Vec<_> = t.threads[0].iter().map(|i| &i.op).collect();
        assert!(matches!(ops[0], Op::Store { .. }));
        assert!(matches!(ops[1], Op::TxBegin { .. }));
        assert!(matches!(ops[4], Op::TxEnd));
        assert!(matches!(ops[5], Op::Load { .. }));
    }

    #[test]
    fn co_pinned_only_with_multiple_writes() {
        let x = catalog::mp(None, false, false);
        let t = litmus_from_execution("mp", &x, Arch::Power);
        assert!(
            !t.post.iter().any(|c| matches!(c, Check::Loc { .. })),
            "single-write locations need no final check"
        );
    }
}
