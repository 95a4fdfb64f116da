//! Every named execution from the paper, with the verdicts the paper
//! assigns. Used by integration tests, `txmm catalog`, and examples.

use txmm_core::{Attrs, Call, ExecBuilder, Execution, Fence};

/// What the paper says about one execution under one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The model must allow the execution.
    Consistent,
    /// The model must forbid it.
    Forbidden,
}

/// A named execution from the paper plus its expected verdicts.
pub struct CatalogEntry {
    /// Short identifier (used by `txmm catalog`).
    pub name: &'static str,
    /// Where in the paper it appears.
    pub paper_ref: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The execution itself.
    pub exec: Execution,
    /// `(model name, expected verdict)` pairs.
    pub expect: Vec<(&'static str, Expect)>,
}

/// Fig. 1: a plain 3-event execution (two writes to x, one read).
pub fn fig1() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let a = b.write(t0, 0);
    let r = b.read(t0, 0);
    let t1 = b.new_thread();
    let c = b.write(t1, 0);
    b.rf(c, r);
    b.co(a, c);
    b.build().unwrap()
}

/// Fig. 2: Fig. 1 with the first thread's events in a transaction.
pub fn fig2() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let a = b.write(t0, 0);
    let r = b.read(t0, 0);
    let t1 = b.new_thread();
    let c = b.write(t1, 0);
    b.rf(c, r);
    b.co(a, c);
    b.txn(&[a, r]);
    b.build().unwrap()
}

/// Fig. 3 (a)–(d): the four SC executions distinguishing weak from
/// strong isolation.
pub fn fig3(which: char) -> Execution {
    let mut b = ExecBuilder::new();
    match which {
        'a' => {
            let t0 = b.new_thread();
            let r1 = b.read(t0, 0);
            let r2 = b.read(t0, 0);
            let t1 = b.new_thread();
            let w = b.write(t1, 0);
            b.rf(w, r2); // r1 reads the initial value
            b.txn(&[r1, r2]);
        }
        'b' => {
            let t0 = b.new_thread();
            let r = b.read(t0, 0);
            let w1 = b.write(t0, 0);
            let t1 = b.new_thread();
            let w2 = b.write(t1, 0);
            b.co(w2, w1); // r reads init: fr(r, w2)
            b.txn(&[r, w1]);
        }
        'c' => {
            let t0 = b.new_thread();
            let w1 = b.write(t0, 0);
            let w2 = b.write(t0, 0);
            let t1 = b.new_thread();
            let r = b.read(t1, 0);
            b.rf(w1, r);
            b.co(w1, w2);
            b.txn(&[w1, w2]);
        }
        'd' => {
            let t0 = b.new_thread();
            let w1 = b.write(t0, 0);
            let r = b.read(t0, 0);
            let t1 = b.new_thread();
            let w2 = b.write(t1, 0);
            b.rf(w2, r);
            b.co(w1, w2);
            b.txn(&[w1, r]);
        }
        _ => panic!("fig3 variant must be a..d"),
    }
    b.build().unwrap()
}

/// Store buffering, optionally fenced / transactional per thread.
pub fn sb(fence: Option<Fence>, txn0: bool, txn1: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let w0 = b.write(t0, 0);
    if let Some(f) = fence {
        b.fence(t0, f);
    }
    let r0 = b.read(t0, 1);
    let t1 = b.new_thread();
    let w1 = b.write(t1, 1);
    if let Some(f) = fence {
        b.fence(t1, f);
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

/// Message passing; `dep` adds an address dependency between the reads,
/// `fence` separates the writes, `txns` wraps each thread's pair.
pub fn mp(fence: Option<Fence>, dep: bool, txns: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx = b.write(t0, 0);
    let _ = wx;
    if let Some(f) = fence {
        b.fence(t0, f);
    }
    let wy = b.write(t0, 1);
    let t1 = b.new_thread();
    let ry = b.read(t1, 1);
    let rx = b.read(t1, 0);
    if dep {
        b.addr(ry, rx);
    }
    b.rf(wy, ry);
    if txns {
        b.txn(&[wx, wy]);
        b.txn(&[ry, rx]);
    }
    b.build().unwrap()
}

/// Load buffering with optional data dependencies.
pub fn lb(deps: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let r0 = b.read(t0, 0);
    let w0 = b.write(t0, 1);
    let t1 = b.new_thread();
    let r1 = b.read(t1, 1);
    let w1 = b.write(t1, 0);
    if deps {
        b.data(r0, w0);
        b.data(r1, w1);
    }
    b.rf(w0, r1);
    b.rf(w1, r0);
    b.build().unwrap()
}

/// §5.2 execution (1): WRC with a transactional middle thread
/// (integrated memory barrier, tprop1).
pub fn power_exec1() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let a = b.write(t0, 0);
    let t1 = b.new_thread();
    let r = b.read(t1, 0);
    let c = b.write(t1, 1);
    let t2 = b.new_thread();
    let d = b.read(t2, 1);
    let e = b.read(t2, 0);
    b.addr(d, e);
    b.rf(a, r);
    b.rf(c, d);
    b.txn(&[r, c]);
    b.build().unwrap()
}

/// §5.2 execution (2): WRC with a transactional first writer
/// (multicopy-atomic transactional stores, tprop2).
pub fn power_exec2() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let a = b.write(t0, 0);
    let t1 = b.new_thread();
    let r = b.read(t1, 0);
    let c = b.write(t1, 1);
    b.addr(r, c);
    let t2 = b.new_thread();
    let d = b.read(t2, 1);
    let e = b.read(t2, 0);
    b.addr(d, e);
    b.rf(a, r);
    b.rf(c, d);
    b.txn(&[a]);
    b.build().unwrap()
}

/// §5.2 execution (3): IRIW with one or both writers transactional.
pub fn power_exec3(both_txn: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let a = b.write(t0, 0);
    let t1 = b.new_thread();
    let r1 = b.read(t1, 0);
    let r2 = b.read(t1, 1);
    b.addr(r1, r2);
    let t2 = b.new_thread();
    let r3 = b.read(t2, 1);
    let r4 = b.read(t2, 0);
    b.addr(r3, r4);
    let t3 = b.new_thread();
    let f = b.write(t3, 1);
    b.rf(a, r1);
    b.rf(f, r3);
    b.txn(&[a]);
    if both_txn {
        b.txn(&[f]);
    }
    b.build().unwrap()
}

/// Remark 5.1: read-only-transaction variants the model errs towards
/// permitting. `second` selects the co-variant.
pub fn remark51(second: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let a = b.write(t0, 0);
    let t1 = b.new_thread();
    let r1 = b.read(t1, 0);
    let r2 = b.read(t1, 1);
    let t2 = b.new_thread();
    let _d = b.write(t2, 1);
    b.fence(t2, Fence::Sync);
    if second {
        let e = b.write(t2, 0);
        b.co(e, a);
    } else {
        let _e = b.read(t2, 0); // reads initial x: fr to a
    }
    b.rf(a, r1);
    b.txn(&[r1, r2]);
    b.build().unwrap()
}

/// §8.1: the monotonicity counterexample — an rmw pair split across two
/// transactions (`split = true`) vs coalesced into one (`split = false`).
pub fn rmw_txn(split: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let r = b.read(t0, 0);
    let w = b.write(t0, 0);
    b.rmw(r, w);
    if split {
        b.txn(&[r]);
        b.txn(&[w]);
    } else {
        b.txn(&[r, w]);
    }
    b.build().unwrap()
}

/// §9: the execution distinguishing this paper's models from Dongol et
/// al.'s (forbidden by C++, so compilation demands hardware forbid it).
pub fn dongol() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx = b.write(t0, 0);
    let wy = b.write(t0, 1);
    let t1 = b.new_thread();
    let ry = b.read(t1, 1);
    let rx = b.read(t1, 0);
    b.rf(wy, ry);
    let _ = (wx, rx);
    b.txn(&[wx, wy]);
    b.txn(&[ry, rx]);
    b.build().unwrap()
}

/// Example 1.1 / Fig. 10 (right): the concrete ARMv8 execution showing
/// lock elision unsound. `dmb_fix` appends the DMB of §1.1's proposed
/// repair to the lock implementation.
///
/// Thread 0 runs the recommended spinlock around `x += 2`; thread 1
/// elides its lock and runs `x = 1` in a transaction that read the lock
/// as free. The postcondition `x = 2` (mutual-exclusion violation)
/// corresponds to exactly this execution.
pub fn armv8_elision(dmb_fix: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    // lock(): LDAXR m; STXR m (successful RMW), ctrl from the
    // acquire-load.
    let a = b.read_acq(t0, 1);
    let bw = b.write(t0, 1);
    b.rmw(a, bw);
    b.ctrl(a, bw);
    if dmb_fix {
        b.fence(t0, Fence::Dmb);
    }
    // critical region: x += 2 (load feeds store).
    let c = b.read(t0, 0);
    let d = b.write(t0, 0);
    b.data(c, d);
    // unlock(): STLR m.
    let e = b.write_rel(t0, 1);
    let t1 = b.new_thread();
    // elided CR: txn { read m (sees it free), x = 1 }.
    let f = b.read(t1, 1);
    let g = b.write(t1, 0);
    b.ctrl(f, g);
    b.txn(&[f, g]);
    // m: lock write then unlock write; x: txn's write then x+=2's write.
    b.co(bw, e);
    b.co(g, d);
    // All reads observe initial values (a and f see the lock free; c
    // misses the transaction's write).
    b.build().unwrap()
}

/// Appendix B: the second ARMv8 elision witness — an external load
/// observes a critical region's intermediate write.
pub fn armv8_elision_appendix_b(dmb_fix: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let a = b.read_acq(t0, 1);
    let bw = b.write(t0, 1);
    b.rmw(a, bw);
    b.ctrl(a, bw);
    if dmb_fix {
        b.fence(t0, Fence::Dmb);
    }
    // critical region: x = 1; x = 2.
    let c = b.write(t0, 0);
    let d = b.write(t0, 0);
    let e = b.write_rel(t0, 1);
    let t1 = b.new_thread();
    // elided CR: txn { read m, read x } — reads the intermediate x = 1.
    let f = b.read(t1, 1);
    let g = b.read(t1, 0);
    b.ctrl(f, g);
    b.txn(&[f, g]);
    b.co(bw, e);
    b.co(c, d);
    b.rf(c, g);
    b.build().unwrap()
}

/// The x86 analogue of the elision witness: forbidden, because the
/// LOCK'd RMW acquiring the lock is ordered before the critical region
/// (`implied = [L];po`).
pub fn x86_elision() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    // lock(): test (read m) then test-and-set (RMW on m).
    let t = b.read(t0, 1);
    let a = b.read(t0, 1);
    let bw = b.write(t0, 1);
    b.rmw(a, bw);
    b.ctrl(a, bw);
    let _ = t;
    // critical region: x += 2.
    let c = b.read(t0, 0);
    let d = b.write(t0, 0);
    b.data(c, d);
    // unlock(): plain store.
    let e = b.write(t0, 1);
    let t1 = b.new_thread();
    let f = b.read(t1, 1);
    let g = b.write(t1, 0);
    b.ctrl(f, g);
    b.txn(&[f, g]);
    b.co(bw, e);
    b.co(g, d);
    b.build().unwrap()
}

/// The Power analogue of the elision witness, with the spinlock of
/// [29, §B.2.1.1]: larx/stcx + ctrl(+isync) from the store-exclusive
/// (footnote 3), and a sync-fenced unlock.
///
/// Under Fig. 6 *as printed* this execution is consistent (see the
/// README's Fidelity section: the paper's own check timed out as
/// Unknown).
pub fn power_elision() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let a = b.read(t0, 1);
    let bw = b.write(t0, 1);
    b.rmw(a, bw);
    b.ctrl(a, bw);
    b.fence(t0, Fence::Isync);
    let c = b.read(t0, 0);
    let d = b.write(t0, 0);
    b.data(c, d);
    // ctrl from the store-exclusive to the CR (footnote 3).
    b.ctrl(bw, c);
    b.ctrl(bw, d);
    b.fence(t0, Fence::Sync);
    let e = b.write(t0, 1);
    let t1 = b.new_thread();
    let f = b.read(t1, 1);
    let g = b.write(t1, 0);
    b.ctrl(f, g);
    b.txn(&[f, g]);
    b.co(bw, e);
    b.co(g, d);
    b.build().unwrap()
}

/// The complete catalog with expected verdicts.
pub fn all() -> Vec<CatalogEntry> {
    use Expect::{Consistent, Forbidden};
    vec![
        CatalogEntry {
            name: "fig1",
            paper_ref: "Fig. 1",
            description: "plain execution: Wx; Rx ∥ Wx, read observes the external write",
            exec: fig1(),
            expect: vec![
                ("SC", Consistent),
                ("x86", Consistent),
                ("x86-tm", Consistent),
            ],
        },
        CatalogEntry {
            name: "fig2",
            paper_ref: "Fig. 2",
            description: "Fig. 1 with the W;R pair transactional: containment violation",
            exec: fig2(),
            expect: vec![
                ("x86", Consistent),
                ("x86-tm", Forbidden),
                ("power-tm", Forbidden),
                ("armv8-tm", Forbidden),
                ("TSC", Forbidden),
            ],
        },
        CatalogEntry {
            name: "fig3a",
            paper_ref: "Fig. 3(a)",
            description: "non-interference: external write splits a transaction's two reads",
            exec: fig3('a'),
            expect: vec![
                ("SC", Consistent),
                ("TSC", Forbidden),
                ("x86-tm", Forbidden),
            ],
        },
        CatalogEntry {
            name: "fig3b",
            paper_ref: "Fig. 3(b)",
            description: "RMW-style isolation: external write between a txn's read and write",
            exec: fig3('b'),
            expect: vec![
                ("SC", Consistent),
                ("TSC", Forbidden),
                ("x86-tm", Forbidden),
            ],
        },
        CatalogEntry {
            name: "fig3c",
            paper_ref: "Fig. 3(c)",
            description: "intermediate-value leak: external read sees a txn's first write",
            exec: fig3('c'),
            expect: vec![
                ("SC", Consistent),
                ("TSC", Forbidden),
                ("x86-tm", Forbidden),
            ],
        },
        CatalogEntry {
            name: "fig3d",
            paper_ref: "Fig. 3(d)",
            description: "containment: txn's read observes an external write co-after its own",
            exec: fig3('d'),
            expect: vec![
                ("SC", Consistent),
                ("TSC", Forbidden),
                ("x86-tm", Forbidden),
            ],
        },
        CatalogEntry {
            name: "sb",
            paper_ref: "§5.1",
            description: "store buffering: the hallmark x86 relaxation",
            exec: sb(None, false, false),
            expect: vec![
                ("SC", Forbidden),
                ("x86", Consistent),
                ("power", Consistent),
                ("armv8", Consistent),
            ],
        },
        CatalogEntry {
            name: "sb+mfence",
            paper_ref: "§5.1",
            description: "store buffering fenced with MFENCE",
            exec: sb(Some(Fence::MFence), false, false),
            expect: vec![("x86", Forbidden), ("x86-tm", Forbidden)],
        },
        CatalogEntry {
            name: "sb+txns",
            paper_ref: "§3.4",
            description: "store buffering with both sides transactional",
            exec: sb(None, true, true),
            expect: vec![
                ("x86", Consistent),
                ("x86-tm", Forbidden),
                ("power-tm", Forbidden),
                ("armv8-tm", Forbidden),
                ("TSC", Forbidden),
            ],
        },
        CatalogEntry {
            name: "mp",
            paper_ref: "§5.1",
            description: "message passing, plain",
            exec: mp(None, false, false),
            expect: vec![
                ("SC", Forbidden),
                ("x86", Forbidden),
                ("power", Consistent),
                ("armv8", Consistent),
            ],
        },
        CatalogEntry {
            name: "mp+sync+addr",
            paper_ref: "§5.1",
            description: "message passing with sync and an address dependency",
            exec: mp(Some(Fence::Sync), true, false),
            expect: vec![("power", Forbidden), ("power-tm", Forbidden)],
        },
        CatalogEntry {
            name: "mp+txns",
            paper_ref: "§5.2",
            description: "message passing with both sides transactional",
            exec: mp(None, false, true),
            expect: vec![
                ("power", Consistent),
                ("power-tm", Forbidden),
                ("armv8-tm", Forbidden),
                ("x86-tm", Forbidden),
            ],
        },
        CatalogEntry {
            name: "lb",
            paper_ref: "§5.3",
            description: "load buffering (allowed by Power, never observed on hardware)",
            exec: lb(false),
            expect: vec![
                ("power", Consistent),
                ("armv8", Consistent),
                ("x86", Forbidden),
            ],
        },
        CatalogEntry {
            name: "lb+deps",
            paper_ref: "§5.3",
            description: "load buffering with data dependencies (thin air)",
            exec: lb(true),
            expect: vec![("power", Forbidden), ("armv8", Forbidden)],
        },
        CatalogEntry {
            name: "power-exec1",
            paper_ref: "§5.2 (1)",
            description: "WRC with transactional middle thread: integrated memory barrier",
            exec: power_exec1(),
            expect: vec![("power-tm", Forbidden)],
        },
        CatalogEntry {
            name: "power-exec2",
            paper_ref: "§5.2 (2)",
            description: "WRC with transactional writer: transactional stores are MCA",
            exec: power_exec2(),
            expect: vec![("power-tm", Forbidden)],
        },
        CatalogEntry {
            name: "power-exec3",
            paper_ref: "§5.2 (3)",
            description: "IRIW with both writers transactional: serialisation order",
            exec: power_exec3(true),
            expect: vec![("power-tm", Forbidden)],
        },
        CatalogEntry {
            name: "power-exec3-one-txn",
            paper_ref: "§5.2",
            description: "IRIW with a single transactional writer: observed on hardware",
            exec: power_exec3(false),
            expect: vec![("power-tm", Consistent)],
        },
        CatalogEntry {
            name: "remark51-1",
            paper_ref: "Remark 5.1",
            description: "read-only transaction, fr variant: deliberately permitted",
            exec: remark51(false),
            expect: vec![("power-tm", Consistent)],
        },
        CatalogEntry {
            name: "remark51-2",
            paper_ref: "Remark 5.1",
            description: "read-only transaction, co variant: deliberately permitted",
            exec: remark51(true),
            expect: vec![("power-tm", Consistent)],
        },
        CatalogEntry {
            name: "rmw-split",
            paper_ref: "§8.1",
            description: "rmw straddling two transactions: TxnCancelsRMW",
            exec: rmw_txn(true),
            expect: vec![
                ("power-tm", Forbidden),
                ("armv8-tm", Forbidden),
                ("x86-tm", Consistent),
            ],
        },
        CatalogEntry {
            name: "rmw-coalesced",
            paper_ref: "§8.1",
            description: "the same rmw inside one transaction: consistent (monotonicity c'ex)",
            exec: rmw_txn(false),
            expect: vec![("power-tm", Consistent), ("armv8-tm", Consistent)],
        },
        CatalogEntry {
            name: "dongol",
            paper_ref: "§9",
            description: "MP with transactional pairs: forbidden here, allowed by Dongol et al.",
            exec: dongol(),
            expect: vec![
                ("power-tm", Forbidden),
                ("armv8-tm", Forbidden),
                ("x86-tm", Forbidden),
            ],
        },
        CatalogEntry {
            name: "armv8-elision",
            paper_ref: "Ex. 1.1 / Fig. 10",
            description: "ARMv8 lock-elision witness: CONSISTENT = the bug",
            exec: armv8_elision(false),
            expect: vec![("armv8-tm", Consistent)],
        },
        CatalogEntry {
            name: "armv8-elision-dmb",
            paper_ref: "§1.1",
            description: "the same execution with the DMB repair: forbidden",
            exec: armv8_elision(true),
            expect: vec![("armv8-tm", Forbidden)],
        },
        CatalogEntry {
            name: "armv8-elision-appb",
            paper_ref: "App. B",
            description: "second witness: external load sees an intermediate CR write",
            exec: armv8_elision_appendix_b(false),
            expect: vec![("armv8-tm", Consistent)],
        },
        CatalogEntry {
            name: "armv8-elision-appb-dmb",
            paper_ref: "App. B",
            description: "Appendix B witness with the DMB repair: forbidden",
            exec: armv8_elision_appendix_b(true),
            expect: vec![("armv8-tm", Forbidden)],
        },
        CatalogEntry {
            name: "x86-elision",
            paper_ref: "§8.3",
            description: "x86 elision analogue: forbidden (LOCK'd RMW orders the CR)",
            exec: x86_elision(),
            expect: vec![("x86-tm", Forbidden)],
        },
        CatalogEntry {
            name: "power-elision",
            paper_ref: "§8.3 / Table 2",
            description:
                "Power elision analogue (paper: Unknown after timeout; see README, Fidelity)",
            exec: power_elision(),
            expect: vec![("power-tm", Consistent)],
        },
    ]
}

/// C++ executions live in their own list because their expectations also
/// cover race-freedom.
pub fn cpp_mp(rel_acq: bool, txns: bool) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx = b.write(t0, 0);
    let wy = if rel_acq {
        b.write_ato(t0, 1, Attrs::REL)
    } else {
        b.write_ato(t0, 1, Attrs::NONE)
    };
    let t1 = b.new_thread();
    let ry = if rel_acq {
        b.read_ato(t1, 1, Attrs::ACQ)
    } else {
        b.read_ato(t1, 1, Attrs::NONE)
    };
    let rx = b.read(t1, 0);
    b.rf(wy, ry);
    if txns {
        b.txn_atomic(&[wx]);
        b.txn_atomic(&[rx]);
    }
    b.build().unwrap()
}

/// An abstract lock-elision execution (Fig. 10 left): two critical
/// regions over `x`, the second elided, violating mutual exclusion.
pub fn elision_abstract() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    b.call(t0, Call::Lock);
    let c = b.read(t0, 0);
    let d = b.write(t0, 0);
    b.data(c, d);
    b.call(t0, Call::Unlock);
    let t1 = b.new_thread();
    b.call(t1, Call::TLock);
    let g = b.write(t1, 0);
    b.call(t1, Call::TUnlock);
    b.co(g, d);
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::registry::by_name;

    #[test]
    fn catalog_matches_paper_verdicts() {
        for entry in all() {
            for (model_name, expect) in &entry.expect {
                let model =
                    by_name(model_name).unwrap_or_else(|| panic!("unknown model {model_name}"));
                let verdict = model.check(&entry.exec);
                let want = matches!(expect, Expect::Consistent);
                assert_eq!(
                    verdict.is_consistent(),
                    want,
                    "{} under {}: expected {:?}, got {}",
                    entry.name,
                    model_name,
                    expect,
                    verdict,
                );
            }
        }
    }

    #[test]
    fn catalog_executions_wellformed() {
        for entry in all() {
            assert!(entry.exec.check_wf().is_ok(), "{} ill-formed", entry.name);
        }
    }

    #[test]
    fn elision_abstract_violates_cr_order() {
        use txmm_core::weaklift;
        let x = elision_abstract();
        let lift = weaklift(&x.po().union(&x.com()), &x.scr());
        assert!(
            !lift.is_acyclic(),
            "CROrder must reject the abstract execution"
        );
    }

    #[test]
    fn cpp_mp_variants() {
        use crate::cpp::Cpp;
        let racy = cpp_mp(false, false);
        assert!(Cpp::tm().racy(&racy));
        let sound = cpp_mp(true, false);
        assert!(!Cpp::tm().racy(&sound));
        assert!(!Cpp::tm().consistent(&sound), "stale read forbidden");
    }
}
