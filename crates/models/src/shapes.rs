//! The classic litmus-test families (the `diy` seven and friends),
//! parameterised by fences, dependencies and transactions.
//!
//! These complement [`crate::catalog`]: where the catalog holds the
//! paper's named executions, this module generates whole families used
//! by the conformance and cross-validation suites.

use txmm_core::{ExecBuilder, Execution, Fence};

/// How to strengthen one side of a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Strength {
    /// Insert this fence between the thread's two accesses.
    pub fence: Option<Fence>,
    /// Add an address dependency (only meaningful after a read).
    pub dep: bool,
    /// Wrap the thread's accesses in a transaction.
    pub txn: bool,
}

impl Strength {
    /// No strengthening.
    pub const PLAIN: Strength = Strength {
        fence: None,
        dep: false,
        txn: false,
    };

    /// Just a transaction.
    pub const TXN: Strength = Strength {
        fence: None,
        dep: false,
        txn: true,
    };
}

fn finish2(b: &mut ExecBuilder, t: u8, first: usize, second: usize, s: Strength) {
    if s.dep {
        b.addr(first, second);
    }
    if s.txn {
        b.txn(&[first, second]);
    }
    let _ = t;
}

/// Message passing: `Wx; Wy ∥ Ry; Rx` with `rf` on y and `Rx` stale.
pub fn mp(s0: Strength, s1: Strength) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx = b.write(t0, 0);
    if let Some(f) = s0.fence {
        b.fence(t0, f);
    }
    let wy = b.write(t0, 1);
    if s0.txn {
        b.txn(&[wx, wy]);
    }
    let t1 = b.new_thread();
    let ry = b.read(t1, 1);
    if let Some(f) = s1.fence {
        b.fence(t1, f);
    }
    let rx = b.read(t1, 0);
    b.rf(wy, ry);
    finish2(&mut b, t1, ry, rx, Strength { fence: None, ..s1 });
    b.build().expect("mp well-formed")
}

/// Store buffering: `Wx; Ry ∥ Wy; Rx`, both reads stale.
pub fn sb(s0: Strength, s1: Strength) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx = b.write(t0, 0);
    if let Some(f) = s0.fence {
        b.fence(t0, f);
    }
    let ry = b.read(t0, 1);
    if s0.txn {
        b.txn(&[wx, ry]);
    }
    let t1 = b.new_thread();
    let wy = b.write(t1, 1);
    if let Some(f) = s1.fence {
        b.fence(t1, f);
    }
    let rx = b.read(t1, 0);
    if s1.txn {
        b.txn(&[wy, rx]);
    }
    b.build().expect("sb well-formed")
}

/// Load buffering: `Rx; Wy ∥ Ry; Wx` with both reads satisfied by the
/// other thread's write.
pub fn lb(s0: Strength, s1: Strength) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let rx = b.read(t0, 0);
    if let Some(f) = s0.fence {
        b.fence(t0, f);
    }
    let wy = b.write(t0, 1);
    if s0.dep {
        b.data(rx, wy);
    }
    if s0.txn {
        b.txn(&[rx, wy]);
    }
    let t1 = b.new_thread();
    let ry = b.read(t1, 1);
    if let Some(f) = s1.fence {
        b.fence(t1, f);
    }
    let wx = b.write(t1, 0);
    if s1.dep {
        b.data(ry, wx);
    }
    if s1.txn {
        b.txn(&[ry, wx]);
    }
    b.rf(wy, ry);
    b.rf(wx, rx);
    b.build().expect("lb well-formed")
}

/// 2+2W: `Wx=2; Wy=1 ∥ Wy=2; Wx=1` with each location's *first* writer
/// coherence-last.
#[cfg(test)]
pub(crate) fn w2plus2(s0: Strength, s1: Strength) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx2 = b.write(t0, 0);
    if let Some(f) = s0.fence {
        b.fence(t0, f);
    }
    let wy1 = b.write(t0, 1);
    if s0.txn {
        b.txn(&[wx2, wy1]);
    }
    let t1 = b.new_thread();
    let wy2 = b.write(t1, 1);
    if let Some(f) = s1.fence {
        b.fence(t1, f);
    }
    let wx1 = b.write(t1, 0);
    if s1.txn {
        b.txn(&[wy2, wx1]);
    }
    b.co(wx1, wx2);
    b.co(wy1, wy2);
    b.build().expect("2+2w well-formed")
}

/// S: `Wx=2; Wy ∥ Ry; Wx=1` with `rf` on y and `Wx=1` coherence-before
/// `Wx=2`.
#[cfg(test)]
pub(crate) fn s_shape(s0: Strength, s1: Strength) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx2 = b.write(t0, 0);
    if let Some(f) = s0.fence {
        b.fence(t0, f);
    }
    let wy = b.write(t0, 1);
    if s0.txn {
        b.txn(&[wx2, wy]);
    }
    let t1 = b.new_thread();
    let ry = b.read(t1, 1);
    if let Some(f) = s1.fence {
        b.fence(t1, f);
    }
    let wx1 = b.write(t1, 0);
    if s1.dep {
        b.data(ry, wx1);
    }
    if s1.txn {
        b.txn(&[ry, wx1]);
    }
    b.rf(wy, ry);
    b.co(wx1, wx2);
    b.build().expect("s well-formed")
}

/// R: `Wx=1; Wy=1 ∥ Wy=2; Rx` with `Rx` stale and `Wy=1` co-before `Wy=2`.
#[cfg(test)]
pub(crate) fn r_shape(s0: Strength, s1: Strength) -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx = b.write(t0, 0);
    if let Some(f) = s0.fence {
        b.fence(t0, f);
    }
    let wy1 = b.write(t0, 1);
    if s0.txn {
        b.txn(&[wx, wy1]);
    }
    let t1 = b.new_thread();
    let wy2 = b.write(t1, 1);
    if let Some(f) = s1.fence {
        b.fence(t1, f);
    }
    let rx = b.read(t1, 0);
    if s1.txn {
        b.txn(&[wy2, rx]);
    }
    b.co(wy1, wy2);
    b.build().expect("r well-formed")
}

/// Coherence sanity shapes: CoRR (two reads of one location must not see
/// writes in anti-coherence order) and CoWW (a thread's own writes are
/// coherence-ordered).
#[cfg(test)]
pub(crate) fn corr_violation() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let w1 = b.write(t0, 0);
    let t1 = b.new_thread();
    let w2 = b.write(t1, 0);
    let t2 = b.new_thread();
    let r1 = b.read(t2, 0);
    let r2 = b.read(t2, 0);
    b.rf(w2, r1);
    b.rf(w1, r2);
    b.co(w1, w2);
    b.build().expect("corr well-formed")
}

/// CoWW violation: a thread's second write coherence-before its first.
#[cfg(test)]
pub(crate) fn coww_violation() -> Execution {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let w1 = b.write(t0, 0);
    let w2 = b.write(t0, 0);
    b.co(w2, w1);
    b.build().expect("coww well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::{Armv8, Power, Sc, Tsc, X86};

    #[test]
    fn coherence_shapes_forbidden_everywhere() {
        for x in [corr_violation(), coww_violation()] {
            for m in crate::registry::all_models() {
                if m.arch() == crate::Arch::Cpp {
                    continue;
                }
                assert!(
                    !m.consistent(&x),
                    "{} must forbid coherence violations",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn verdict_matrix_plain_shapes() {
        // The canonical allowed/forbidden matrix for the plain shapes.
        let p = Strength::PLAIN;
        // (execution, sc, x86, power, armv8)
        let rows: Vec<(&str, Execution, bool, bool, bool, bool)> = vec![
            ("mp", mp(p, p), false, false, true, true),
            ("sb", sb(p, p), false, true, true, true),
            ("lb", lb(p, p), false, false, true, true),
            ("2+2w", w2plus2(p, p), false, false, true, true),
            ("s", s_shape(p, p), false, false, true, true),
            ("r", r_shape(p, p), false, true, true, true),
        ];
        for (name, x, e_sc, e_x86, e_pow, e_arm) in rows {
            assert_eq!(Sc.consistent(&x), e_sc, "{name} under SC");
            assert_eq!(X86::base().consistent(&x), e_x86, "{name} under x86");
            assert_eq!(Power::base().consistent(&x), e_pow, "{name} under Power");
            assert_eq!(Armv8::base().consistent(&x), e_arm, "{name} under ARMv8");
        }
    }

    #[test]
    fn transactions_restore_sc_for_all_shapes() {
        // Wrapping both sides of any shape in transactions forbids it
        // under every transactional model — transactional SC (§3.4).
        let t = Strength::TXN;
        let shapes = [
            mp(t, t),
            sb(t, t),
            lb(t, t),
            w2plus2(t, t),
            s_shape(t, t),
            r_shape(t, t),
        ];
        for (i, x) in shapes.iter().enumerate() {
            assert!(!Tsc.consistent(x), "shape {i} under TSC");
            assert!(!X86::tm().consistent(x), "shape {i} under x86-tm");
            assert!(!Power::tm().consistent(x), "shape {i} under power-tm");
            assert!(!Armv8::tm().consistent(x), "shape {i} under armv8-tm");
        }
    }

    #[test]
    fn one_sided_transactions_differ_by_shape() {
        let t = Strength::TXN;
        let p = Strength::PLAIN;
        let dep = Strength {
            dep: true,
            ..Strength::PLAIN
        };
        // SB with one transactional side stays visible everywhere (the
        // W->R relaxation lives on the plain side).
        assert!(X86::tm().consistent(&sb(t, p)));
        // MP with only a transactional reader is still observable on
        // Power: the txn takes an atomic snapshot, but the *writer's*
        // unfenced stores propagate independently, so {y=1, x=0} is a
        // coherent snapshot.
        assert!(Power::tm().consistent(&mp(p, t)));
        // A transactional writer alone does not help either (the plain
        // reader reorders its loads)...
        assert!(Power::tm().consistent(&mp(t, p)));
        // ...but writer-txn + reader-dependency is forbidden: tprop2
        // makes the transactional stores multicopy-atomic and the
        // dependency pins the reads (the exec (2) mechanism).
        assert!(!Power::tm().consistent(&mp(t, dep)));
        assert!(
            Power::base().consistent(&mp(t, dep).erase_txns()),
            "without the transaction the same shape is allowed"
        );
    }

    #[test]
    fn fence_strengths_match_architectures() {
        let dep = Strength {
            dep: true,
            ..Strength::PLAIN
        };
        let sync = Strength {
            fence: Some(Fence::Sync),
            ..Strength::PLAIN
        };
        let lw = Strength {
            fence: Some(Fence::Lwsync),
            ..Strength::PLAIN
        };
        let dmb = Strength {
            fence: Some(Fence::Dmb),
            ..Strength::PLAIN
        };
        let mf = Strength {
            fence: Some(Fence::MFence),
            ..Strength::PLAIN
        };
        // Power: MP needs sync/lwsync + dep.
        assert!(!Power::base().consistent(&mp(sync, dep)));
        assert!(!Power::base().consistent(&mp(lw, dep)));
        assert!(Power::base().consistent(&mp(lw, Strength::PLAIN)));
        // SB: lwsync is too weak (W->R), sync works.
        assert!(Power::base().consistent(&sb(lw, lw)));
        assert!(!Power::base().consistent(&sb(sync, sync)));
        // x86: MFENCE kills SB.
        assert!(!X86::base().consistent(&sb(mf, mf)));
        // ARMv8: DMB + dep kills MP; R needs a DMB on both sides.
        assert!(!Armv8::base().consistent(&mp(dmb, dep)));
        assert!(!Armv8::base().consistent(&r_shape(dmb, dmb)));
    }

    #[test]
    fn lb_with_deps_forbidden_everywhere_weak() {
        let dep = Strength {
            dep: true,
            ..Strength::PLAIN
        };
        assert!(!Power::base().consistent(&lb(dep, dep)));
        assert!(!Armv8::base().consistent(&lb(dep, dep)));
        // One dependency is not enough.
        assert!(Power::base().consistent(&lb(dep, Strength::PLAIN)));
    }

    #[test]
    fn s_and_r_with_transactions() {
        let t = Strength::TXN;
        let p = Strength::PLAIN;
        // S with both sides transactional: forbidden on Power via the
        // lifted serialisation.
        assert!(!Power::tm().consistent(&s_shape(t, t)));
        // R with a transactional right-hand side is forbidden on x86:
        // co and fr are part of the x86 happens-before, so the lift
        // closes the cycle through the plain thread's ordered writes.
        assert!(!X86::tm().consistent(&r_shape(p, t)));
        // The plain R shape stays observable on x86 (W->R reordering).
        assert!(X86::tm().consistent(&r_shape(p, p)));
    }
}
