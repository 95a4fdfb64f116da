//! Reconstructing the candidate execution a litmus test pins down —
//! the inverse of [`crate::from_exec::litmus_from_execution`].
//!
//! A litmus test in this workspace's format identifies exactly one
//! candidate execution (§2.2/§3.2 of the paper): write values are
//! unique per location, so a passing register check names the write a
//! read observed (`rf`), the sorted value order per location gives the
//! coherence order (`co`), dependency annotations give `addr`/`ctrl`/
//! `data`, exclusive access pairs give `rmw`, and `txbegin`/`txend`
//! brackets give the transaction classes. This module rebuilds that
//! execution, which is what lets a long-lived serving process answer
//! model verdicts for litmus *files* rather than only for in-memory
//! executions.

use std::fmt;

use txmm_core::{Execution, Loc, Rel, TxnClass, WfError, MAX_EVENTS};

use crate::ast::{Check, LitmusTest};

/// The highest register number a litmus program may name. The
/// generator never goes past r15; the rest is room for hand-written
/// tests. [`crate::program_key`] stores a register in one byte, so the
/// bound must stay within `u8`.
pub(crate) const MAX_REGISTER: usize = 255;
const _: () = assert!(MAX_REGISTER <= u8::MAX as usize);

/// Why a litmus test does not determine a well-formed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LitmusConvertError {
    /// The program has more events than [`MAX_EVENTS`].
    TooManyEvents(usize),
    /// Two stores to one location share a value, so register checks
    /// cannot identify which write a read observed.
    AmbiguousWriteValue(Loc, u32),
    /// A store writes 0, the reserved initial value — a register check
    /// of 0 could then mean either the store or the initial value.
    ZeroWriteValue(Loc),
    /// A register check expects a value no store to that location
    /// writes.
    NoWriteWithValue(Loc, u32),
    /// A register check names a thread/register with no matching load.
    NoSuchRegister(usize, usize),
    /// A final-state check disagrees with the coherence order implied
    /// by the write values.
    InconsistentFinalState(Loc),
    /// A dependency annotation points at an instruction that is not an
    /// earlier event of its thread: a non-event, a later instruction,
    /// the annotated instruction itself, or one not present.
    BadDepTarget(usize, usize),
    /// A load names a register past r255: every candidate's register
    /// file is sized by the highest register its thread names.
    RegisterOutOfRange(usize, usize),
    /// Exclusive accesses on a thread do not pair into rmw edges: a
    /// store-exclusive with no matching same-location load-exclusive,
    /// two load-exclusives in a row, or a load-exclusive never
    /// completed by a store-exclusive.
    UnpairedExclusive(usize),
    /// The reconstructed graph fails well-formedness.
    IllFormed(WfError),
}

impl fmt::Display for LitmusConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LitmusConvertError::TooManyEvents(n) => {
                write!(f, "program has {n} events (max {MAX_EVENTS})")
            }
            LitmusConvertError::AmbiguousWriteValue(l, v) => {
                write!(f, "two stores write {v} to location {l}")
            }
            LitmusConvertError::ZeroWriteValue(l) => {
                write!(
                    f,
                    "a store writes the reserved initial value 0 to location {l}"
                )
            }
            LitmusConvertError::NoWriteWithValue(l, v) => {
                write!(f, "no store writes {v} to location {l}")
            }
            LitmusConvertError::NoSuchRegister(t, r) => {
                write!(f, "check names unknown register {t}:r{r}")
            }
            LitmusConvertError::InconsistentFinalState(l) => {
                write!(
                    f,
                    "final-state check contradicts write values at location {l}"
                )
            }
            LitmusConvertError::BadDepTarget(t, i) => {
                write!(
                    f,
                    "dependency on instruction {i} of thread {t}, which is not an earlier event"
                )
            }
            LitmusConvertError::RegisterOutOfRange(t, r) => {
                write!(
                    f,
                    "thread {t} loads into register r{r} (registers are r0..=r{MAX_REGISTER})"
                )
            }
            LitmusConvertError::UnpairedExclusive(t) => {
                write!(
                    f,
                    "exclusive accesses on thread {t} do not pair into rmw edges"
                )
            }
            LitmusConvertError::IllFormed(e) => write!(f, "reconstructed execution: {e}"),
        }
    }
}

impl std::error::Error for LitmusConvertError {}

/// Rebuild the candidate execution a litmus test identifies.
///
/// Reads with no register check observe the initial value (the
/// generator checks every read, so this default only applies to
/// hand-written tests). Transactions are reconstructed as successful
/// classes, preserving the C++ `atomic { ... }` marker so `stxnat`
/// round-trips.
pub fn execution_from_litmus(t: &LitmusTest) -> Result<Execution, LitmusConvertError> {
    // Pass 1 is shared with the exhaustive candidate enumerator
    // (`crate::outcomes`): events, program-given relations, transaction
    // classes and the write-value bookkeeping.
    let sk = crate::outcomes::ProgramSkeleton::from_litmus(t)?;
    let events = sk.events;
    let (po, addr, ctrl, data, rmw) = (sk.po, sk.addr, sk.ctrl, sk.data, sk.rmw);
    let txns: Vec<TxnClass> = sk.txns.into_iter().map(|(_, class)| class).collect();
    let mut writes_by_loc = sk.writes_by_loc;
    let reg_event = sk.reg_event;

    let n = events.len();

    // co: writes per location ordered by ascending value (the generator
    // assigns 1 + coherence position).
    let mut co = Rel::empty(n);
    for per_loc in writes_by_loc.values_mut() {
        per_loc.sort_unstable_by_key(|&(v, _)| v);
        for i in 0..per_loc.len() {
            for j in (i + 1)..per_loc.len() {
                co.add(per_loc[i].1, per_loc[j].1);
            }
        }
    }

    // rf: register checks name the observed write by value; 0 = initial.
    let mut rf = Rel::empty(n);
    for check in &t.post {
        match check {
            Check::Reg { tid, reg, value } => {
                let &r = reg_event
                    .get(&(*tid, *reg))
                    .ok_or(LitmusConvertError::NoSuchRegister(*tid, *reg))?;
                if *value == 0 {
                    continue; // initial value: no incoming rf edge
                }
                let loc = events[r].loc.expect("read has a location");
                let w = writes_by_loc
                    .get(&loc)
                    .and_then(|ws| ws.iter().find(|&&(v, _)| v == *value))
                    .ok_or(LitmusConvertError::NoWriteWithValue(loc, *value))?
                    .1;
                rf.add(w, r);
            }
            Check::Loc { loc, value } => {
                // Must name the co-maximal write's value, or 0 (the
                // initial value) for a location nothing writes.
                let ok = match writes_by_loc.get(loc).and_then(|ws| ws.last()) {
                    Some(&(v, _)) => v == *value,
                    None => *value == 0,
                };
                if !ok {
                    return Err(LitmusConvertError::InconsistentFinalState(*loc));
                }
            }
            Check::CoSeq { loc, values } => {
                let written = writes_by_loc.get(loc).map(Vec::as_slice).unwrap_or(&[]);
                if !written.iter().map(|&(v, _)| v).eq(values.iter().copied()) {
                    return Err(LitmusConvertError::InconsistentFinalState(*loc));
                }
            }
            Check::TxnOk { .. } => {} // all reconstructed txns committed
        }
    }

    let x = Execution::from_parts(events, po, addr, ctrl, data, rmw, rf, co, txns);
    x.check_wf().map_err(LitmusConvertError::IllFormed)?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_exec::litmus_from_execution;
    use crate::parse::parse_litmus;
    use txmm_core::ExecBuilder;
    use txmm_models::{catalog, Arch};

    fn roundtrip(x: &Execution, arch: Arch, name: &str) {
        let t = litmus_from_execution(name, x, arch);
        let back = execution_from_litmus(&t).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&back, x, "{name}: litmus round-trip changed the execution");
    }

    #[test]
    fn roundtrip_catalog_shapes() {
        roundtrip(&catalog::fig1(), Arch::X86, "fig1");
        roundtrip(&catalog::fig2(), Arch::X86, "fig2");
        roundtrip(&catalog::sb(None, false, false), Arch::X86, "sb");
        roundtrip(
            &catalog::sb(Some(txmm_core::Fence::MFence), false, false),
            Arch::X86,
            "sb+mfence",
        );
        roundtrip(
            &catalog::mp(Some(txmm_core::Fence::Sync), true, false),
            Arch::Power,
            "mp+sync+dep",
        );
        roundtrip(&catalog::power_exec3(true), Arch::Power, "iriw");
        roundtrip(&catalog::armv8_elision(false), Arch::Armv8, "elision");
        roundtrip(&catalog::rmw_txn(true), Arch::Power, "rmw-split");
    }

    #[test]
    fn roundtrip_through_text() {
        // render -> parse -> execution equals the original execution.
        let x = catalog::fig2();
        let t = litmus_from_execution("fig2", &x, Arch::X86);
        let printed = crate::render::pseudocode(&t);
        let parsed = parse_litmus(&printed).expect("parses");
        assert_eq!(execution_from_litmus(&parsed).expect("converts"), x);
    }

    #[test]
    fn unchecked_read_defaults_to_initial_value() {
        let src = "t (x86)\n\
                   thread 0:\n\
                   \u{20} x <- 1\n\
                   \u{20} r0 <- x\n\
                   Test: x = 1\n";
        let t = parse_litmus(src).expect("parses");
        let x = execution_from_litmus(&t).expect("converts");
        assert!(
            x.rf().is_empty(),
            "unchecked read observes the initial value"
        );
        assert!(!x.fr().is_empty());
    }

    #[test]
    fn unpaired_exclusives_rejected() {
        // Store-exclusive to a different location than the pending
        // load-exclusive.
        let src = "t (ARMv8)\n\
                   thread 0:\n\
                   \u{20} r0 <- x.ex\n\
                   \u{20} y.ex <- 1\n\
                   Test: 0:r0 = 0\n";
        let t = parse_litmus(src).expect("parses");
        assert_eq!(
            execution_from_litmus(&t),
            Err(LitmusConvertError::UnpairedExclusive(0))
        );
        // Load-exclusive never completed.
        let src = "t (ARMv8)\n\
                   thread 0:\n\
                   \u{20} r0 <- x.ex\n\
                   Test: 0:r0 = 0\n";
        let t = parse_litmus(src).expect("parses");
        assert_eq!(
            execution_from_litmus(&t),
            Err(LitmusConvertError::UnpairedExclusive(0))
        );
    }

    #[test]
    fn register_numbers_are_bounded() {
        let program = |reg: &str| {
            let src = format!("t (x86)\nthread 0:\n  {reg} <- x\nthread 1:\n  x <- 1\n");
            parse_litmus(&src).expect("parses")
        };
        // The highest register number would wrap the register-file size
        // to 0, and a million-entry file would ride along with every
        // candidate's final state.
        for reg in [u64::MAX as usize, 1_000_000, MAX_REGISTER + 1] {
            let t = program(&format!("r{reg}"));
            let want = LitmusConvertError::RegisterOutOfRange(0, reg);
            assert_eq!(execution_from_litmus(&t), Err(want.clone()));
            assert_eq!(crate::outcomes::candidate_count(&t), Err(want));
        }
        let t = program(&format!("r{MAX_REGISTER}"));
        assert!(execution_from_litmus(&t).is_ok());
        assert_eq!(crate::outcomes::candidate_count(&t), Ok(2));
        // Every register a program may name keeps its own outcome-cache key.
        assert_ne!(crate::program_key(&t), crate::program_key(&program("r0")));
    }

    #[test]
    fn self_dependencies_rejected() {
        for kind in ["addr", "ctrl", "data"] {
            let src = format!(
                "selfdep (Power)\n\
                 thread 0:\n\
                 \u{20} r0 <- x // deps: {kind}#0\n\
                 \u{20} y <- 1\n\
                 thread 1:\n\
                 \u{20} r0 <- y\n\
                 \u{20} x <- 1\n"
            );
            let t = parse_litmus(&src).expect("parses");
            let want = LitmusConvertError::BadDepTarget(0, 0);
            assert_eq!(execution_from_litmus(&t), Err(want.clone()), "{kind}");
            assert_eq!(crate::outcomes::candidate_count(&t), Err(want), "{kind}");
        }
    }

    #[test]
    fn zero_write_value_rejected() {
        // A store of 0 would collide with the reserved initial value in
        // register checks; the conversion refuses rather than guessing.
        let src = "t (x86)\n\
                   thread 0:\n\
                   \u{20} x <- 0\n\
                   \u{20} r0 <- x\n\
                   Test: 0:r0 = 0\n";
        let t = parse_litmus(src).expect("parses");
        assert_eq!(
            execution_from_litmus(&t),
            Err(LitmusConvertError::ZeroWriteValue(0))
        );
    }

    #[test]
    fn final_state_zero_accepted_for_unwritten_location() {
        let src = "t (x86)\n\
                   thread 0:\n\
                   \u{20} r0 <- x\n\
                   Test: 0:r0 = 0 /\\ x = 0\n";
        let t = parse_litmus(src).expect("parses");
        let x = execution_from_litmus(&t).expect("x = 0 is the initial value");
        assert_eq!(x.len(), 1);
        assert!(x.rf().is_empty());
    }

    #[test]
    fn ambiguous_values_rejected() {
        let src = "t (x86)\n\
                   thread 0:\n\
                   \u{20} x <- 1\n\
                   thread 1:\n\
                   \u{20} x <- 1\n\
                   Test: x = 1\n";
        let t = parse_litmus(src).expect("parses");
        assert_eq!(
            execution_from_litmus(&t),
            Err(LitmusConvertError::AmbiguousWriteValue(0, 1))
        );
    }

    #[test]
    fn missing_write_value_rejected() {
        let src = "t (x86)\n\
                   thread 0:\n\
                   \u{20} r0 <- x\n\
                   Test: 0:r0 = 7\n";
        let t = parse_litmus(src).expect("parses");
        assert_eq!(
            execution_from_litmus(&t),
            Err(LitmusConvertError::NoWriteWithValue(0, 7))
        );
    }

    #[test]
    fn final_state_contradiction_rejected() {
        let src = "t (x86)\n\
                   thread 0:\n\
                   \u{20} x <- 1\n\
                   \u{20} x <- 2\n\
                   Test: x = 1\n";
        let t = parse_litmus(src).expect("parses");
        assert_eq!(
            execution_from_litmus(&t),
            Err(LitmusConvertError::InconsistentFinalState(0))
        );
    }

    #[test]
    fn atomic_txn_blocks_roundtrip() {
        // C++ atomic{} blocks survive render -> parse -> execution:
        // `stxnat` is preserved rather than degrading to relaxed
        // transactions.
        let x = catalog::cpp_mp(true, true);
        assert!(x.txns().iter().all(|t| t.atomic));
        roundtrip(&x, Arch::Cpp, "cpp-mp-atomic");
        let t = litmus_from_execution("cpp-mp-atomic", &x, Arch::Cpp);
        let printed = crate::render::pseudocode(&t);
        let back =
            execution_from_litmus(&parse_litmus(&printed).expect("parses")).expect("converts");
        assert!(back.txns().iter().all(|t| t.atomic));
        assert!(!back.analysis().stxnat().is_empty());
    }

    #[test]
    fn mixed_atomic_and_relaxed_txns_roundtrip() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        b.txn_atomic(&[w]);
        let t1 = b.new_thread();
        let r = b.read(t1, 0);
        b.txn(&[r]);
        let x = b.build().unwrap();
        roundtrip(&x, Arch::Cpp, "mixed-txns");
        let t = litmus_from_execution("mixed-txns", &x, Arch::Cpp);
        let back = execution_from_litmus(&t).unwrap();
        let atomics: Vec<bool> = back.txns().iter().map(|t| t.atomic).collect();
        assert_eq!(atomics, vec![true, false]);
    }

    #[test]
    fn txn_brackets_reconstructed() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 1);
        b.txn(&[w, r]);
        let t1 = b.new_thread();
        let w1 = b.write(t1, 1);
        b.rf(w1, r);
        let x = b.build().unwrap();
        roundtrip(&x, Arch::X86, "txn");
    }

    #[test]
    fn converted_executions_get_model_verdicts() {
        // End to end: the SB litmus test's execution is forbidden under
        // SC and allowed under x86.
        use txmm_models::Model;
        let x = catalog::sb(None, false, false);
        let t = litmus_from_execution("sb", &x, Arch::X86);
        let back = execution_from_litmus(&t).unwrap();
        assert!(!txmm_models::Sc.consistent(&back));
        assert!(txmm_models::X86::base().consistent(&back));
    }
}
