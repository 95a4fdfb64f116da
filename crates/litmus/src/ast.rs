//! The litmus-test AST: programs with postconditions (§2.2).

use txmm_core::{Attrs, Fence, Loc};
use txmm_models::Arch;

/// A pseudo-register, local to a thread.
pub type Reg = usize;

/// How a dependency reaches an instruction (rendered as the standard
/// idioms: `eor`/`xor` for address, arithmetic for data, a conditional
/// branch for control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Address dependency.
    Addr,
    /// Data dependency.
    Data,
    /// Control dependency.
    Ctrl,
}

/// A dependency annotation: this instruction depends on the value loaded
/// by an earlier instruction of the same thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Index of the source instruction within the thread.
    pub on: usize,
    /// The dependency kind.
    pub kind: DepKind,
}

/// Load/store strength flavours across all four targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessMode {
    /// ARMv8 `LDAR` / C++ acquire.
    pub acquire: bool,
    /// ARMv8 `STLR` / C++ release.
    pub release: bool,
    /// C++ seq-cst.
    pub sc: bool,
    /// C++ atomic operation.
    pub atomic: bool,
    /// Load/store-exclusive (half of an RMW pair).
    pub exclusive: bool,
}

impl AccessMode {
    /// Translate event attributes into an access mode.
    pub(crate) fn from_attrs(a: Attrs, exclusive: bool) -> AccessMode {
        AccessMode {
            acquire: a.contains(Attrs::ACQ),
            release: a.contains(Attrs::REL),
            sc: a.contains(Attrs::SC),
            atomic: a.contains(Attrs::ATO),
            exclusive,
        }
    }
}

/// One instruction of a litmus thread.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Load `loc` into `reg`.
    Load {
        reg: Reg,
        loc: Loc,
        mode: AccessMode,
    },
    /// Store `value` to `loc`.
    Store {
        loc: Loc,
        value: u32,
        mode: AccessMode,
    },
    /// A fence; C++ fences carry their mode.
    Fence(Fence, Attrs),
    /// Begin a transaction; on abort, control transfers to the fail
    /// handler which zeroes the `ok` flag for transaction `txn_id`.
    /// `atomic` marks a C++ `atomic { ... }` block (the paper's
    /// `stxnat` strengthening) as opposed to a relaxed /
    /// `synchronized` transaction.
    TxBegin { txn_id: usize, atomic: bool },
    /// Commit the current transaction.
    TxEnd,
    /// `lock()` / `unlock()` pseudo-calls (abstract executions, §8.3).
    LockCall(&'static str),
}

/// An instruction plus its dependency annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// The operation.
    pub op: Op,
    /// Dependencies on earlier instructions of the same thread.
    pub deps: Vec<Dep>,
}

impl Instr {
    /// An instruction with no dependencies.
    pub fn plain(op: Op) -> Instr {
        Instr {
            op,
            deps: Vec::new(),
        }
    }
}

/// One conjunct of a postcondition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// Register `reg` of thread `tid` holds `value`.
    Reg { tid: usize, reg: Reg, value: u32 },
    /// Location `loc` holds `value` finally.
    Loc { loc: Loc, value: u32 },
    /// Transaction `txn_id` committed (its `ok` flag is still 1).
    TxnOk { txn_id: usize },
    /// The full coherence order of `loc` is exactly `values`.
    ///
    /// Emitted when a location has three or more writes: the final-state
    /// check alone cannot pin the intermediate coherence edges
    /// (footnote 2 of the paper). Real test harnesses add observer
    /// threads; our simulated hardware exposes coherence directly.
    CoSeq { loc: Loc, values: Vec<u32> },
}

/// A litmus test: initial state (all locations zero), a program, and a
/// postcondition identifying one candidate execution.
#[derive(Debug, Clone, PartialEq)]
pub struct LitmusTest {
    /// A short name.
    pub name: String,
    /// The architecture whose instructions the test uses.
    pub arch: Arch,
    /// Per-thread instruction lists.
    pub threads: Vec<Vec<Instr>>,
    /// The conjunction that passes exactly when the intended execution
    /// was taken.
    pub post: Vec<Check>,
}

impl LitmusTest {
    /// Total number of instructions.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(Vec::is_empty)
    }

    /// Number of transactions in the program.
    pub fn num_txns(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .filter(|i| matches!(i.op, Op::TxBegin { .. }))
            .count()
    }

    /// The locations the program touches, sorted.
    pub fn locations(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> = self
            .threads
            .iter()
            .flatten()
            .filter_map(|i| match i.op {
                Op::Load { loc, .. } | Op::Store { loc, .. } => Some(loc),
                _ => None,
            })
            .collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_from_attrs() {
        let m = AccessMode::from_attrs(Attrs::ACQ.union(Attrs::ATO), true);
        assert!(m.acquire && m.atomic && m.exclusive);
        assert!(!m.release && !m.sc);
    }

    #[test]
    fn litmus_counts() {
        let t = LitmusTest {
            name: "t".into(),
            arch: Arch::X86,
            threads: vec![
                vec![
                    Instr::plain(Op::TxBegin {
                        txn_id: 0,
                        atomic: false,
                    }),
                    Instr::plain(Op::Store {
                        loc: 0,
                        value: 1,
                        mode: AccessMode::default(),
                    }),
                    Instr::plain(Op::TxEnd),
                ],
                vec![Instr::plain(Op::Load {
                    reg: 0,
                    loc: 1,
                    mode: AccessMode::default(),
                })],
            ],
            post: vec![Check::Loc { loc: 0, value: 1 }],
        };
        assert_eq!(t.len(), 4);
        assert_eq!(t.num_txns(), 1);
        assert_eq!(t.locations(), vec![0, 1]);
        assert!(!t.is_empty());
    }
}
