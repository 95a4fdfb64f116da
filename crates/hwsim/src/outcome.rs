//! Final states of litmus-test runs, and postcondition evaluation.

use std::collections::BTreeSet;

use txmm_litmus::{Check, LitmusTest};

/// Locations the machine models: every [`Outcome`] has `memory` and
/// `co_order` of exactly this length, so the machine's outcomes and the
/// axiomatic outcome engine's (padded to the same width) compare
/// structurally.
pub const MAX_LOCS: usize = 8;

/// States one exploration may visit: a test whose exploration reaches
/// more does not fit the machine, and [`crate::run`] answers `None`.
/// Every pinned corpus stays far below it (its largest, a two-thread,
/// ten-instruction Power test, visits 1,318), while a 16-event Power
/// test of four threads would otherwise hold its caller for minutes.
pub(crate) const MAX_STATES: usize = 1 << 16;

/// A final state: registers, memory, and per-transaction commit flags.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Outcome {
    /// `regs[tid][reg]` — register files at exit (unset registers are 0).
    pub regs: Vec<Vec<u32>>,
    /// `memory[loc]` — final value of each location.
    pub memory: Vec<u32>,
    /// `txn_ok[txn_id]` — did the transaction commit?
    pub txn_ok: Vec<bool>,
    /// `co_order[loc]` — the values written to each location, in the
    /// order they hit coherence (the simulated hardware's answer to
    /// footnote 2's "extra constraints").
    pub co_order: Vec<Vec<u32>>,
}

impl Outcome {
    /// Does this outcome satisfy the test's postcondition?
    pub fn passes(&self, test: &LitmusTest) -> bool {
        test.post.iter().all(|c| match c {
            Check::Reg { tid, reg, value } => {
                self.regs
                    .get(*tid)
                    .and_then(|r| r.get(*reg))
                    .copied()
                    .unwrap_or(0)
                    == *value
            }
            Check::Loc { loc, value } => {
                self.memory.get(*loc as usize).copied().unwrap_or(0) == *value
            }
            Check::TxnOk { txn_id } => self.txn_ok.get(*txn_id).copied().unwrap_or(false),
            Check::CoSeq { loc, values } => {
                self.co_order
                    .get(*loc as usize)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                    == values.as_slice()
            }
        })
    }
}

/// The set of final states the machine found reachable.
pub type OutcomeSet = BTreeSet<Outcome>;

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_models::Arch;

    #[test]
    fn postcondition_evaluation() {
        let t = LitmusTest {
            name: "t".into(),
            arch: Arch::X86,
            threads: vec![],
            post: vec![
                Check::Reg {
                    tid: 0,
                    reg: 0,
                    value: 2,
                },
                Check::Loc { loc: 0, value: 2 },
                Check::TxnOk { txn_id: 0 },
            ],
        };
        let good = Outcome {
            regs: vec![vec![2]],
            memory: vec![2],
            txn_ok: vec![true],
            co_order: vec![],
        };
        assert!(good.passes(&t));
        let bad_reg = Outcome {
            regs: vec![vec![1]],
            memory: vec![2],
            txn_ok: vec![true],
            co_order: vec![],
        };
        assert!(!bad_reg.passes(&t));
        let bad_txn = Outcome {
            regs: vec![vec![2]],
            memory: vec![2],
            txn_ok: vec![false],
            co_order: vec![],
        };
        assert!(!bad_txn.passes(&t));
        let missing = Outcome::default();
        assert!(!missing.passes(&t));
    }

    #[test]
    fn unset_registers_default_to_zero() {
        let t = LitmusTest {
            name: "t".into(),
            arch: Arch::X86,
            threads: vec![],
            post: vec![Check::Reg {
                tid: 1,
                reg: 3,
                value: 0,
            }],
        };
        assert!(Outcome::default().passes(&t));
    }
}
