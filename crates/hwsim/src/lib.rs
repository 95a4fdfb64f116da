//! # txmm-hwsim
//!
//! The hardware substitute for the paper's empirical testing (§5.3):
//! the paper ran synthesised litmus tests on four TSX machines and an
//! 80-core POWER8; we run them on one exhaustively explored operational
//! machine. Each thread commits any instruction whose ordering
//! predecessors have committed, so an architecture is an ordering
//! table (`tso`, `armsim`, `powersim`); Power alone adds write
//! propagation, since it is not multicopy atomic.
//!
//! [`run`] explores every commit order (DFS with state memoisation) and
//! reports the set of reachable final states, so [`observable`] answers
//! are exact rather than statistical.
//!
//! ```
//! use txmm_hwsim::observable;
//! use txmm_litmus::litmus_from_execution;
//! use txmm_models::{catalog, Arch};
//!
//! let t = litmus_from_execution("sb", &catalog::sb(None, false, false), Arch::X86);
//! assert_eq!(observable(&t), Some(true));
//! ```

mod armsim;
mod machine;
mod outcome;
mod powersim;
mod tso;

pub use machine::{observable, run};
pub use outcome::{Outcome, OutcomeSet, MAX_LOCS};
