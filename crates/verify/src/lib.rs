//! # txmm-verify
//!
//! The paper's metatheory (§8, Table 2), checked by bounded exhaustive
//! search:
//!
//! * [`monotonic`] — introducing/enlarging/coalescing transactions never
//!   allows new behaviour (§8.1; counterexamples for Power and ARMv8 at
//!   two events, via `TxnCancelsRMW`);
//! * [`compile`] — the C++-to-hardware mappings and their soundness
//!   (§8.2);
//! * [`elision`] — lock elision as a program transformation (§8.3,
//!   Table 3), rediscovering Example 1.1 on ARMv8;
//! * [`theorems`] — bounded validation of Theorems 7.2 and 7.3.
//!
//! Every bounded check takes a [`Walk`](txmm_synth::Walk) — the space,
//! the worker count and an optional prune oracle — and is one
//! [`Walk::search`](txmm_synth::Walk::search): the earliest
//! counterexample in emission order is reported at any worker count,
//! and a budget that runs out leaves `complete == false`.
//!
//! ```
//! use txmm_verify::elision::{check_lock_elision, ElisionTarget};
//!
//! let r = check_lock_elision(ElisionTarget::Armv8, None);
//! assert!(r.counterexample.is_some(), "lock elision is unsound on ARMv8");
//! ```

pub mod compile;
pub mod elision;
pub mod monotonic;
pub mod theorems;

use std::time::Duration;

use txmm_synth::Search;

/// The outcome of a bounded check.
pub struct CheckResult<T> {
    /// The earliest counterexample in emission order, if any.
    pub counterexample: Option<T>,
    /// Candidates that satisfied the hypotheses and were checked, up to
    /// the counterexample.
    pub checked: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// False when the budget ran out before the check was decided.
    pub complete: bool,
}

impl<T> From<Search<T>> for CheckResult<T> {
    fn from(s: Search<T>) -> CheckResult<T> {
        CheckResult {
            counterexample: s.hits.into_iter().next(),
            checked: s.checked,
            elapsed: s.elapsed,
            complete: s.complete,
        }
    }
}

pub use compile::{check_compilation, compile_cfg, map_execution, CompileResult};
pub use elision::{check_lock_elision, expand, violates_cr_order, ElisionResult, ElisionTarget};
pub use monotonic::{check_monotonicity, txn_extensions, MonotonicityResult};
pub use theorems::{check_theorem_7_2, check_theorem_7_3, theorem_cfg, TheoremResult};
