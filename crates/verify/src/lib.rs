//! # txmm-verify
//!
//! The paper's metatheory (§8, Table 2), checked by bounded exhaustive
//! search:
//!
//! * [`check_monotonicity`] — introducing/enlarging/coalescing
//!   transactions never allows new behaviour (§8.1; counterexamples for
//!   Power and ARMv8 at two events, via `TxnCancelsRMW`);
//! * [`check_compilation`] — the C++-to-hardware mappings and their
//!   soundness (§8.2);
//! * [`elision`] — lock elision as a program transformation (§8.3,
//!   Table 3), rediscovering Example 1.1 on ARMv8;
//! * [`check_theorem_7_2`] / [`check_theorem_7_3`] — bounded validation
//!   of Theorems 7.2 and 7.3.
//!
//! Every check returns a [`CheckResult`]: the earliest counterexample
//! in emission order, the candidates checked up to it, and
//! `complete == false` when a budget ran out. Monotonicity, compilation
//! and the theorems take a [`Walk`](txmm_synth::Walk) — the space, the
//! worker count and an optional prune oracle — and are one
//! [`Walk::search`](txmm_synth::Walk::search), so they report the same
//! counterexample at any worker count. Lock elision walks Table 3's
//! fixed call structure, which an `EnumConfig` does not describe, and
//! takes the rf/co of its abstract executions and of their expansions
//! from [`RfCoSearch`](txmm_core::incr::RfCoSearch).
//!
//! ```
//! use txmm_verify::elision::{check_lock_elision, ElisionTarget};
//!
//! let r = check_lock_elision(ElisionTarget::Armv8, None);
//! assert!(r.counterexample.is_some(), "lock elision is unsound on ARMv8");
//! ```

pub(crate) mod compile;
pub mod elision;
pub(crate) mod monotonic;
pub(crate) mod theorems;

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
pub use theorems::{check_theorem_7_2, check_theorem_7_3, theorem_cfg};
