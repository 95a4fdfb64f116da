//! # txmm-synth
//!
//! A Memalloy-equivalent synthesiser (§4 of the paper): exhaustive,
//! symmetry-reduced enumeration of candidate executions replaces the
//! Alloy/SAT search, and the ⊏ weakening order of Lustig et al. defines
//! minimally-forbidden ("Forbid") and maximally-allowed ("Allow")
//! conformance suites.
//!
//! * [`enumerate`] — candidate-execution generation per architecture;
//! * [`canon`] — canonical forms (thread/location symmetry reduction);
//! * [`weaken`] — the ⊏ order: event removal, dependency removal,
//!   event downgrade, transaction-boundary stripping;
//! * [`suites`] — Forbid/Allow synthesis with discovery timestamps
//!   (regenerates Table 1 and Fig. 7);
//! * [`diff`] — model-difference search (Memalloy's original mode).
//!
//! ```
//! use txmm_synth::{suites::synthesise, EnumConfig};
//! use txmm_models::{Arch, Sc, Tsc};
//!
//! // At three events, TSC-vs-SC synthesis rediscovers the isolation
//! // shapes of Fig. 3.
//! let mut cfg = EnumConfig::hw(Arch::Sc, 3);
//! cfg.fences = false;
//! cfg.rmws = false;
//! cfg.max_threads = 2;
//! let r = synthesise(&cfg, &Tsc, &Sc, None);
//! assert!(r.forbid.len() >= 4);
//! ```

pub mod canon;
pub mod consistent;
pub mod diff;
pub mod enumerate;
pub mod par;
pub mod steal;
pub mod suites;
pub mod weaken;

pub use canon::canon_key;
pub use consistent::{
    count_consistent, count_consistent_par, count_consistent_par_progress, enumerate_consistent,
    enumerate_pruned, oracle_for, visit_pruned_par, visit_pruned_par_progress, LeafChecker,
};
pub use diff::{distinguish, distinguish_seq, equivalent, equivalent_seq};
pub use enumerate::{
    count, count_par, count_reference, enumerate, enumerate_reference, enumerate_shape,
    for_each_par, stream_par, visit_par, visit_par_progress, walk_plan, CandSeq, EnumConfig,
    Frontier, Subtree, WalkPlan,
};
pub use par::par_map;
pub use steal::{run_with, run_with_progress, StealStats};
pub use suites::{
    synthesise, synthesise_pruned, synthesise_seq, synthesise_streamed,
    synthesise_streamed_progress, txn_histogram, FoundTest, SuiteResult,
};
pub use weaken::weakenings;
