//! # txmm-synth
//!
//! A Memalloy-equivalent synthesiser (§4 of the paper): exhaustive,
//! symmetry-reduced enumeration of candidate executions replaces the
//! Alloy/SAT search, and the ⊏ weakening order of Lustig et al. defines
//! minimally-forbidden ("Forbid") and maximally-allowed ("Allow")
//! conformance suites.
//!
//! * [`Walk`] — the one walk engine: a bounded search over the
//!   candidate space (config, optional prune oracle, workers, optional
//!   progress) that every sweep below runs through;
//! * [`mod@enumerate`] — candidate-execution generation per
//!   architecture: the subtree frontier and the structure walk;
//! * [`LeafChecker`] — the consistency check at the leaves of the
//!   pruned structure walk;
//! * [`worker_count`] / [`StealStats`] — the work-stealing pool walks
//!   run on;
//! * the ⊏ order (the `weaken` module): event removal, dependency
//!   removal, event downgrade, transaction-boundary stripping;
//! * [`synthesise`] — Forbid/Allow synthesis with discovery timestamps
//!   (regenerates Table 1 and Fig. 7);
//! * [`distinguish`] — model-difference search (Memalloy's original
//!   mode).
//!
//! ```
//! use txmm_synth::{synthesise, EnumConfig, Walk};
//! use txmm_models::{Arch, Sc, Tsc};
//!
//! // At three events, TSC-vs-SC synthesis rediscovers the isolation
//! // shapes of Fig. 3.
//! let mut cfg = EnumConfig::hw(Arch::Sc, 3);
//! cfg.fences = false;
//! cfg.rmws = false;
//! cfg.max_threads = 2;
//! let r = synthesise(&Walk::new(&cfg), &Tsc, &Sc, None);
//! assert!(r.forbid.len() >= 4);
//!
//! // One worker walks the same candidates in the same order.
//! let one = synthesise(&Walk::new(&cfg).workers(1), &Tsc, &Sc, None);
//! assert_eq!(one.forbid.len(), r.forbid.len());
//! ```

pub(crate) mod consistent;
pub(crate) mod diff;
pub mod enumerate;
pub(crate) mod steal;
pub(crate) mod suites;
pub(crate) mod walk;
pub(crate) mod weaken;

pub use consistent::{LeafChecker, PruneCounters};
pub use diff::{distinguish, equivalent};
pub use enumerate::{enumerate_reference, CandSeq, EnumConfig};
pub use steal::{worker_count, StealStats};
pub use suites::{synthesise, table1_config, txn_histogram, FoundTest, SuiteResult};
pub use txmm_core::canon::canon_key;
pub use walk::{
    count_consistent_par_progress, enumerate, oracle_for, visit_pruned_par_progress, Probe, Search,
    Walk,
};
