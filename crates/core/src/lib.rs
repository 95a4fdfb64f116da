//! # txmm-core
//!
//! Event-graph executions and the relational algebra underlying axiomatic
//! memory models, as used in *"The Semantics of Transactions and Weak
//! Memory in x86, Power, ARM, and C++"* (Chong, Sorensen, Wickerson).
//!
//! An [`Execution`] is a graph whose vertices are runtime memory events
//! (reads, writes, fences, and — for the lock-elision study — method
//! calls) and whose edges are the relations of §2.1 of the paper:
//! program order `po`, dependencies `addr`/`ctrl`/`data`, `rmw` pairs,
//! reads-from `rf` and coherence `co`, extended in §3.1 with the
//! transaction equivalence `stxn`.
//!
//! The crate provides:
//!
//! * [`rel::Rel`] — dense, allocation-free bit-matrix relations with
//!   the full `.cat` operator set (`; | & \ ¬ ⁻¹ ? + *`, `[s]`,
//!   `acyclic`, ...), stored inline as 8×8 bit blocks;
//! * [`exec::Execution`] — executions with derived relations (`fr`,
//!   `com`, `rfe`/`fre`/`coe`, fence relations, `stxn`, `tfence`, `scr`);
//! * [`analysis::ExecutionAnalysis`] — the shared per-execution cache
//!   of derived relations every model checks against;
//! * [`arena::PackedExecution`] / [`arena::ExecArena`] — whole
//!   executions as inline `Copy` values, interned for long-lived
//!   serving (events/txns in fixed arrays of `MAX_EVENTS` slots);
//! * [`WfError`] — the well-formedness conditions an execution breaks;
//! * [`build::ExecBuilder`] — a fluent constructor;
//! * [`display`] — text rendering.
//!
//! ## Example
//!
//! ```
//! use txmm_core::prelude::*;
//!
//! // Fig. 2 of the paper: a transaction writing and re-reading x, with
//! // an interfering external write.
//! let mut b = ExecBuilder::new();
//! let t0 = b.new_thread();
//! let a = b.write(t0, 0);
//! let r = b.read(t0, 0);
//! let t1 = b.new_thread();
//! let c = b.write(t1, 0);
//! b.rf(c, r).co(a, c).txn(&[a, r]);
//! let x = b.build().unwrap();
//!
//! // The external write communicates into and out of the transaction:
//! // a strong-isolation violation (see txmm-models for the axiom).
//! let lift = stronglift(&x.com(), &x.stxn());
//! assert!(!lift.is_acyclic());
//! ```

pub(crate) mod analysis;
pub mod arena;
pub mod build;
pub mod canon;
pub mod display;
pub(crate) mod event;
pub(crate) mod exec;
pub mod incr;
pub(crate) mod rel;
pub mod rng;
pub(crate) mod set;
pub(crate) mod wf;

pub use analysis::{ExecutionAnalysis, MemoKey, TxnFreeBase};
pub use arena::{ExecId, PackedExecution};
pub use build::ExecBuilder;
pub use canon::canon_key;
pub use event::{loc_name, Attrs, Call, Event, EventId, EventKind, Fence, Loc};
pub use exec::{CrClass, Execution, TxnClass, NO_TXN};
pub use incr::{
    set_delta_validation, NoPrune, Obligation, PartialCandidate, PruneOracle, PruneStats,
};
pub use rel::{stronglift, union_all, weaklift, Rel};
pub use set::{EventSet, MAX_EVENTS};
pub use wf::WfError;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::analysis::ExecutionAnalysis;
    pub use crate::build::ExecBuilder;
    pub use crate::event::{loc_name, Attrs, Call, Event, EventId, EventKind, Fence, Loc, Tid};
    pub use crate::exec::{CrClass, Execution, LocSet, ThreadEvents, TxnClass};
    pub use crate::rel::{stronglift, union_all, weaklift, Rel};
    pub use crate::set::EventSet;
    pub use crate::wf::WfError;
}
