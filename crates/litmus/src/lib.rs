//! # txmm-litmus
//!
//! Litmus-test construction from executions (§2.2, §3.2 of the paper)
//! and rendering to pseudocode or per-architecture assembly.
//!
//! The key entry point is [`litmus_from_execution`]: given a candidate
//! execution, it builds the program-with-postcondition whose
//! postcondition passes exactly when that execution is taken — unique
//! write values pin `rf`, final-state checks pin `co`, and per-
//! transaction `ok` flags check that transactions committed.
//!
//! ```
//! use txmm_litmus::{litmus_from_execution, render};
//! use txmm_models::{catalog, Arch};
//!
//! let t = litmus_from_execution("fig2", &catalog::fig2(), Arch::X86);
//! let listing = render::assembly(&t);
//! assert!(listing.contains("XBEGIN"));
//! ```

pub(crate) mod ast;
pub(crate) mod from_exec;
pub(crate) mod outcomes;
pub(crate) mod parse;
pub mod render;
pub(crate) mod to_exec;

pub use ast::{AccessMode, Check, Dep, DepKind, Instr, LitmusTest, Op, Reg};
pub use from_exec::{litmus_from_execution, write_values};
pub use outcomes::{
    enumerate_candidates, enumerate_candidates_pruned, program_key, Candidate, ProgramSkeleton,
};
pub use parse::{parse_litmus, LitmusParseError};
pub use to_exec::execution_from_litmus;
