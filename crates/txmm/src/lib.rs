//! # txmm — transactions + weak memory in x86, Power, ARMv8 and C++
//!
//! A Rust reproduction of *"The Semantics of Transactions and Weak
//! Memory in x86, Power, ARM, and C++"* (Chong, Sorensen, Wickerson):
//! axiomatic memory models extended with transactions, a
//! Memalloy-style synthesiser for conformance tests, operational
//! hardware simulators standing in for the paper's test machines, and
//! the metatheory toolkit (monotonicity, compilation, lock elision).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `txmm-core` | executions, relations, builder |
//! | [`models`] | `txmm-models` | SC/TSC, x86, Power, ARMv8, C++ (+TM) |
//! | [`cat`] | `txmm-cat` | the `.cat` DSL and shipped model sources |
//! | [`litmus`] | `txmm-litmus` | execution → litmus test, renderers |
//! | [`hwsim`] | `txmm-hwsim` | one operational machine for x86/ARMv8/Power |
//! | [`synth`] | `txmm-synth` | Forbid/Allow synthesis (Table 1, Fig. 7) |
//! | [`verify`] | `txmm-verify` | metatheory (Table 2) |
//! | [`obs`] | `txmm-obs` | metrics registry, request spans, Prometheus |
//!
//! ## Quick start
//!
//! ```
//! use txmm::prelude::*;
//!
//! // Example 1.1: the ARMv8 lock-elision bug. The concrete execution
//! // is consistent under the transactional ARMv8 model...
//! let buggy = txmm::models::catalog::armv8_elision(false);
//! assert!(Armv8::tm().consistent(&buggy));
//!
//! // ...and the DMB repair forbids it.
//! let fixed = txmm::models::catalog::armv8_elision(true);
//! assert!(!Armv8::tm().consistent(&fixed));
//! ```

pub use txmm_cat as cat;
pub use txmm_core as core;
pub use txmm_hwsim as hwsim;
pub use txmm_litmus as litmus;
pub use txmm_models as models;
pub use txmm_obs as obs;
pub use txmm_synth as synth;
pub use txmm_verify as verify;

pub mod corpus;
pub mod daemon;
pub mod outcomes;
pub mod paper;
pub mod protocol;
pub mod serve;
pub mod session;

/// Everything most programs need.
pub mod prelude {
    pub use crate::serve::{serve_file, serve_source};
    pub use crate::session::{ModelRef, Session, SessionStats};
    pub use txmm_core::prelude::*;
    pub use txmm_litmus::{execution_from_litmus, litmus_from_execution, LitmusTest};
    pub use txmm_models::prelude::*;
    pub use txmm_synth::{synthesise, EnumConfig, Walk};
    pub use txmm_verify::{
        check_compilation, check_lock_elision, check_monotonicity, ElisionTarget,
    };
}
