//! # txmm-models
//!
//! Axiomatic weak-memory models with transactional extensions, following
//! *"The Semantics of Transactions and Weak Memory in x86, Power, ARM,
//! and C++"*:
//!
//! * [`Sc`] / [`Tsc`] — SC and transactional SC (Fig. 4), with
//!   [`weak_isolation`] and [`strong_isolation`] (§3.3);
//! * [`X86`] — TSO with TSX-style transactions (Fig. 5);
//! * [`Power`] — the Herding-cats Power model with Power TM (Fig. 6);
//! * [`Armv8`] — the official ARMv8 model with the proposed TM extension
//!   (Fig. 8);
//! * [`cpp`] — RC11 with the C++ TM technical specification, in the
//!   paper's simplified formulation (Fig. 9, §7.2);
//! * [`catalog`] — every named execution from the paper with its expected
//!   verdicts;
//! * [`registry`] — model lookup for tools.
//!
//! ## Example
//!
//! ```
//! use txmm_models::prelude::*;
//!
//! // Store buffering with both sides transactional is forbidden under
//! // the transactional x86 model but allowed by the baseline.
//! let x = txmm_models::catalog::sb(None, true, true);
//! assert!(X86::base().consistent(&x));
//! assert!(!X86::tm().consistent(&x));
//! ```

pub(crate) mod ablation;
pub(crate) mod arch;
pub(crate) mod armv8;
pub mod catalog;
pub mod cpp;
pub(crate) mod delta;
pub(crate) mod model;
pub(crate) mod power;
pub mod registry;
pub(crate) mod sc;
pub mod shapes;
pub(crate) mod x86;

pub use ablation::{PowerAblated, PowerAblation};
pub use arch::{Arch, VocabError};
pub use armv8::Armv8;
pub use cpp::Cpp;
pub use model::{consistent_pair, Checker, Model, Verdict};
pub use power::{Highlights, Power};
pub use sc::{strong_isolation, weak_isolation, Sc, Tsc};
pub use x86::X86;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::arch::Arch;
    pub use crate::armv8::Armv8;
    pub use crate::cpp::Cpp;
    pub use crate::model::{Model, Verdict};
    pub use crate::power::Power;
    pub use crate::sc::{Sc, Tsc};
    pub use crate::x86::X86;
}
