//! # txmm-cat
//!
//! A `.cat`-subset DSL — the format of the paper's companion material —
//! with a lexer, parser and evaluator, plus all ten models (five
//! baselines, five transactional extensions) shipped as `.cat` sources.
//!
//! The subset covers everything the paper's models need: the relational
//! operators `| & \ ; ~ ^-1 ? + *`, set cross-products, `[set]`
//! lifting, recursive `let rec … and …` groups (the Power ppo
//! fixpoint), the `weaklift`/`stronglift` combinators of §3.3, and the
//! `acyclic`/`irreflexive`/`empty` checks.
//!
//! Models compile to a relation-algebra bytecode ([`compile`]) through
//! a lowering pass and an optimiser, and checks run that one program on
//! a register VM at every event count. The AST interpreter
//! survives as [`CatModel::check_analysis_reference`], the reference
//! side of the compiled-vs-interpreted differential.
//!
//! ```
//! use txmm_cat::{cat_model, parse, CatModel};
//! use txmm_models::catalog;
//!
//! // The shipped transactional x86 model forbids Fig. 2's execution.
//! let m = cat_model("x86-tm").unwrap();
//! assert!(!m.consistent(&catalog::fig2()).unwrap());
//!
//! // Ad-hoc models evaluate too.
//! let sc = CatModel::new("sc", parse("acyclic po | com as Order").unwrap());
//! assert!(sc.consistent(&catalog::fig1()).unwrap());
//! ```

pub(crate) mod chunk;
pub(crate) mod compile;
pub(crate) mod eval;
pub(crate) mod lexer;
pub(crate) mod models;
pub(crate) mod opt;
pub(crate) mod parser;
pub(crate) mod prune;
pub(crate) mod vm;

pub use chunk::SetBuiltin;
pub use compile::{compile, intern_label, lower};
pub use eval::CatModel;
pub use models::{all_cat_models, cat_model, SOURCES};
pub use parser::parse;
pub use prune::{prune_program, CatPruneOracle};
