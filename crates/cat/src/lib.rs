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
//! Models compile to a relation-algebra bytecode ([`chunk`]) through a
//! lowering pass ([`mod@compile`]) and an optimiser ([`opt`]), and checks
//! execute on a register VM ([`vm`]) specialised per event count. The
//! AST interpreter survives as `CatModel::check_reference` for
//! differential testing.
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

pub mod chunk;
pub mod compile;
pub mod eval;
pub mod lexer;
pub mod models;
pub mod opt;
pub mod parser;
pub mod prune;
pub mod vm;

pub use chunk::{Chunk, Op, RelBuiltin, SetBuiltin};
pub use compile::{compile, lower};
pub use eval::{CatModel, CompileStats, Env, EvalError, Value};
pub use lexer::{lex, LexError, Token};
pub use models::{all_cat_models, cat_model, SOURCES};
pub use opt::{optimise, specialise};
pub use parser::{parse, CatFile, CheckKind, Decl, Expr, ParseError};
pub use prune::{prune_program, CatPruneOracle};
pub use vm::Vm;
