//! Lowering parsed `.cat` files to [`Chunk`] bytecode.
//!
//! The lowerer resolves every name once — user `let` bindings become
//! register aliases, builtins become loads — and assigns each
//! expression node a fresh register; [`crate::opt::optimise`] then
//! dedups, rewrites and compacts the naive stream. Value kinds (set vs
//! relation) are fully static in the `.cat` subset, so every error the
//! AST interpreter reports at evaluation time is a *compile-time*
//! diagnostic here, with the same message and 1-based source line:
//! compiling and evaluating a model fail identically, construct for
//! construct.
//!
//! `let rec` groups lower to the same sequential (Gauss–Seidel) least
//! fixpoint the interpreter iterates: seed every bound register empty,
//! then per iteration evaluate each binding in order, folding its value
//! into the bound register through a [`Op::FixUpdate`] convergence
//! test, and loop while anything changed. Recursive bindings are
//! relation-typed (they start from the empty relation, exactly like
//! the interpreter's seed).

use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, PoisonError};

use crate::chunk::{Chunk, Op, RReg, RelBuiltin, SReg, SetBuiltin};
use crate::eval::EvalError;
use crate::parser::{CatFile, Decl, Expr};

fn err<T>(message: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError {
        message: message.into(),
        line: None,
    })
}

fn err_at<T>(line: u32, message: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError {
        message: message.into(),
        line: Some(line),
    })
}

/// `label` as a `&'static str`, leaked once per distinct string for the
/// process: compiling a model again (a reload, one more shard's
/// Session) reuses the check labels and model names leaked before.
pub fn intern_label(label: &str) -> &'static str {
    static LABELS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    // The set is only ever inserted into, so every state is valid.
    let mut labels = LABELS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = labels.get(label) {
        return interned;
    }
    let interned: &'static str = Box::leak(label.into());
    labels.insert(interned);
    interned
}

/// A lowered expression value: a register in one of the two banks.
#[derive(Debug, Clone, Copy)]
enum Val {
    R(RReg),
    S(SReg),
}

/// Compile a parsed file to an optimised, event-count-generic program.
pub fn compile(file: &CatFile) -> Result<Chunk, EvalError> {
    Ok(crate::opt::optimise(lower(file)?))
}

/// Lower without optimising (one register per expression node); the
/// optimiser tests diff this against [`compile`].
pub fn lower(file: &CatFile) -> Result<Chunk, EvalError> {
    let mut l = Lowerer {
        ops: Vec::new(),
        rel_regs: 0,
        set_regs: 0,
        names: Vec::new(),
        fix_groups: Vec::new(),
        env: HashMap::new(),
    };
    for decl in &file.decls {
        l.decl(decl)?;
    }
    let (Ok(rel_regs), Ok(set_regs)) = (u16::try_from(l.rel_regs), u16::try_from(l.set_regs))
    else {
        return err(format!(
            "model needs more than {} relation or set registers",
            u16::MAX
        ));
    };
    Ok(Chunk {
        ops: l.ops,
        rel_regs,
        set_regs,
        names: l.names,
        fix_groups: l.fix_groups,
    })
}

struct Lowerer {
    ops: Vec<Op>,
    /// Registers allocated so far. Counted wider than a register index,
    /// so a program past the index space is refused, not wrapped.
    rel_regs: u32,
    set_regs: u32,
    names: Vec<&'static str>,
    fix_groups: Vec<(u32, u32)>,
    env: HashMap<String, Val>,
}

impl Lowerer {
    fn rreg(&mut self) -> RReg {
        let r = RReg(self.rel_regs as u16);
        self.rel_regs += 1;
        r
    }

    fn sreg(&mut self) -> SReg {
        let s = SReg(self.set_regs as u16);
        self.set_regs += 1;
        s
    }

    /// The interpreter's implicit set→relation coercion: `[set]`.
    fn as_rel(&mut self, v: Val) -> RReg {
        match v {
            Val::R(r) => r,
            Val::S(s) => {
                let dst = self.rreg();
                self.ops.push(Op::IdOn { dst, src: s });
                dst
            }
        }
    }

    fn decl(&mut self, decl: &Decl) -> Result<(), EvalError> {
        match decl {
            Decl::Let {
                recursive: false,
                bindings,
            } => {
                for (name, e) in bindings {
                    let v = self.expr(e)?;
                    self.env.insert(name.clone(), v);
                }
            }
            Decl::Let {
                recursive: true,
                bindings,
            } => {
                let bound: Vec<RReg> = bindings
                    .iter()
                    .map(|(name, _)| {
                        let dst = self.rreg();
                        self.ops.push(Op::EmptyR { dst });
                        self.env.insert(name.clone(), Val::R(dst));
                        dst
                    })
                    .collect();
                let start = self.ops.len() as u32;
                for ((_, e), &b) in bindings.iter().zip(&bound) {
                    let v = self.expr(e)?;
                    let src = self.as_rel(v);
                    self.ops.push(Op::FixUpdate { bound: b, src });
                }
                self.ops.push(Op::FixLoop { start });
                self.fix_groups.push((start, self.ops.len() as u32));
            }
            Decl::Check { kind, expr, name } => {
                let v = self.expr(expr)?;
                let src = self.as_rel(v);
                let idx = self.names.len() as u16;
                self.names.push(intern_label(name));
                self.ops.push(Op::Check {
                    kind: *kind,
                    src,
                    name: idx,
                });
            }
        }
        Ok(())
    }

    fn lookup(&mut self, name: &str, line: u32) -> Result<Val, EvalError> {
        if let Some(&v) = self.env.get(name) {
            return Ok(v);
        }
        if let Some(b) = SetBuiltin::lookup(name) {
            let dst = self.sreg();
            self.ops.push(Op::LoadS { dst, b });
            return Ok(Val::S(dst));
        }
        if let Some(b) = RelBuiltin::lookup(name) {
            let dst = self.rreg();
            self.ops.push(Op::LoadR { dst, b });
            return Ok(Val::R(dst));
        }
        err_at(line, format!("unbound identifier '{name}'"))
    }

    /// Binary set-or-relation operators: set when both sides are sets,
    /// otherwise both coerce to relations (the interpreter's rule).
    fn setrel(
        &mut self,
        a: &Expr,
        b: &Expr,
        set_op: impl FnOnce(SReg, SReg, SReg) -> Op,
        rel_op: impl FnOnce(RReg, RReg, RReg) -> Op,
    ) -> Result<Val, EvalError> {
        let x = self.expr(a)?;
        let y = self.expr(b)?;
        Ok(match (x, y) {
            (Val::S(a), Val::S(b)) => {
                let dst = self.sreg();
                self.ops.push(set_op(dst, a, b));
                Val::S(dst)
            }
            (x, y) => {
                let a = self.as_rel(x);
                let b = self.as_rel(y);
                let dst = self.rreg();
                self.ops.push(rel_op(dst, a, b));
                Val::R(dst)
            }
        })
    }

    /// Unary relation operators (operand coerces).
    fn unary(&mut self, a: &Expr, op: impl FnOnce(RReg, RReg) -> Op) -> Result<Val, EvalError> {
        let v = self.expr(a)?;
        let src = self.as_rel(v);
        let dst = self.rreg();
        self.ops.push(op(dst, src));
        Ok(Val::R(dst))
    }

    fn expr(&mut self, e: &Expr) -> Result<Val, EvalError> {
        match e {
            Expr::Ident(name, line) => self.lookup(name, *line),
            Expr::Universe => {
                let dst = self.sreg();
                self.ops.push(Op::Universe { dst });
                Ok(Val::S(dst))
            }
            Expr::Union(a, b) => self.setrel(
                a,
                b,
                |dst, a, b| Op::UnionS { dst, a, b },
                |dst, a, b| Op::UnionR { dst, a, b },
            ),
            Expr::Inter(a, b) => self.setrel(
                a,
                b,
                |dst, a, b| Op::InterS { dst, a, b },
                |dst, a, b| Op::InterR { dst, a, b },
            ),
            Expr::Diff(a, b) => self.setrel(
                a,
                b,
                |dst, a, b| Op::DiffS { dst, a, b },
                |dst, a, b| Op::DiffR { dst, a, b },
            ),
            Expr::Seq(a, b) => {
                let x = self.expr(a)?;
                let ra = self.as_rel(x);
                let y = self.expr(b)?;
                let rb = self.as_rel(y);
                let dst = self.rreg();
                self.ops.push(Op::SeqR { dst, a: ra, b: rb });
                Ok(Val::R(dst))
            }
            Expr::Cross(a, b) => {
                let x = self.expr(a)?;
                let y = self.expr(b)?;
                match (x, y) {
                    (Val::S(a), Val::S(b)) => {
                        let dst = self.rreg();
                        self.ops.push(Op::Cross { dst, a, b });
                        Ok(Val::R(dst))
                    }
                    _ => err("cross product needs two sets"),
                }
            }
            Expr::Plus(a) => self.unary(a, |dst, src| Op::Plus { dst, src }),
            Expr::Star(a) => self.unary(a, |dst, src| Op::Star { dst, src }),
            Expr::Opt(a) => self.unary(a, |dst, src| Op::Opt { dst, src }),
            Expr::Inverse(a) => self.unary(a, |dst, src| Op::Inverse { dst, src }),
            Expr::Complement(a) => match self.expr(a)? {
                Val::S(src) => {
                    let dst = self.sreg();
                    self.ops.push(Op::ComplementS { dst, src });
                    Ok(Val::S(dst))
                }
                Val::R(src) => {
                    let dst = self.rreg();
                    self.ops.push(Op::ComplementR { dst, src });
                    Ok(Val::R(dst))
                }
            },
            Expr::IdOn(a) => match self.expr(a)? {
                Val::S(src) => {
                    let dst = self.rreg();
                    self.ops.push(Op::IdOn { dst, src });
                    Ok(Val::R(dst))
                }
                Val::R(_) => err("[_] needs a set"),
            },
            Expr::Call(f, args, line) => self.call(f, args, *line),
        }
    }

    /// Operator applications, with the interpreter's exact error order:
    /// a name/arity mismatch is reported before the arguments are
    /// looked at; a `fencerel` kind mismatch after its argument
    /// compiles.
    fn call(&mut self, f: &str, args: &[Expr], line: u32) -> Result<Val, EvalError> {
        match (f, args.len()) {
            ("weaklift", 2) | ("stronglift", 2) => {
                let x = self.expr(&args[0])?;
                let a = self.as_rel(x);
                let y = self.expr(&args[1])?;
                let b = self.as_rel(y);
                let dst = self.rreg();
                self.ops.push(if f == "weaklift" {
                    Op::Weaklift { dst, a, b }
                } else {
                    Op::Stronglift { dst, a, b }
                });
                Ok(Val::R(dst))
            }
            ("domain", 1) | ("range", 1) => {
                let x = self.expr(&args[0])?;
                let src = self.as_rel(x);
                let dst = self.sreg();
                self.ops.push(if f == "domain" {
                    Op::Domain { dst, src }
                } else {
                    Op::Range { dst, src }
                });
                Ok(Val::S(dst))
            }
            ("fencerel", 1) => match self.expr(&args[0])? {
                Val::S(src) => {
                    let dst = self.rreg();
                    self.ops.push(Op::Fencerel { dst, src });
                    Ok(Val::R(dst))
                }
                Val::R(_) => err_at(line, "operator 'fencerel' expects a set of fence events"),
            },
            _ => match crate::eval::OPERATORS.iter().find(|(name, _)| *name == f) {
                Some((_, arity)) => err_at(
                    line,
                    format!(
                        "operator '{f}' expects {arity} arguments, got {}",
                        args.len()
                    ),
                ),
                None => err_at(line, format!("unsupported operator '{f}'")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_err(src: &str) -> EvalError {
        compile(&parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn shipped_models_compile() {
        for (name, src) in crate::models::SOURCES {
            let c = compile(&parse(src).unwrap()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!c.is_empty(), "{name}");
            assert!(
                c.ops
                    .iter()
                    .any(|op| matches!(op, crate::chunk::Op::Check { .. })),
                "{name} keeps its checks"
            );
        }
    }

    #[test]
    fn register_overflow_is_refused_not_wrapped() {
        // `let r0 = po`, then links `let rK = rK-1 | po`: each link
        // takes two relation registers (the builtin and the union).
        let chain = |links: usize| {
            let mut src = String::from("let r0 = po\n");
            for k in 1..=links {
                src += &format!("let r{k} = r{} | po\n", k - 1);
            }
            src
        };
        let lowered = |links: usize| lower(&parse(&chain(links)).unwrap());
        assert_eq!(lowered(1).unwrap().rel_regs, 3);
        let last = (u16::MAX as usize - 1) / 2;
        assert_eq!(lowered(last).unwrap().rel_regs, u16::MAX);
        let e = compile(&parse(&chain(last + 1)).unwrap()).unwrap_err();
        assert_eq!(
            e.message,
            "model needs more than 65535 relation or set registers"
        );
    }

    // One diagnostic test per construct class, mirroring the
    // interpreter's tests in `eval::tests` — compile errors carry the
    // same message and 1-based line as the `EvalError` the AST walk
    // reports.

    #[test]
    fn unbound_identifier_reports_name_and_line() {
        let e = compile_err("let hb = po | com\nacyclic hb ; nonsense as X");
        assert_eq!(e.to_string(), "unbound identifier 'nonsense' at line 2");
    }

    #[test]
    fn unsupported_operator_reports_name_and_line() {
        let e = compile_err("let hb = po | com\nlet f = fold(MFENCE)\nacyclic hb as Order");
        assert_eq!(e.to_string(), "unsupported operator 'fold' at line 2");
    }

    #[test]
    fn wrong_operator_arity_reports_line() {
        let e = compile_err("acyclic stronglift(po) as X");
        assert_eq!(
            e.to_string(),
            "operator 'stronglift' expects 2 arguments, got 1 at line 1"
        );
    }

    #[test]
    fn fencerel_rejects_relation_arguments() {
        let e = compile_err("acyclic fencerel(po) as X");
        assert_eq!(
            e.to_string(),
            "operator 'fencerel' expects a set of fence events at line 1"
        );
    }

    #[test]
    fn cross_product_needs_two_sets() {
        let e = compile_err("acyclic po * W as X");
        assert_eq!(e.to_string(), "cross product needs two sets");
    }

    #[test]
    fn id_lift_needs_a_set() {
        let e = compile_err("acyclic [po] as X");
        assert_eq!(e.to_string(), "[_] needs a set");
    }

    #[test]
    fn errors_surface_even_in_dead_definitions() {
        // The interpreter evaluates declarations in order, so a broken
        // binding fails the model even when no check reads it; the
        // compiler diagnoses it before dead-code elimination runs.
        let e = compile_err("let dead = fold(po)\nacyclic po as Order");
        assert_eq!(e.to_string(), "unsupported operator 'fold' at line 1");
    }
}
