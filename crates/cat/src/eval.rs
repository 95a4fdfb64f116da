//! Evaluating `.cat` models over executions.

use std::collections::HashMap;
use std::fmt;

use txmm_core::{stronglift, weaklift, Attrs, EventSet, Execution, ExecutionAnalysis, Fence, Rel};
use txmm_models::{Checker, Verdict};

use crate::parser::{CatFile, CheckKind, Decl, Expr};

/// A `.cat` value: a set of events or a relation.
///
/// `Rel` is an inline bit-matrix (no heap), so the variants differ in
/// size by design; boxing the relation would reintroduce the allocation
/// the representation exists to avoid.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// A set of events.
    Set(EventSet),
    /// A binary relation.
    Rel(Rel),
}

/// An evaluation error, pointing at the source line of the construct
/// that failed (e.g. `unsupported operator 'fencerel' at line 12`).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// Description, naming the offending construct.
    pub message: String,
    /// 1-based source line of the construct, when known.
    pub line: Option<u32>,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "{} at line {l}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for EvalError {}

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

/// The operators (herd "functions") the evaluator and the compiler
/// implement, with their arities. Anything else is an unsupported
/// construct; both pipelines phrase the diagnostic off this table.
pub(crate) const OPERATORS: [(&str, usize); 5] = [
    ("weaklift", 2),
    ("stronglift", 2),
    ("domain", 1),
    ("range", 1),
    ("fencerel", 1),
];

/// The evaluation environment: builtin sets/relations of the execution
/// plus user `let` bindings.
///
/// Builtins are served from a borrowed [`ExecutionAnalysis`], so a
/// `.cat` model evaluation costs the same derived-relation work as a
/// native model check — and checking several models (`.cat` or native)
/// against one execution shares the same cached structure.
pub(crate) struct Env<'a, 'x> {
    a: &'a ExecutionAnalysis<'x>,
    vars: HashMap<String, Value>,
}

impl<'a, 'x> Env<'a, 'x> {
    /// Builtins served from a caller-shared analysis.
    pub(crate) fn new(a: &'a ExecutionAnalysis<'x>) -> Env<'a, 'x> {
        Env {
            a,
            vars: HashMap::new(),
        }
    }

    fn builtin(&self, name: &str) -> Option<Value> {
        let a = self.a;
        let x = a.exec();
        let n = x.len();
        let rel = |r: Rel| Some(Value::Rel(r));
        let set = |s: EventSet| Some(Value::Set(s));
        match name {
            // Sets.
            "R" => set(a.reads()),
            "W" => set(a.writes()),
            "M" => set(x.accesses()),
            "F" => set(a.fences()),
            "A" | "Acq" => set(a.acq()),
            "L" | "Rel" => set(a.rel_events()),
            "SC" => set(a.sc_events()),
            "Ato" => set(a.ato()),
            "emptyset" => set(EventSet::EMPTY),
            // Relations.
            "id" => rel(Rel::id(n)),
            "unv" => rel(Rel::full(n)),
            "po" => rel(*x.po()),
            "addr" => rel(*x.addr()),
            "ctrl" => rel(*x.ctrl()),
            "data" => rel(*x.data()),
            "rmw" => rel(*x.rmw()),
            "rf" => rel(*x.rf()),
            "co" => rel(*x.co()),
            "fr" => rel(*a.fr()),
            "com" => rel(*a.com()),
            "rfe" => rel(*a.rfe()),
            "rfi" => rel(*a.rfi()),
            "coe" => rel(*a.coe()),
            "coi" => rel(*a.coi()),
            "fre" => rel(*a.fre()),
            "fri" => rel(*a.fri()),
            "come" => rel(*a.come()),
            "sloc" | "loc" => rel(*a.sloc()),
            "sthd" | "int" => rel(*a.sthd()),
            "ext" => rel(a.sthd().complement()),
            "poloc" => rel(*a.po_loc()),
            "stxn" => rel(*a.stxn()),
            "stxnat" => rel(*a.stxnat()),
            "tfence" => rel(*a.tfence()),
            "scr" => rel(*a.scr()),
            "scrt" => rel(*a.scrt()),
            "mfence" => rel(*a.fence_rel(Fence::MFence)),
            "sync" => rel(*a.fence_rel(Fence::Sync)),
            "lwsync" => rel(*a.fence_rel(Fence::Lwsync)),
            "isync" => rel(*a.fence_rel(Fence::Isync)),
            "dmb" => rel(*a.fence_rel(Fence::Dmb)),
            "dmbld" => rel(*a.fence_rel(Fence::DmbLd)),
            "dmbst" => rel(*a.fence_rel(Fence::DmbSt)),
            "isb" => rel(*a.fence_rel(Fence::Isb)),
            // Fence-event sets (for [ISB]-style uses).
            "ISB" => set(x.fence_events(Fence::Isb)),
            "MFENCE" => set(x.fence_events(Fence::MFence)),
            "SYNC" => set(x.fence_events(Fence::Sync)),
            "LWSYNC" => set(x.fence_events(Fence::Lwsync)),
            "ISYNC" => set(x.fence_events(Fence::Isync)),
            "DMB" => set(x.fence_events(Fence::Dmb)),
            "DMBLD" => set(x.fence_events(Fence::DmbLd)),
            "DMBST" => set(x.fence_events(Fence::DmbSt)),
            // Attribute shorthands used by the C++ model.
            "RlxW" => set(a.writes().inter(a.ato())),
            "RlxR" => set(a.reads().inter(a.ato())),
            "FSC" => set(a.sc_events().inter(a.fences())),
            "AcqRead" => set(a.acq().inter(a.reads())),
            "RelWrite" => set(x.with_attr(Attrs::REL).inter(a.writes())),
            _ => None,
        }
    }

    fn lookup(&self, name: &str, line: u32) -> Result<Value, EvalError> {
        if let Some(v) = self.vars.get(name) {
            return Ok(v.clone());
        }
        match self.builtin(name) {
            Some(v) => Ok(v),
            None => err_at(line, format!("unbound identifier '{name}'")),
        }
    }

    fn as_rel(&self, v: Value) -> Rel {
        match v {
            Value::Rel(r) => r,
            // Implicit coercion: a set used as a relation means [set]
            // (herd does the same for `[S]`-free positions rarely; we
            // keep it for convenience in lifts).
            Value::Set(s) => Rel::id_on(self.a.len(), s),
        }
    }

    /// Evaluate an expression.
    pub(crate) fn eval(&self, e: &Expr) -> Result<Value, EvalError> {
        let n = self.a.len();
        Ok(match e {
            Expr::Ident(name, line) => self.lookup(name, *line)?,
            Expr::Universe => Value::Set(EventSet::universe(n)),
            Expr::Union(a, b) => match (self.eval(a)?, self.eval(b)?) {
                (Value::Set(x), Value::Set(y)) => Value::Set(x.union(y)),
                (x, y) => Value::Rel(self.as_rel(x).union(&self.as_rel(y))),
            },
            Expr::Inter(a, b) => match (self.eval(a)?, self.eval(b)?) {
                (Value::Set(x), Value::Set(y)) => Value::Set(x.inter(y)),
                (x, y) => Value::Rel(self.as_rel(x).inter(&self.as_rel(y))),
            },
            Expr::Diff(a, b) => match (self.eval(a)?, self.eval(b)?) {
                (Value::Set(x), Value::Set(y)) => Value::Set(x.minus(y)),
                (x, y) => Value::Rel(self.as_rel(x).minus(&self.as_rel(y))),
            },
            Expr::Seq(a, b) => {
                Value::Rel(self.as_rel(self.eval(a)?).seq(&self.as_rel(self.eval(b)?)))
            }
            Expr::Cross(a, b) => match (self.eval(a)?, self.eval(b)?) {
                (Value::Set(x), Value::Set(y)) => Value::Rel(Rel::cross(n, x, y)),
                _ => return err("cross product needs two sets"),
            },
            Expr::Plus(a) => Value::Rel(self.as_rel(self.eval(a)?).plus()),
            Expr::Star(a) => Value::Rel(self.as_rel(self.eval(a)?).star()),
            Expr::Opt(a) => Value::Rel(self.as_rel(self.eval(a)?).opt()),
            Expr::Inverse(a) => Value::Rel(self.as_rel(self.eval(a)?).inverse()),
            Expr::Complement(a) => match self.eval(a)? {
                Value::Set(s) => Value::Set(s.complement(n)),
                Value::Rel(r) => Value::Rel(r.complement()),
            },
            Expr::IdOn(a) => match self.eval(a)? {
                Value::Set(s) => Value::Rel(Rel::id_on(n, s)),
                Value::Rel(_) => return err("[_] needs a set"),
            },
            Expr::Call(f, args, line) => self.call(f, args, *line)?,
        })
    }

    fn call(&self, f: &str, args: &[Expr], line: u32) -> Result<Value, EvalError> {
        let rel_arg =
            |i: usize| -> Result<Rel, EvalError> { Ok(self.as_rel(self.eval(&args[i])?)) };
        match (f, args.len()) {
            ("weaklift", 2) => Ok(Value::Rel(weaklift(&rel_arg(0)?, &rel_arg(1)?))),
            ("stronglift", 2) => Ok(Value::Rel(stronglift(&rel_arg(0)?, &rel_arg(1)?))),
            ("domain", 1) => Ok(Value::Set(rel_arg(0)?.domain())),
            ("range", 1) => Ok(Value::Set(rel_arg(0)?.range())),
            ("fencerel", 1) => {
                // herd's fencerel(S) = po ; [S] ; po — the ordering
                // induced by the fence events in S. The argument is a
                // set; a relation argument is an arity-class error the
                // same way a set in seq position would be.
                let id = match self.eval(&args[0])? {
                    Value::Set(s) => Rel::id_on(self.a.len(), s),
                    Value::Rel(_) => {
                        return err_at(line, "operator 'fencerel' expects a set of fence events")
                    }
                };
                let po = self.a.exec().po();
                Ok(Value::Rel(po.seq(&id).seq(po)))
            }
            _ => match OPERATORS.iter().find(|(name, _)| *name == f) {
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

thread_local! {
    /// One register file per thread: checking a stream of executions
    /// allocates nothing after the banks first grow to fit.
    static VM: std::cell::RefCell<crate::vm::Vm> = std::cell::RefCell::new(crate::vm::Vm::new());
}

/// A compiled `.cat` model ready to check executions.
///
/// Construction lowers and optimises the parsed file into one bytecode
/// program, which every check runs on the VM at any event count.
/// Compile-time diagnostics are stored and returned from every check,
/// preserving the interpreter's construct-plus-line error quality. The
/// AST interpreter survives as the `*_reference` methods for
/// differential checking.
pub struct CatModel {
    /// The display name.
    pub name: &'static str,
    file: CatFile,
    /// The optimised program, or the compile diagnostic.
    program: Result<crate::chunk::Chunk, EvalError>,
    /// This model's compile time, a registry handle labelled by model
    /// name so every `CatModel` shows up in the metrics exposition.
    compile_nanos: txmm_obs::Counter,
}

impl CatModel {
    /// Compile a parsed file. Lowering errors are deferred: they come
    /// back from every check, exactly like interpreter errors did.
    pub fn new(name: &'static str, file: CatFile) -> CatModel {
        let start = std::time::Instant::now();
        let program = {
            let _span = txmm_obs::span!("cat.compile");
            crate::compile::compile(&file)
        };
        let compile_nanos = start.elapsed().as_nanos() as u64;
        let nanos = txmm_obs::global().counter_with(
            "txmm_cat_compile_nanoseconds_total",
            "Cumulative .cat compile time.",
            &[("model", name)],
        );
        nanos.add(compile_nanos);
        CatModel {
            name,
            file,
            program,
            compile_nanos: nanos,
        }
    }

    /// The optimised program, or the compile diagnostic.
    pub(crate) fn program(&self) -> Result<&crate::chunk::Chunk, &EvalError> {
        self.program.as_ref()
    }

    /// How long construction took to lower and optimise the program, in
    /// nanoseconds.
    pub fn compile_nanos(&self) -> u64 {
        self.compile_nanos.get()
    }

    /// Evaluate every check over an execution (private analysis).
    pub(crate) fn check(&self, x: &Execution) -> Result<Verdict, EvalError> {
        self.check_analysis(&x.analysis())
    }

    /// Run the compiled program against a caller-shared analysis.
    pub fn check_analysis(&self, a: &ExecutionAnalysis<'_>) -> Result<Verdict, EvalError> {
        let _span = txmm_obs::span!("vm.check");
        let program = self.program.as_ref().map_err(Clone::clone)?;
        let mut checker = Checker::new(self.name);
        VM.with(|vm| vm.borrow_mut().run(program, a, &mut checker));
        Ok(checker.finish())
    }

    /// Convenience: is the execution consistent under this model?
    pub fn consistent(&self, x: &Execution) -> Result<bool, EvalError> {
        Ok(self.check(x)?.is_consistent())
    }

    /// The AST-walking interpreter against a caller-shared analysis.
    pub fn check_analysis_reference(
        &self,
        a: &ExecutionAnalysis<'_>,
    ) -> Result<Verdict, EvalError> {
        let x = a.exec();
        let mut env = Env::new(a);
        let mut checker = Checker::new(self.name);
        for decl in &self.file.decls {
            match decl {
                Decl::Let {
                    recursive: false,
                    bindings,
                } => {
                    for (name, e) in bindings {
                        let v = env.eval(e)?;
                        env.vars.insert(name.clone(), v);
                    }
                }
                Decl::Let {
                    recursive: true,
                    bindings,
                } => {
                    // Least fixpoint: start from empty relations and
                    // iterate (all cat fixpoints we use are monotone).
                    let n = x.len();
                    for (name, _) in bindings {
                        env.vars.insert(name.clone(), Value::Rel(Rel::empty(n)));
                    }
                    loop {
                        let mut changed = false;
                        for (name, e) in bindings {
                            let v = env.eval(e)?;
                            if env.vars.get(name) != Some(&v) {
                                env.vars.insert(name.clone(), v);
                                changed = true;
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                }
                Decl::Check { kind, expr, name } => {
                    let r = env.as_rel(env.eval(expr)?);
                    let static_name = crate::compile::intern_label(name);
                    match kind {
                        CheckKind::Acyclic => checker.acyclic(static_name, &r),
                        CheckKind::Irreflexive => checker.irreflexive(static_name, &r),
                        CheckKind::Empty => checker.empty(static_name, &r),
                    };
                }
            }
        }
        Ok(checker.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use txmm_core::ExecBuilder;
    use txmm_models::catalog;

    fn sc_model() -> CatModel {
        CatModel::new("cat-sc", parse("acyclic po | com as Order").unwrap())
    }

    #[test]
    fn sc_in_cat() {
        let m = sc_model();
        assert!(m.consistent(&catalog::fig1()).unwrap());
        assert!(!m.consistent(&catalog::sb(None, false, false)).unwrap());
    }

    #[test]
    fn tsc_in_cat() {
        let src = "
            let hb = po | com
            acyclic hb as Order
            acyclic stronglift(hb, stxn) as TxnOrder
        ";
        let m = CatModel::new("cat-tsc", parse(src).unwrap());
        assert!(!m.consistent(&catalog::fig3('a')).unwrap());
        assert!(m.consistent(&catalog::fig1()).unwrap());
    }

    #[test]
    fn sets_and_cross() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 0);
        b.read(t0, 0);
        let x = b.build().unwrap();
        let a = x.analysis();
        let env = Env::new(&a);
        let e = parse("let z = (W * R) & po").unwrap();
        let Decl::Let { bindings, .. } = &e.decls[0] else {
            panic!()
        };
        let Value::Rel(r) = env.eval(&bindings[0].1).unwrap() else {
            panic!()
        };
        assert!(r.contains(0, 1));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn let_rec_fixpoint() {
        // Transitive closure via a recursive definition.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.read(t0, 0);
        b.read(t0, 0);
        b.read(t0, 0);
        let x = b.build().unwrap();
        let src = "
            let step = po & ~(po ; po)   // immediate po
            let rec tc = step | tc ; step
            empty tc \\ po as Sub
            empty po \\ tc as Sup
        ";
        let m = CatModel::new("rec", parse(src).unwrap());
        let v = m.check(&x).unwrap();
        assert!(v.is_consistent(), "{v}");
    }

    #[test]
    fn unbound_identifier_errors() {
        // Class: reference to a relation/set the subset doesn't define.
        let m = CatModel::new(
            "bad",
            parse("let hb = po | com\nacyclic hb ; nonsense as X").unwrap(),
        );
        let e = m.check(&catalog::fig1()).unwrap_err();
        assert_eq!(e.to_string(), "unbound identifier 'nonsense' at line 2");
    }

    #[test]
    fn unsupported_operator_reports_name_and_line() {
        // Class: herd operator (function) outside the subset.
        let src = "let hb = po | com\nlet f = fold(MFENCE)\nacyclic hb as Order";
        let m = CatModel::new("bad", parse(src).unwrap());
        let e = m.check(&catalog::fig1()).unwrap_err();
        assert_eq!(e.to_string(), "unsupported operator 'fold' at line 2");
    }

    #[test]
    fn fencerel_matches_native_derivation() {
        // fencerel(MFENCE) must equal the native analysis derivation
        // po ; [F_mfence] ; po on a fence-bearing execution.
        use txmm_core::Fence;
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 0);
        b.fence(t0, Fence::MFence);
        b.read(t0, 1);
        let t1 = b.new_thread();
        b.write(t1, 1);
        let x = b.build().unwrap();
        let a = x.analysis();
        let env = Env::new(&a);
        let e = parse("let f = fencerel(MFENCE)").unwrap();
        let Decl::Let { bindings, .. } = &e.decls[0] else {
            panic!()
        };
        let Value::Rel(r) = env.eval(&bindings[0].1).unwrap() else {
            panic!()
        };
        assert_eq!(&r, a.fence_rel(Fence::MFence), "cat = native derivation");
        assert!(r.contains(0, 2), "write before the fence orders the read");
        assert!(!r.contains(0, 3), "no cross-thread fence ordering");
    }

    #[test]
    fn fencerel_models_check_like_builtin_fence_relations() {
        // A model phrased through fencerel (the herd idiom) must agree
        // with the same model phrased through the builtin alias.
        use txmm_core::Fence;
        let via_fencerel = CatModel::new(
            "fencerel-sc",
            parse("acyclic po | com as Order\nacyclic fencerel(MFENCE) | com as Fenced").unwrap(),
        );
        let via_builtin = CatModel::new(
            "builtin-sc",
            parse("acyclic po | com as Order\nacyclic mfence | com as Fenced").unwrap(),
        );
        for x in [
            catalog::fig1(),
            catalog::sb(Some(Fence::MFence), false, false),
            catalog::sb(None, false, false),
        ] {
            assert_eq!(
                via_fencerel.check(&x).unwrap().violations(),
                via_builtin.check(&x).unwrap().violations()
            );
        }
    }

    #[test]
    fn fencerel_rejects_relation_arguments() {
        let m = CatModel::new("bad", parse("acyclic fencerel(po) as X").unwrap());
        let e = m.check(&catalog::fig1()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "operator 'fencerel' expects a set of fence events at line 1"
        );
    }

    #[test]
    fn wrong_operator_arity_reports_line() {
        // Class: supported operator applied at the wrong arity.
        let m = CatModel::new("bad", parse("acyclic stronglift(po) as X").unwrap());
        let e = m.check(&catalog::fig1()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "operator 'stronglift' expects 2 arguments, got 1 at line 1"
        );
    }

    #[test]
    fn check_names_reported() {
        let m = sc_model();
        let v = m.check(&catalog::sb(None, false, false)).unwrap();
        assert_eq!(v.violations(), ["Order"]);
    }

    /// Compiling one source twice leaks its check labels once: both
    /// models, and the reference interpreter, report the same label.
    #[test]
    fn recompiling_reuses_the_check_labels() {
        let (a, b) = (sc_model(), sc_model());
        let x = catalog::sb(None, false, false);
        let label = |v: Verdict| v.violations()[0];
        let first = label(a.check(&x).unwrap());
        assert!(std::ptr::eq(first, label(b.check(&x).unwrap())));
        let reference = b.check_analysis_reference(&x.analysis()).unwrap();
        assert!(std::ptr::eq(first, label(reference)));
    }
}
