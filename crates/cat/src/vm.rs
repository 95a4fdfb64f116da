//! The bytecode interpreter for compiled `.cat` programs.
//!
//! [`Vm::run`] executes a [`Chunk`] against one execution's shared
//! `ExecutionAnalysis`, pushing check results into a `Checker`. The
//! only allocation is the register file itself, and a [`Vm`] reuses its
//! banks across runs — checking a stream of executions through one
//! model allocates nothing after the first call.
//!
//! Every relation op is one whole-relation kernel call writing a `Rel`
//! value into its destination register. The walks and almost all served
//! programs have at most eight events, where a relation is a single
//! 64-bit block, so composition and closure are a few dozen word
//! operations; programs of 9–16 events run the kernel's four-block
//! product instead. A register write is a 40-byte copy. Because each op
//! reads its operands before it writes, a destination may alias any
//! operand, which register compaction exploits freely. Builtin loads
//! copy straight out of the shared analysis caches. Fixpoint groups
//! execute exactly the interpreter's Gauss–Seidel rounds: each
//! `FixUpdate` folds one binding's new value into the `changed` flag,
//! and the trailing `FixLoop` re-enters the body until a round leaves
//! every binding untouched.

use txmm_core::{EventSet, ExecutionAnalysis, Rel};
use txmm_models::Checker;

use crate::chunk::{Chunk, Op};
use crate::parser::CheckKind;

/// A reusable register file for executing compiled chunks.
#[derive(Default)]
pub(crate) struct Vm {
    rel: Vec<Rel>,
    set: Vec<EventSet>,
    /// The `(rel_regs, set_regs)` shape of the last run. While the shape
    /// is stable — the steady state of checking a stream of executions
    /// through one model — the banks are reused as-is, whatever the
    /// event count: compaction guarantees every physical register is
    /// written before it is read, and every write stores a whole value.
    shape: (u16, u16),
}

impl Vm {
    /// A VM with empty banks; they grow to fit the first chunk run.
    pub(crate) fn new() -> Vm {
        Vm::default()
    }

    /// Execute `chunk` against `a`, recording each check in `checker`.
    /// A chunk runs at any event count.
    pub(crate) fn run(&mut self, chunk: &Chunk, a: &ExecutionAnalysis<'_>, checker: &mut Checker) {
        let n = a.len();
        let shape = (chunk.rel_regs, chunk.set_regs);
        if self.shape != shape {
            self.rel.clear();
            self.rel.resize(chunk.rel_regs as usize, Rel::empty(n));
            self.set.clear();
            self.set.resize(chunk.set_regs as usize, EventSet::EMPTY);
            self.shape = shape;
        }
        let rel = &mut self.rel[..];
        let set = &mut self.set[..];
        let mut changed = false;
        let mut pc = 0usize;
        while pc < chunk.ops.len() {
            let op = chunk.ops[pc];
            pc += 1;
            match op {
                Op::LoadR { dst, b } => {
                    rel[dst.0 as usize] = match b.eval_ref(a) {
                        Some(r) => *r,
                        None => b.eval(a),
                    }
                }
                Op::LoadS { dst, b } => set[dst.0 as usize] = b.eval(a),
                Op::UnionR { dst, a, b } => {
                    rel[dst.0 as usize] = rel[a.0 as usize].union(&rel[b.0 as usize])
                }
                Op::InterR { dst, a, b } => {
                    rel[dst.0 as usize] = rel[a.0 as usize].inter(&rel[b.0 as usize])
                }
                Op::DiffR { dst, a, b } => {
                    rel[dst.0 as usize] = rel[a.0 as usize].minus(&rel[b.0 as usize])
                }
                Op::SeqR { dst, a, b } => {
                    rel[dst.0 as usize] = rel[a.0 as usize].seq(&rel[b.0 as usize])
                }
                Op::UnionS { dst, a, b } => {
                    set[dst.0 as usize] = set[a.0 as usize].union(set[b.0 as usize])
                }
                Op::InterS { dst, a, b } => {
                    set[dst.0 as usize] = set[a.0 as usize].inter(set[b.0 as usize])
                }
                Op::DiffS { dst, a, b } => {
                    set[dst.0 as usize] = set[a.0 as usize].minus(set[b.0 as usize])
                }
                Op::Cross { dst, a, b } => {
                    rel[dst.0 as usize] = Rel::cross(n, set[a.0 as usize], set[b.0 as usize])
                }
                Op::IdOn { dst, src } => rel[dst.0 as usize] = Rel::id_on(n, set[src.0 as usize]),
                Op::Plus { dst, src } => rel[dst.0 as usize] = rel[src.0 as usize].plus(),
                Op::Star { dst, src } => rel[dst.0 as usize] = rel[src.0 as usize].star(),
                Op::Opt { dst, src } => rel[dst.0 as usize] = rel[src.0 as usize].opt(),
                Op::Inverse { dst, src } => rel[dst.0 as usize] = rel[src.0 as usize].inverse(),
                Op::ComplementR { dst, src } => {
                    rel[dst.0 as usize] = rel[src.0 as usize].complement()
                }
                Op::ComplementS { dst, src } => {
                    set[dst.0 as usize] = set[src.0 as usize].complement(n)
                }
                Op::Domain { dst, src } => set[dst.0 as usize] = rel[src.0 as usize].domain(),
                Op::Range { dst, src } => set[dst.0 as usize] = rel[src.0 as usize].range(),
                Op::Weaklift { dst, a, b } => {
                    rel[dst.0 as usize] =
                        txmm_core::weaklift(&rel[a.0 as usize], &rel[b.0 as usize])
                }
                Op::Stronglift { dst, a, b } => {
                    rel[dst.0 as usize] =
                        txmm_core::stronglift(&rel[a.0 as usize], &rel[b.0 as usize])
                }
                Op::Fencerel { dst, src } => {
                    // po ; [S] ; po
                    let po = a.po();
                    rel[dst.0 as usize] = po.restrict_range(set[src.0 as usize]).seq(po);
                }
                Op::Universe { dst } => set[dst.0 as usize] = EventSet::universe(n),
                Op::EmptyR { dst } => rel[dst.0 as usize] = Rel::empty(n),
                Op::FixUpdate { bound, src } => {
                    if rel[bound.0 as usize] != rel[src.0 as usize] {
                        changed = true;
                        rel[bound.0 as usize] = rel[src.0 as usize];
                    }
                }
                Op::FixLoop { start } => {
                    if changed {
                        changed = false;
                        pc = start as usize;
                    }
                }
                Op::Check { kind, src, name } => {
                    let r = &rel[src.0 as usize];
                    let label = chunk.names[name as usize];
                    match kind {
                        CheckKind::Acyclic => checker.acyclic(label, r),
                        CheckKind::Irreflexive => checker.irreflexive(label, r),
                        CheckKind::Empty => checker.empty(label, r),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, lower};
    use crate::parser::parse;
    use txmm_models::catalog;

    /// Thirteen events over three threads and three locations, with
    /// fences, every dependency kind, an RMW and a transaction: its
    /// relations span all four 8×8 blocks of a `Rel`.
    fn wide() -> txmm_core::Execution {
        use txmm_core::{ExecBuilder, Fence};
        let (x, y, z) = (0, 1, 2);
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, x);
        b.fence(t0, Fence::Sync);
        let rb = b.read(t0, y);
        let c = b.write(t0, z);
        let d = b.read(t0, x);
        let t1 = b.new_thread();
        let e = b.read(t1, z);
        let f = b.write(t1, y);
        b.fence(t1, Fence::Lwsync);
        let g = b.read(t1, x);
        let h = b.write(t1, x);
        let t2 = b.new_thread();
        let i = b.read(t2, y);
        let j = b.write(t2, z);
        let k = b.read(t2, x);
        b.data(e, f).addr(e, g).rmw(g, h).ctrl(i, j).txn(&[j, k]);
        b.co(a, h).co(c, j);
        b.rf(f, rb).rf(c, e).rf(h, d).rf(a, g).rf(f, i).rf(h, k);
        let x = b.build().expect("well-formed");
        assert_eq!(x.len(), 13);
        x
    }

    /// A spread of catalog executions: fenced and unfenced, with and
    /// without transactions, across the paper's worked examples, plus
    /// two past one 8×8 block (the 9-event Power elision witness and
    /// [`wide`]).
    fn executions() -> Vec<txmm_core::Execution> {
        use txmm_core::Fence;
        vec![
            catalog::fig1(),
            catalog::fig2(),
            catalog::sb(None, false, false),
            catalog::sb(Some(Fence::MFence), false, false),
            catalog::sb(Some(Fence::Sync), false, false),
            catalog::sb(None, true, true),
            catalog::mp(None, false, false),
            catalog::mp(Some(Fence::Lwsync), false, false),
            catalog::mp(None, false, true),
            catalog::lb(false),
            catalog::power_exec1(),
            catalog::power_exec2(),
            catalog::power_exec3(false),
            catalog::power_exec3(true),
            catalog::remark51(false),
            catalog::remark51(true),
            catalog::power_elision(),
            wide(),
        ]
    }

    /// A model over the count-constants `id`, `unv`, `_` and
    /// `emptyset`, whose values the VM computes from the event count
    /// when their ops run. The first three checks hold only when the
    /// constants agree with each other and with the execution's
    /// structure; the last two fail on every execution with an `rf`
    /// edge or a fence.
    const COUNT_CONSTANTS: (&str, &str) = (
        "count-constants",
        "let univ = _ * _\n\
         empty (unv \\ univ) | (univ \\ unv) | (po \\ unv) as Unv\n\
         empty (id \\ [_]) | ([_] \\ id) | ([M | F] \\ id) as Id\n\
         empty (emptyset * _) | [emptyset] as Emptyset\n\
         empty rf & unv as NoRf\n\
         irreflexive [F] ; id as NoFence\n",
    );

    /// The shipped models plus [`COUNT_CONSTANTS`].
    fn sources() -> impl Iterator<Item = (&'static str, &'static str)> {
        crate::models::SOURCES
            .into_iter()
            .chain(std::iter::once(COUNT_CONSTANTS))
    }

    /// Every shipped model and [`COUNT_CONSTANTS`], on every catalog
    /// execution, through both pipelines — naive lowering and the
    /// optimised program — must reproduce the reference interpreter's
    /// violation list exactly.
    #[test]
    fn all_pipelines_match_the_reference_interpreter() {
        for (name, src) in sources() {
            let file = parse(src).expect(name);
            let reference = crate::CatModel::new(name, file.clone());
            let naive = lower(&file).expect(name);
            let optimised = compile(&file).expect(name);
            let mut vm = Vm::new();
            for x in executions() {
                let a = x.analysis();
                let want = reference.check_analysis_reference(&a).expect(name);
                for chunk in [&naive, &optimised] {
                    let mut checker = Checker::new(name);
                    vm.run(chunk, &a, &mut checker);
                    assert_eq!(
                        checker.finish().violations(),
                        want.violations(),
                        "{name} diverges on catalog execution\n{}",
                        chunk.disassemble()
                    );
                }
            }
        }
    }

    /// `x` behind `k` writes of a fresh location on a fresh thread,
    /// co-ordered in program order: nothing orders them with `x`'s
    /// events, so every verdict is `x`'s, but every event of `x` now
    /// sits at index `k` or beyond.
    fn padded(x: &txmm_core::Execution, k: usize) -> txmm_core::Execution {
        use txmm_core::{Event, Execution, TxnClass};
        let n = x.len() + k;
        let loc = x.locations().max().map_or(0, |l| l + 1);
        let mut events = vec![Event::write(x.num_threads() as u8, loc); k];
        events.extend_from_slice(x.events());
        let shift = |r: &Rel| Rel::from_pairs(n, r.pairs().map(|(a, b)| (a + k, b + k)));
        let chain = Rel::from_pairs(n, (0..k).flat_map(|a| (a + 1..k).map(move |b| (a, b))));
        let txns = x
            .txns()
            .iter()
            .map(|t| TxnClass {
                events: t.events.iter().map(|e| e + k).collect(),
                atomic: t.atomic,
            })
            .collect();
        let p = Execution::from_parts(
            events,
            shift(x.po()).union(&chain),
            shift(x.addr()),
            shift(x.ctrl()),
            shift(x.data()),
            shift(x.rmw()),
            shift(x.rf()),
            shift(x.co()).union(&chain),
            txns,
        );
        p.check_wf()
            .expect("padding keeps the execution well-formed");
        p
    }

    /// Moving a catalog execution past the first 8×8 block (its events
    /// at indices 8 and beyond, so every relation spans all four
    /// blocks) changes no verdict of any shipped model or of
    /// [`COUNT_CONSTANTS`], in either pipeline.
    #[test]
    fn padding_past_one_block_keeps_every_verdict() {
        for (name, src) in sources() {
            let file = parse(src).expect(name);
            let reference = crate::CatModel::new(name, file.clone());
            let naive = lower(&file).expect(name);
            let optimised = compile(&file).expect(name);
            let mut vm = Vm::new();
            for x in executions().iter().filter(|x| x.len() <= 8) {
                let want = reference
                    .check_analysis_reference(&x.analysis())
                    .expect(name);
                let p = padded(x, 8);
                let a = p.analysis();
                for chunk in [&naive, &optimised] {
                    let mut checker = Checker::new(name);
                    vm.run(chunk, &a, &mut checker);
                    assert_eq!(
                        checker.finish().violations(),
                        want.violations(),
                        "{name} changes its verdict when padded:\n{x:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixpoints_converge_to_the_interpreter_value() {
        // hb = (po | rf)+ via the recursive phrasing.
        let src = "let rec hb = (po | rf) | (hb ; hb)\nacyclic hb as Hb\n";
        let file = parse(src).unwrap();
        let reference = crate::CatModel::new("hb", file.clone());
        let chunk = compile(&file).unwrap();
        let mut vm = Vm::new();
        for x in executions() {
            let a = x.analysis();
            let want = reference.check_analysis_reference(&a).unwrap();
            let mut checker = Checker::new("hb");
            vm.run(&chunk, &a, &mut checker);
            assert_eq!(checker.finish().violations(), want.violations());
        }
    }

    #[test]
    fn vm_reuses_its_banks_across_event_counts() {
        let small = compile(&parse("acyclic po | com as Order\n").unwrap()).unwrap();
        let mut vm = Vm::new();
        for x in executions() {
            let a = x.analysis();
            let mut checker = Checker::new("sc");
            vm.run(&small, &a, &mut checker);
            let _ = checker.finish();
        }
    }
}
