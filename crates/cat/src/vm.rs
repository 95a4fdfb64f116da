//! The bytecode interpreter for compiled `.cat` programs.
//!
//! [`Vm::run`] executes a [`Chunk`] against one execution's shared
//! `ExecutionAnalysis`, pushing check results into a `Checker`. The
//! only allocation is the register file itself, and a [`Vm`] reuses its
//! banks across runs — checking a stream of executions through one
//! model allocates nothing after the first call.
//!
//! The row-parallel ops (union, intersection, difference, complement,
//! composition, closures) compute word-by-word into the destination
//! register — no `Rel` temporaries on the hot path — and builtin loads
//! row-copy straight out of the shared analysis caches.
//! Ops that genuinely permute rows (inverse, the lifts) fall back to
//! whole-value evaluation, as does any op whose destination aliases an
//! operand it reads out of row order; register compaction is free to
//! alias a destination with a dying operand either way. Fixpoint groups
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
pub struct Vm {
    rel: Vec<Rel>,
    set: Vec<EventSet>,
    /// The `(rel_regs, set_regs, events)` shape of the last run. While
    /// the shape is stable — the steady state of checking a stream of
    /// same-sized executions through one model — the banks are reused
    /// as-is: compaction guarantees every physical register is written
    /// before it is read, and stale values at the same event count
    /// already satisfy `Rel`'s zero-tail invariant.
    shape: (u16, u16, usize),
}

impl Vm {
    /// A VM with empty banks; they grow to fit the first chunk run.
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Execute `chunk` against `a`, recording each check in `checker`.
    ///
    /// A specialised chunk must only run at its own event count; the
    /// generic program runs at any count.
    pub fn run(&mut self, chunk: &Chunk, a: &ExecutionAnalysis<'_>, checker: &mut Checker) {
        let n = a.len();
        debug_assert!(
            chunk.events.is_none() || chunk.events == Some(n),
            "chunk specialised for {:?} events run at {n}",
            chunk.events
        );
        let shape = (chunk.rel_regs, chunk.set_regs, n);
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
                Op::LoadR { dst, b } => match b.eval_ref(a) {
                    Some(r) => rel[dst.0 as usize].copy_from(r),
                    None => rel[dst.0 as usize] = b.eval(a),
                },
                Op::LoadS { dst, b } => set[dst.0 as usize] = b.eval(a),
                Op::ConstR { dst, idx } => {
                    rel[dst.0 as usize].copy_from(&chunk.rel_consts[idx as usize])
                }
                Op::ConstS { dst, idx } => set[dst.0 as usize] = chunk.set_consts[idx as usize],
                Op::UnionR { dst, a, b } => {
                    for i in 0..n {
                        let w = rel[a.0 as usize].word(i) | rel[b.0 as usize].word(i);
                        rel[dst.0 as usize].set_word(i, w);
                    }
                }
                Op::InterR { dst, a, b } => {
                    for i in 0..n {
                        let w = rel[a.0 as usize].word(i) & rel[b.0 as usize].word(i);
                        rel[dst.0 as usize].set_word(i, w);
                    }
                }
                Op::DiffR { dst, a, b } => {
                    for i in 0..n {
                        let w = rel[a.0 as usize].word(i) & !rel[b.0 as usize].word(i);
                        rel[dst.0 as usize].set_word(i, w);
                    }
                }
                Op::SeqR { dst, a, b } => {
                    // Row-by-row is sound unless the destination aliases
                    // the right operand, whose rows are read out of order.
                    if dst == b {
                        let v = rel[a.0 as usize].seq(&rel[b.0 as usize]);
                        rel[dst.0 as usize] = v;
                    } else {
                        for i in 0..n {
                            let mut mids = rel[a.0 as usize].word(i);
                            let mut out = 0u64;
                            while mids != 0 {
                                let m = mids.trailing_zeros() as usize;
                                mids &= mids - 1;
                                out |= rel[b.0 as usize].word(m);
                            }
                            rel[dst.0 as usize].set_word(i, out);
                        }
                    }
                }
                Op::UnionS { dst, a, b } => {
                    let v = set[a.0 as usize].union(set[b.0 as usize]);
                    set[dst.0 as usize] = v;
                }
                Op::InterS { dst, a, b } => {
                    let v = set[a.0 as usize].inter(set[b.0 as usize]);
                    set[dst.0 as usize] = v;
                }
                Op::DiffS { dst, a, b } => {
                    let v = set[a.0 as usize].minus(set[b.0 as usize]);
                    set[dst.0 as usize] = v;
                }
                Op::Cross { dst, a, b } => {
                    let av = set[a.0 as usize];
                    let bits = set[b.0 as usize].inter(EventSet::universe(n)).bits();
                    for i in 0..n {
                        rel[dst.0 as usize].set_word(i, if av.contains(i) { bits } else { 0 });
                    }
                }
                Op::IdOn { dst, src } => {
                    let s = set[src.0 as usize];
                    for i in 0..n {
                        rel[dst.0 as usize].set_word(i, if s.contains(i) { 1u64 << i } else { 0 });
                    }
                }
                Op::Plus { dst, src } => {
                    if dst != src {
                        for i in 0..n {
                            let w = rel[src.0 as usize].word(i);
                            rel[dst.0 as usize].set_word(i, w);
                        }
                    }
                    rel[dst.0 as usize].transitive_close();
                }
                Op::Star { dst, src } => {
                    if dst != src {
                        for i in 0..n {
                            let w = rel[src.0 as usize].word(i);
                            rel[dst.0 as usize].set_word(i, w);
                        }
                    }
                    rel[dst.0 as usize].transitive_close();
                    rel[dst.0 as usize].reflexive_close();
                }
                Op::Opt { dst, src } => {
                    if dst != src {
                        for i in 0..n {
                            let w = rel[src.0 as usize].word(i);
                            rel[dst.0 as usize].set_word(i, w);
                        }
                    }
                    rel[dst.0 as usize].reflexive_close();
                }
                Op::Inverse { dst, src } => {
                    let v = rel[src.0 as usize].inverse();
                    rel[dst.0 as usize] = v;
                }
                Op::ComplementR { dst, src } => {
                    let mask = EventSet::universe(n).bits();
                    for i in 0..n {
                        let w = !rel[src.0 as usize].word(i) & mask;
                        rel[dst.0 as usize].set_word(i, w);
                    }
                }
                Op::ComplementS { dst, src } => {
                    let v = set[src.0 as usize].complement(n);
                    set[dst.0 as usize] = v;
                }
                Op::Domain { dst, src } => {
                    let v = rel[src.0 as usize].domain();
                    set[dst.0 as usize] = v;
                }
                Op::Range { dst, src } => {
                    let v = rel[src.0 as usize].range();
                    set[dst.0 as usize] = v;
                }
                Op::Weaklift { dst, a, b } => {
                    let v = txmm_core::weaklift(&rel[a.0 as usize], &rel[b.0 as usize]);
                    rel[dst.0 as usize] = v;
                }
                Op::Stronglift { dst, a, b } => {
                    let v = txmm_core::stronglift(&rel[a.0 as usize], &rel[b.0 as usize]);
                    rel[dst.0 as usize] = v;
                }
                Op::Fencerel { dst, src } => {
                    // po ; [S] ; po, one row at a time: successors of
                    // `i` that are fences in S, then their successors.
                    let po = a.po();
                    let bits = set[src.0 as usize].inter(EventSet::universe(n)).bits();
                    for i in 0..n {
                        let mut mids = po.word(i) & bits;
                        let mut out = 0u64;
                        while mids != 0 {
                            let m = mids.trailing_zeros() as usize;
                            mids &= mids - 1;
                            out |= po.word(m);
                        }
                        rel[dst.0 as usize].set_word(i, out);
                    }
                }
                Op::Universe { dst } => set[dst.0 as usize] = EventSet::universe(n),
                Op::EmptyR { dst } => {
                    for i in 0..n {
                        rel[dst.0 as usize].set_word(i, 0);
                    }
                }
                Op::FixUpdate { bound, src } => {
                    for i in 0..n {
                        let w = rel[src.0 as usize].word(i);
                        if rel[bound.0 as usize].word(i) != w {
                            changed = true;
                            rel[bound.0 as usize].set_word(i, w);
                        }
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
    use crate::opt::specialise;
    use crate::parser::parse;
    use txmm_models::catalog;

    /// A spread of catalog executions: fenced and unfenced, with and
    /// without transactions, across the paper's worked examples.
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
        ]
    }

    /// Every shipped model, on every catalog execution, through four
    /// pipelines — naive lowering, the optimised program, and the
    /// specialised tier — must reproduce the reference interpreter's
    /// violation list exactly.
    #[test]
    fn all_pipelines_match_the_reference_interpreter() {
        for (name, src) in crate::models::SOURCES {
            let file = parse(src).expect(name);
            let reference = crate::CatModel::new(name, file.clone());
            let naive = lower(&file).expect(name);
            let optimised = compile(&file).expect(name);
            let mut vm = Vm::new();
            for x in executions() {
                let a = x.analysis();
                let want = reference.check_analysis_reference(&a).expect(name);
                let tier = specialise(&optimised, a.len());
                for chunk in [&naive, &optimised, &tier] {
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
