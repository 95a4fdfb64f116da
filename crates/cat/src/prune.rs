//! Conservative prune oracles extracted from compiled `.cat` programs.
//!
//! A compiled model is a straight-line bytecode program ending in
//! `acyclic`/`irreflexive`/`empty` checks. On a *partial* execution —
//! `rf`/`co` still growing, `fr` maintained explicitly (see
//! `txmm_core::incr`) — a check is a sound pruning test exactly when
//! the relation it inspects can only **grow** as the candidate is
//! extended: a cycle, reflexive pair or inhabitant found now persists
//! in every completion.
//!
//! [`prune_program`] classifies every register of a model's program
//! into a three-point lattice
//!
//! > `Fixed` (value equals the complete execution's) ⊑ `Grows`
//! > (partial value ⊑ complete value) ⊑ `Unknown`
//!
//! by an abstract interpretation of the op list: structure builtins (`po`,
//! `addr`, label sets, ...) are `Fixed`; the communication builtins
//! (`rf`, `co`, `fr` and their views) are `Grows`; monotone operators
//! (`| & ; + * ? ⁻¹`, cross, lifts-with-fixed-second-argument,
//! `fencerel`, domain/range) propagate the join of their inputs;
//! non-monotone positions (`\` or `¬` over a non-`Fixed` operand, a
//! lift whose *transaction* argument may change) poison the result to
//! `Unknown`. `let rec` bodies iterate to a join-semantics fixpoint —
//! Tarski: a least fixpoint of a monotone body is monotone in its
//! parameters. Checks over `Unknown` registers are dropped; what
//! remains (re-optimised, so dead code feeding dropped checks goes
//! too) is the oracle program.
//!
//! The transaction builtins flip with the caller's phase: while abort
//! splits / transaction classes are still being chosen
//! (`txns_known == false`), `stxn` itself may grow *and shrink*
//! derived relations, so every transaction-derived builtin is
//! `Unknown`; once the classes are fixed they are `Fixed`, and the
//! communication lifts become `Grows`.
//!
//! A model none of whose checks survive yields no oracle ([`None`]),
//! and compile errors never prune — both degrade to plain enumeration.

use std::cell::RefCell;

use txmm_core::incr::{ComposeRule, DeltaPlan, EdgeKind, EdgeSel, Lift, Obligation, PruneOracle};
use txmm_core::{stronglift, weaklift, Execution, ExecutionAnalysis, Rel};
use txmm_models::Checker;

use crate::chunk::{AnyReg, Chunk, Op, RelBuiltin};
use crate::eval::CatModel;
use crate::opt;
use crate::parser::CheckKind;
use crate::vm::Vm;

/// How a register's value behaves as a partial candidate is extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Growth {
    /// Equal to its value on every completion.
    Fixed,
    /// A subset of its value on every completion.
    Grows,
    /// No monotonicity guarantee — checks over it must not prune.
    Unknown,
}

fn builtin_growth(b: RelBuiltin, txns_known: bool) -> Growth {
    use RelBuiltin::*;
    match b {
        Id | Unv | Po | Addr | Ctrl | Data | Rmw | Sloc | Sthd | Ext | PoLoc | FenceOrder(_)
        | Dp => Growth::Fixed,
        Rf | Co | Fr | Com | Rfe | Rfi | Coe | Coi | Fre | Fri | Come | Coherence | RmwIsol => {
            Growth::Grows
        }
        // Derived purely from the transaction/critical-region classes:
        // fixed once those are chosen, unusable before.
        Stxn | Stxnat | Tfence | TfencePlus | Scr | Scrt => {
            if txns_known {
                Growth::Fixed
            } else {
                Growth::Unknown
            }
        }
        // rmw ∩ tfence⁺: structure only, once txns are known.
        TxnCancelsRmw => {
            if txns_known {
                Growth::Fixed
            } else {
                Growth::Unknown
            }
        }
        // Lifts of com by a transaction equivalence: monotone in com
        // with the equivalence fixed.
        WeakIsol | StrongIsol | StrongIsolAtomic => {
            if txns_known {
                Growth::Grows
            } else {
                Growth::Unknown
            }
        }
    }
}

/// One op's effect on the register classes. Straight-line code
/// *overwrites* the destination (the compiler reuses registers, so a
/// register's class is a property of the program point, not the
/// register); inside a `let rec` body (`join == true`) classes only
/// rise, so iterating the body to fixpoint over-approximates every
/// round — sound by Tarski, since a least fixpoint of a monotone body
/// is monotone in its parameters.
fn step(
    op: &Op,
    rel: &mut [Growth],
    set: &mut [Growth],
    txns_known: bool,
    join: bool,
    changed: &mut bool,
) {
    fn write(slot: &mut Growth, g: Growth, join: bool, changed: &mut bool) {
        let next = if join { g.max(*slot) } else { g };
        if next != *slot {
            *slot = next;
            *changed = true;
        }
    }
    use Op::*;
    match *op {
        LoadR { dst, b } => write(
            &mut rel[dst.0 as usize],
            builtin_growth(b, txns_known),
            join,
            changed,
        ),
        // Event sets from labels, the universe and the fixpoint seed
        // are all structure-fixed (the lattice bottom).
        LoadS { dst, .. } | Universe { dst } => {
            write(&mut set[dst.0 as usize], Growth::Fixed, join, changed)
        }
        EmptyR { dst } => write(&mut rel[dst.0 as usize], Growth::Fixed, join, changed),
        // Monotone in both operands.
        UnionR { dst, a, b } | InterR { dst, a, b } | SeqR { dst, a, b } => {
            let g = rel[a.0 as usize].max(rel[b.0 as usize]);
            write(&mut rel[dst.0 as usize], g, join, changed);
        }
        // a \ b is monotone in a only when b cannot change.
        DiffR { dst, a, b } => {
            let g = if rel[b.0 as usize] == Growth::Fixed {
                rel[a.0 as usize]
            } else {
                Growth::Unknown
            };
            write(&mut rel[dst.0 as usize], g, join, changed);
        }
        UnionS { dst, a, b } | InterS { dst, a, b } => {
            let g = set[a.0 as usize].max(set[b.0 as usize]);
            write(&mut set[dst.0 as usize], g, join, changed);
        }
        DiffS { dst, a, b } => {
            let g = if set[b.0 as usize] == Growth::Fixed {
                set[a.0 as usize]
            } else {
                Growth::Unknown
            };
            write(&mut set[dst.0 as usize], g, join, changed);
        }
        Cross { dst, a, b } => {
            let g = set[a.0 as usize].max(set[b.0 as usize]);
            write(&mut rel[dst.0 as usize], g, join, changed);
        }
        IdOn { dst, src } | Fencerel { dst, src } => {
            let g = set[src.0 as usize];
            write(&mut rel[dst.0 as usize], g, join, changed);
        }
        Plus { dst, src } | Star { dst, src } | Opt { dst, src } | Inverse { dst, src } => {
            let g = rel[src.0 as usize];
            write(&mut rel[dst.0 as usize], g, join, changed);
        }
        ComplementR { dst, src } => {
            let g = if rel[src.0 as usize] == Growth::Fixed {
                Growth::Fixed
            } else {
                Growth::Unknown
            };
            write(&mut rel[dst.0 as usize], g, join, changed);
        }
        ComplementS { dst, src } => {
            let g = if set[src.0 as usize] == Growth::Fixed {
                Growth::Fixed
            } else {
                Growth::Unknown
            };
            write(&mut set[dst.0 as usize], g, join, changed);
        }
        Domain { dst, src } | Range { dst, src } => {
            let g = rel[src.0 as usize];
            write(&mut set[dst.0 as usize], g, join, changed);
        }
        Weaklift { dst, a, b } | Stronglift { dst, a, b } => {
            let g = if rel[b.0 as usize] == Growth::Fixed {
                rel[a.0 as usize]
            } else {
                Growth::Unknown
            };
            write(&mut rel[dst.0 as usize], g, join, changed);
        }
        // The VM copies `bound <- src` with a convergence test; under
        // join it lubs, over-approximating whichever round last wrote.
        FixUpdate { bound, src } => {
            let g = rel[src.0 as usize];
            write(&mut rel[bound.0 as usize], g, join, changed);
        }
        FixLoop { .. } | Check { .. } => {}
    }
}

/// Abstract-interpret the program, recording each check's growth class
/// at its own program point. `let rec` bodies iterate to fixpoint with
/// join semantics; everything else runs once, in order.
fn classify(chunk: &Chunk, txns_known: bool) -> Vec<Growth> {
    let mut rel = vec![Growth::Fixed; chunk.rel_regs as usize];
    let mut set = vec![Growth::Fixed; chunk.set_regs as usize];
    let mut class = vec![Growth::Fixed; chunk.ops.len()];
    let mut i = 0;
    while i < chunk.ops.len() {
        if let Some(&(s, e)) = chunk.fix_groups.iter().find(|&&(s, _)| s as usize == i) {
            loop {
                let mut changed = false;
                for op in &chunk.ops[s as usize..e as usize] {
                    step(op, &mut rel, &mut set, txns_known, true, &mut changed);
                }
                if !changed {
                    break;
                }
            }
            i = e as usize;
        } else {
            let op = &chunk.ops[i];
            if let Op::Check { src, .. } = *op {
                class[i] = rel[src.0 as usize];
            } else {
                let mut sink = false;
                step(op, &mut rel, &mut set, txns_known, false, &mut sink);
            }
            i += 1;
        }
    }
    class
}

/// The monotone core of a compiled model: the program with every check
/// over an `Unknown` register removed (then re-optimised). `None` when
/// no check survives — the model offers nothing sound to prune on.
pub fn prune_program(program: &Chunk, txns_known: bool) -> Option<Chunk> {
    let class = classify(program, txns_known);
    let keep: Vec<bool> = program
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| match op {
            Op::Check { .. } => class[i] != Growth::Unknown,
            _ => true,
        })
        .collect();
    if !program
        .ops
        .iter()
        .zip(&keep)
        .any(|(op, &k)| k && matches!(op, Op::Check { .. }))
    {
        return None;
    }
    // Dropping ops shifts indices; remap the fixpoint ranges and
    // back-jump targets (checks never sit inside a `let rec` body, but
    // ones *before* a group still shift it).
    let removed_before =
        |idx: u32| -> u32 { keep.iter().take(idx as usize).filter(|&&k| !k).count() as u32 };
    let ops: Vec<Op> = program
        .ops
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(op, _)| match *op {
            Op::FixLoop { start } => Op::FixLoop {
                start: start - removed_before(start),
            },
            other => other,
        })
        .collect();
    let fix_groups = program
        .fix_groups
        .iter()
        .map(|&(s, e)| (s - removed_before(s), e - removed_before(e)))
        .collect();
    Some(opt::optimise(Chunk {
        ops,
        fix_groups,
        rel_regs: program.rel_regs,
        set_regs: program.set_regs,
        names: program.names.clone(),
    }))
}

thread_local! {
    /// A register file for oracle runs, separate from the full-check
    /// VM so the two workloads don't thrash each other's bank shapes.
    static PRUNE_VM: RefCell<Vm> = RefCell::new(Vm::new());
}

/// A [`PruneOracle`] running a model's monotone core on partial
/// executions.
pub struct CatPruneOracle {
    name: &'static str,
    core: Chunk,
}

impl CatPruneOracle {
    /// Derive the oracle for `model` in the given phase. `None` when
    /// the model failed to compile or keeps no monotone check —
    /// callers then simply don't prune.
    pub fn derive(
        name: &'static str,
        model: &CatModel,
        txns_known: bool,
    ) -> Option<CatPruneOracle> {
        let core = prune_program(model.program().ok()?, txns_known)?;
        Some(CatPruneOracle { name, core })
    }

    /// Number of checks the monotone core retained (observability).
    #[cfg(test)]
    pub(crate) fn checks(&self) -> usize {
        self.core
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Check { .. }))
            .count()
    }
}

impl PruneOracle for CatPruneOracle {
    fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
        // This is the fallback recompute for probes the delta plan
        // could not decide; the span makes that time visible on traces.
        let _span = txmm_obs::span!("prune.fallback");
        let mut checker = Checker::new(self.name);
        PRUNE_VM.with(|vm| vm.borrow_mut().run(&self.core, a, &mut checker));
        checker.finish().is_consistent()
    }

    // One VM borrow for the whole sibling batch.
    fn viable_batch(&self, batch: &[ExecutionAnalysis<'_>]) -> u64 {
        let _span = txmm_obs::span!("prune.fallback_batch");
        PRUNE_VM.with(|vm| {
            let mut vm = vm.borrow_mut();
            let mut bits = 0u64;
            for (i, a) in batch.iter().enumerate() {
                let mut checker = Checker::new(self.name);
                vm.run(&self.core, a, &mut checker);
                if checker.finish().is_consistent() {
                    bits |= 1 << i;
                }
            }
            bits
        })
    }

    // Scan the monotone core symbolically: a register holds a *union
    // of builtins* (possibly strong/weak-lifted by `stxn`) as long as
    // only loads and unions produced it. Every check the scan can
    // express becomes delta state — acyclicity obligations with fixed
    // seeds and per-edge feeds, the incremental RMW-isolation flag, or
    // a structure-fixed emptiness verdict. A check it cannot express
    // leaves the plan inexact, so undecided probes fall back to running
    // the core (and are counted).
    fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
        let n = x.len();
        let base = ExecutionAnalysis::with_fr(x, Rel::empty(n));
        let chunk = &self.core;
        let mut sym: Vec<Option<Sym>> = vec![None; chunk.rel_regs as usize];
        let mut plan = DeltaPlan::fallback(x, true);
        plan.track_rmw_isol = false; // cover_check re-enables on demand
        let mut covered_all = true;
        let in_fix = |i: usize| {
            chunk
                .fix_groups
                .iter()
                .any(|&(s, e)| (s as usize..e as usize).contains(&i))
        };
        for (i, op) in chunk.ops.iter().enumerate() {
            if in_fix(i) {
                // Fixpoint bodies are beyond the symbolic domain.
                match *op {
                    Op::FixUpdate { bound, .. } => sym[bound.0 as usize] = None,
                    _ => {
                        if let Some(AnyReg::R(r)) = op.def() {
                            sym[r as usize] = None;
                        }
                    }
                }
                continue;
            }
            match *op {
                Op::LoadR { dst, b } => sym[dst.0 as usize] = Some(Sym::Parts(vec![b])),
                Op::EmptyR { dst } => sym[dst.0 as usize] = Some(Sym::Parts(Vec::new())),
                Op::UnionR { dst, a, b } => {
                    let joined = match (&sym[a.0 as usize], &sym[b.0 as usize]) {
                        (Some(Sym::Parts(p)), Some(Sym::Parts(q))) => {
                            let mut p = p.clone();
                            p.extend(q.iter().copied());
                            Some(Sym::Parts(p))
                        }
                        (Some(Sym::Lifted(l1, p)), Some(Sym::Lifted(l2, q))) if l1 == l2 => {
                            let mut p = p.clone();
                            p.extend(q.iter().copied());
                            Some(Sym::Lifted(*l1, p))
                        }
                        _ => None,
                    };
                    sym[dst.0 as usize] = joined;
                }
                Op::Weaklift { dst, a, b } | Op::Stronglift { dst, a, b } => {
                    let lift = if matches!(op, Op::Weaklift { .. }) {
                        Lift::Weak
                    } else {
                        Lift::Strong
                    };
                    sym[dst.0 as usize] = match (&sym[a.0 as usize], &sym[b.0 as usize]) {
                        (Some(Sym::Parts(p)), Some(Sym::Parts(q))) if *q == [RelBuiltin::Stxn] => {
                            Some(Sym::Lifted(lift, p.clone()))
                        }
                        _ => None,
                    };
                }
                Op::Check { kind, src, .. } => {
                    covered_all &=
                        cover_check(kind, sym[src.0 as usize].as_ref(), &base, &mut plan);
                }
                _ => {
                    if let Some(AnyReg::R(r)) = op.def() {
                        sym[r as usize] = None;
                    }
                }
            }
        }
        plan.exact = covered_all;
        Some(plan)
    }
}

/// A register's symbolic value: a union of builtins, optionally lifted
/// through the transaction classes.
#[derive(Clone)]
enum Sym {
    Parts(Vec<RelBuiltin>),
    Lifted(Lift, Vec<RelBuiltin>),
}

fn com_rules(sel: EdgeSel) -> [ComposeRule; 3] {
    [
        ComposeRule::direct(EdgeKind::Rf, sel),
        ComposeRule::direct(EdgeKind::Co, sel),
        ComposeRule::direct(EdgeKind::Fr, sel),
    ]
}

/// Translate one surviving check into delta state; `false` means the
/// check stays with the fallback run (plan turns inexact).
fn cover_check(
    kind: CheckKind,
    sym: Option<&Sym>,
    base: &ExecutionAnalysis<'_>,
    plan: &mut DeltaPlan,
) -> bool {
    let Some(sym) = sym else { return false };
    let (lift, parts) = match sym {
        Sym::Parts(p) => (Lift::No, p.as_slice()),
        Sym::Lifted(l, p) => (*l, p.as_slice()),
    };
    let n = base.len();
    match kind {
        CheckKind::Acyclic => {
            // A bare isolation builtin is itself a lifted com.
            if lift == Lift::No {
                if let [b] = parts {
                    let l = match b {
                        RelBuiltin::WeakIsol => Some(Lift::Weak),
                        RelBuiltin::StrongIsol => Some(Lift::Strong),
                        _ => None,
                    };
                    if let Some(l) = l {
                        plan.obls.push(Obligation {
                            seed: Rel::empty(n),
                            feed: com_rules(EdgeSel::All).to_vec(),
                            lift: l,
                        });
                        return true;
                    }
                }
            }
            let mut seed = Rel::empty(n);
            let mut feed = Vec::new();
            for &b in parts {
                use RelBuiltin::*;
                match b {
                    Rf => feed.push(ComposeRule::direct(EdgeKind::Rf, EdgeSel::All)),
                    Rfe => feed.push(ComposeRule::direct(EdgeKind::Rf, EdgeSel::External)),
                    Rfi => feed.push(ComposeRule::direct(EdgeKind::Rf, EdgeSel::Internal)),
                    Co => feed.push(ComposeRule::direct(EdgeKind::Co, EdgeSel::All)),
                    Coe => feed.push(ComposeRule::direct(EdgeKind::Co, EdgeSel::External)),
                    Coi => feed.push(ComposeRule::direct(EdgeKind::Co, EdgeSel::Internal)),
                    Fr => feed.push(ComposeRule::direct(EdgeKind::Fr, EdgeSel::All)),
                    Fre => feed.push(ComposeRule::direct(EdgeKind::Fr, EdgeSel::External)),
                    Fri => feed.push(ComposeRule::direct(EdgeKind::Fr, EdgeSel::Internal)),
                    Com => feed.extend(com_rules(EdgeSel::All)),
                    Come => feed.extend(com_rules(EdgeSel::External)),
                    Coherence => {
                        seed = seed.union(base.po_loc());
                        feed.extend(com_rules(EdgeSel::All));
                    }
                    // Growing relations with no per-edge rule (the
                    // atomic lift has its own equivalence).
                    RmwIsol | WeakIsol | StrongIsol | StrongIsolAtomic => return false,
                    // Everything else is structure-fixed.
                    _ => seed = seed.union(&b.eval(base)),
                }
            }
            if lift == Lift::Weak {
                seed = weaklift(&seed, &plan.stxn);
            } else if lift == Lift::Strong {
                seed = stronglift(&seed, &plan.stxn);
            }
            plan.obls.push(Obligation { seed, feed, lift });
            true
        }
        CheckKind::Empty => {
            if lift != Lift::No {
                return false;
            }
            if parts == [RelBuiltin::RmwIsol] {
                plan.track_rmw_isol = true;
                return true;
            }
            // A union of structure-fixed parts has its final value
            // already: decide it now.
            let mut fixed = Rel::empty(n);
            for &b in parts {
                use RelBuiltin::*;
                match b {
                    Rf | Rfe | Rfi | Co | Coe | Coi | Fr | Fre | Fri | Com | Come | Coherence
                    | RmwIsol | WeakIsol | StrongIsol | StrongIsolAtomic => return false,
                    _ => fixed = fixed.union(&b.eval(base)),
                }
            }
            if !fixed.is_empty() {
                plan.dead = true;
            }
            true
        }
        // The obligation detectors are transitive: they would reject
        // benign two-step cycles an irreflexivity check permits.
        CheckKind::Irreflexive => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compiled(src: &str) -> CatModel {
        CatModel::new("probe", parse(src).expect("parse"))
    }

    fn survivors(src: &str, txns_known: bool) -> Vec<&'static str> {
        let m = compiled(src);
        match prune_program(m.program().expect("compile"), txns_known) {
            None => Vec::new(),
            Some(chunk) => chunk
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::Check { name, .. } => Some(chunk.names[*name as usize]),
                    _ => None,
                })
                .collect(),
        }
    }

    #[test]
    fn monotone_checks_survive() {
        assert_eq!(
            survivors("acyclic po | com as Order", false),
            ["Order"],
            "po ∪ com only grows"
        );
        assert_eq!(
            survivors("empty rmw & (fre ; coe) as RMWIsol", false),
            ["RMWIsol"]
        );
    }

    #[test]
    fn txn_checks_survive_only_once_txns_are_known() {
        let src = "acyclic stronglift(com, stxn) as StrongIsol";
        assert_eq!(survivors(src, false), Vec::<&str>::new());
        assert_eq!(survivors(src, true), ["StrongIsol"]);
    }

    #[test]
    fn complement_and_difference_poison() {
        // `~rf` and `po \ rf` can shrink as rf grows: never prune.
        assert_eq!(survivors("acyclic ~rf as No", true), Vec::<&str>::new());
        assert_eq!(
            survivors("irreflexive (po \\ rf) ; com as No", true),
            Vec::<&str>::new()
        );
        // ...but a difference with a fixed subtrahend is monotone.
        assert_eq!(survivors("acyclic (rf \\ sthd) | co as Ok", true), ["Ok"]);
    }

    #[test]
    fn mixed_models_keep_only_monotone_checks() {
        let src = "acyclic po | com as Order\nempty ~(po | rf) & rf as Weird";
        assert_eq!(survivors(src, false), ["Order"]);
    }

    #[test]
    fn recursive_groups_classify_through_the_fixpoint() {
        // The bound grows from rf: monotone, so the check survives —
        // and the fixpoint ranges survive the index remap.
        let src = "let rec r = rf | (r ; po)\nacyclic r as Rec";
        assert_eq!(survivors(src, false), ["Rec"]);
        // Poison an input and the bound poisons too.
        let src = "let rec r = ~rf | (r ; po)\nacyclic r as Rec";
        assert_eq!(survivors(src, false), Vec::<&str>::new());
    }

    #[test]
    fn oracle_agrees_with_full_check_on_complete_executions() {
        use txmm_models::catalog;
        let m = compiled("acyclic po | com as Order\nacyclic stronglift(com, stxn) as Iso");
        let oracle = CatPruneOracle::derive("probe", &m, true).expect("oracle");
        assert_eq!(oracle.checks(), 2);
        for x in [catalog::fig1(), catalog::fig2()] {
            let full = m.check(&x).expect("eval").is_consistent();
            let a = ExecutionAnalysis::with_fr(&x, x.fr());
            // On a complete execution the monotone core is a subset of
            // the checks: it may accept more, never less.
            assert!(oracle.viable(&a) || !full);
            if !oracle.viable(&a) {
                assert!(!full);
            }
        }
    }

    #[test]
    fn no_monotone_check_means_no_oracle() {
        let m = compiled("empty ~rf as No");
        assert!(CatPruneOracle::derive("probe", &m, true).is_none());
    }
}
