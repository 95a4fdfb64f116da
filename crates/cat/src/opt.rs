//! Optimiser passes over compiled `.cat` chunks.
//!
//! [`optimise`] runs on the program once per model, and that one
//! program runs at every event count: a combined CSE/hoisting pass
//! deduplicates identical subexpressions and rewrites compounds the
//! shared `ExecutionAnalysis` already caches (`po & loc`, `poloc | com`,
//! `rf | co | fr`, `stronglift(com, stxn)`, ...) into single builtin
//! loads, dead-definition elimination drops bindings no check reaches,
//! and a linear-scan pass compacts the register banks so the VM's
//! per-run register file stays small.
//!
//! All passes treat a `let rec` group's `[start, end)` op range
//! atomically: values live across a group survive to its last op, CSE
//! invalidates cached expressions when a bound register mutates, and
//! DCE keeps or drops a group's `FixUpdate`/`FixLoop` scaffolding as a
//! unit.

use std::collections::HashMap;

use crate::chunk::{AnyReg, Chunk, Op, RReg, RelBuiltin, SetBuiltin};

/// Optimise a freshly lowered chunk: CSE + analysis hoisting,
/// dead-definition elimination, register compaction.
pub(crate) fn optimise(c: Chunk) -> Chunk {
    compact(dce(cse(c)))
}

/// A value-numbering key: an op minus its destination, with commutative
/// operands sorted. Two ops with equal keys compute equal values (as
/// long as no fixpoint-bound operand mutated in between, which the CSE
/// pass tracks via taint bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    LoadR(RelBuiltin),
    LoadS(SetBuiltin),
    Universe,
    UnionR(u16, u16),
    InterR(u16, u16),
    DiffR(u16, u16),
    SeqR(u16, u16),
    UnionS(u16, u16),
    InterS(u16, u16),
    DiffS(u16, u16),
    Cross(u16, u16),
    IdOn(u16),
    Plus(u16),
    Star(u16),
    Opt(u16),
    Inverse(u16),
    ComplementR(u16),
    ComplementS(u16),
    Domain(u16),
    Range(u16),
    Weaklift(u16, u16),
    Stronglift(u16, u16),
    Fencerel(u16),
}

fn sorted(a: u16, b: u16) -> (u16, u16) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Does this value-number key read the given register? Used to evict
/// available expressions whose *operands* are redefined.
fn key_uses(key: &Key, reg: AnyReg) -> bool {
    use Key::*;
    match (*key, reg) {
        (UnionR(a, b) | InterR(a, b) | DiffR(a, b) | SeqR(a, b), AnyReg::R(x))
        | (Weaklift(a, b) | Stronglift(a, b), AnyReg::R(x)) => a == x || b == x,
        (UnionS(a, b) | InterS(a, b) | DiffS(a, b) | Cross(a, b), AnyReg::S(x)) => a == x || b == x,
        (Plus(s) | Star(s) | Opt(s) | Inverse(s) | ComplementR(s), AnyReg::R(x))
        | (Domain(s) | Range(s), AnyReg::R(x)) => s == x,
        (IdOn(s) | ComplementS(s) | Fencerel(s), AnyReg::S(x)) => s == x,
        _ => false,
    }
}

fn key_of(op: &Op) -> Option<Key> {
    Some(match *op {
        Op::LoadR { b, .. } => Key::LoadR(b),
        Op::LoadS { b, .. } => Key::LoadS(b),
        Op::Universe { .. } => Key::Universe,
        Op::UnionR { a, b, .. } => {
            let (a, b) = sorted(a.0, b.0);
            Key::UnionR(a, b)
        }
        Op::InterR { a, b, .. } => {
            let (a, b) = sorted(a.0, b.0);
            Key::InterR(a, b)
        }
        Op::DiffR { a, b, .. } => Key::DiffR(a.0, b.0),
        Op::SeqR { a, b, .. } => Key::SeqR(a.0, b.0),
        Op::UnionS { a, b, .. } => {
            let (a, b) = sorted(a.0, b.0);
            Key::UnionS(a, b)
        }
        Op::InterS { a, b, .. } => {
            let (a, b) = sorted(a.0, b.0);
            Key::InterS(a, b)
        }
        Op::DiffS { a, b, .. } => Key::DiffS(a.0, b.0),
        Op::Cross { a, b, .. } => Key::Cross(a.0, b.0),
        Op::IdOn { src, .. } => Key::IdOn(src.0),
        Op::Plus { src, .. } => Key::Plus(src.0),
        Op::Star { src, .. } => Key::Star(src.0),
        Op::Opt { src, .. } => Key::Opt(src.0),
        Op::Inverse { src, .. } => Key::Inverse(src.0),
        Op::ComplementR { src, .. } => Key::ComplementR(src.0),
        Op::ComplementS { src, .. } => Key::ComplementS(src.0),
        Op::Domain { src, .. } => Key::Domain(src.0),
        Op::Range { src, .. } => Key::Range(src.0),
        Op::Weaklift { a, b, .. } => Key::Weaklift(a.0, b.0),
        Op::Stronglift { a, b, .. } => Key::Stronglift(a.0, b.0),
        Op::Fencerel { src, .. } => Key::Fencerel(src.0),
        Op::EmptyR { .. } | Op::FixUpdate { .. } | Op::FixLoop { .. } | Op::Check { .. } => {
            return None
        }
    })
}

/// Rewrite a compound the shared analysis caches into a single builtin
/// load. `desc` gives the builtin (if any) each relation register
/// currently holds; `keys` the defining expression, for the two-level
/// patterns (`rmw & (fre ; coe)`, `rf | co | fr`).
fn hoist(op: &Op, desc: &[Option<RelBuiltin>], keys: &[Option<Key>]) -> Option<RelBuiltin> {
    use RelBuiltin::*;
    let d = |r: RReg| desc[r.0 as usize];
    let pair = |a: RReg, b: RReg, x: RelBuiltin, y: RelBuiltin| {
        (d(a) == Some(x) && d(b) == Some(y)) || (d(a) == Some(y) && d(b) == Some(x))
    };
    match *op {
        Op::InterR { a, b, .. } => {
            if pair(a, b, Po, Sloc) {
                return Some(PoLoc);
            }
            for (u, v) in [(a, b), (b, a)] {
                if d(u) != Some(Rmw) {
                    continue;
                }
                if let Some(Key::SeqR(p, q)) = keys[v.0 as usize] {
                    if desc[p as usize] == Some(Fre) && desc[q as usize] == Some(Coe) {
                        return Some(RmwIsol);
                    }
                }
                if d(v) == Some(TfencePlus) {
                    return Some(TxnCancelsRmw);
                }
            }
            None
        }
        Op::UnionR { a, b, .. } => {
            if pair(a, b, Addr, Data) {
                return Some(Dp);
            }
            if pair(a, b, PoLoc, Com) {
                return Some(Coherence);
            }
            // `rf | co | fr` in either association order.
            for (u, v) in [(a, b), (b, a)] {
                let Some(Key::UnionR(p, q)) = keys[v.0 as usize] else {
                    continue;
                };
                let mut have = [false; 3];
                for part in [d(u), desc[p as usize], desc[q as usize]] {
                    match part {
                        Some(Rf) => have[0] = true,
                        Some(Co) => have[1] = true,
                        Some(Fr) => have[2] = true,
                        _ => {}
                    }
                }
                if have == [true; 3] {
                    return Some(Com);
                }
            }
            None
        }
        Op::Plus { src, .. } if d(src) == Some(Tfence) => Some(TfencePlus),
        Op::ComplementR { src, .. } if d(src) == Some(Sthd) => Some(Ext),
        Op::Weaklift { a, b, .. } if d(a) == Some(Com) && d(b) == Some(Stxn) => Some(WeakIsol),
        Op::Stronglift { a, b, .. } if d(a) == Some(Com) => match d(b) {
            Some(Stxn) => Some(StrongIsol),
            Some(Stxnat) => Some(StrongIsolAtomic),
            _ => None,
        },
        _ => None,
    }
}

/// Value-numbering CSE with analysis hoisting. Deduplicated ops keep
/// their (now unused) destinations; DCE collects them. Expressions
/// tainted by a fixpoint-bound register are evicted from the available
/// table at that register's `FixUpdate`, which is exactly the program
/// point where its value changes — an in-body reuse *before* the update
/// still sees the same per-iteration value, and the convergence
/// iteration makes in-body values equal their post-loop ones.
fn cse(mut c: Chunk) -> Chunk {
    // One taint bit per fixpoint-bound register.
    let mut bound_bit: HashMap<u16, u32> = HashMap::new();
    for op in &c.ops {
        if let Op::FixUpdate { bound, .. } = op {
            let next = bound_bit.len() as u32;
            bound_bit.entry(bound.0).or_insert(next);
        }
    }
    if bound_bit.len() > 64 {
        return c; // absurdly recursive model; skip CSE rather than mistrack
    }
    let nr = c.rel_regs as usize;
    let ns = c.set_regs as usize;
    let mut sub_r: Vec<u16> = (0..c.rel_regs).collect();
    let mut sub_s: Vec<u16> = (0..c.set_regs).collect();
    let mut taint_r = vec![0u64; nr];
    let mut taint_s = vec![0u64; ns];
    let mut desc_r: Vec<Option<RelBuiltin>> = vec![None; nr];
    let mut key_r: Vec<Option<Key>> = vec![None; nr];
    let mut avail: HashMap<Key, (AnyReg, u64)> = HashMap::new();
    for i in 0..c.ops.len() {
        let mut op = c.ops[i];
        op.rewrite_uses(&|x| sub_r[x as usize], &|x| sub_s[x as usize]);
        // A redefinition kills the register's old value: evict the
        // available expressions it holds or feeds, and any substitution
        // still pointing at it. The compiler's output is nearly SSA so
        // this rarely fires there, but re-optimising a *compacted*
        // chunk (as the prune-oracle derivation does) reuses registers
        // heavily and is unsound without it.
        let redefined = match op {
            Op::FixUpdate { bound, .. } => Some(AnyReg::R(bound.0)),
            Op::FixLoop { .. } | Op::Check { .. } => None,
            _ => op.def(),
        };
        if let Some(def) = redefined {
            avail.retain(|key, &mut (reg, _)| reg != def && !key_uses(key, def));
            match def {
                AnyReg::R(d) => {
                    for (x, slot) in sub_r.iter_mut().enumerate() {
                        if *slot == d {
                            *slot = x as u16;
                        }
                    }
                    desc_r[d as usize] = None;
                    key_r[d as usize] = None;
                }
                AnyReg::S(d) => {
                    for (x, slot) in sub_s.iter_mut().enumerate() {
                        if *slot == d {
                            *slot = x as u16;
                        }
                    }
                }
            }
        }
        match op {
            Op::FixUpdate { bound, .. } => {
                let bit = 1u64 << bound_bit[&bound.0];
                avail.retain(|_, &mut (_, taint)| taint & bit == 0);
                c.ops[i] = op;
                continue;
            }
            Op::FixLoop { .. } | Op::Check { .. } | Op::EmptyR { .. } => {
                c.ops[i] = op;
                continue;
            }
            _ => {}
        }
        if let Some(b) = hoist(&op, &desc_r, &key_r) {
            if let Some(AnyReg::R(dst)) = op.def() {
                op = Op::LoadR { dst: RReg(dst), b };
            }
        }
        let mut taint = 0u64;
        op.uses(&mut |u| {
            taint |= match u {
                AnyReg::R(x) => taint_r[x as usize] | bound_bit.get(&x).map_or(0, |&b| 1 << b),
                AnyReg::S(x) => taint_s[x as usize],
            };
        });
        let def = op.def();
        if let (Some(key), Some(def)) = (key_of(&op), def) {
            if let Some(&(prev, _)) = avail.get(&key) {
                match (def, prev) {
                    (AnyReg::R(d), AnyReg::R(p)) => sub_r[d as usize] = p,
                    (AnyReg::S(d), AnyReg::S(p)) => sub_s[d as usize] = p,
                    _ => unreachable!("key banks never cross"),
                }
                c.ops[i] = op;
                continue;
            }
            avail.insert(key, (def, taint));
            match def {
                AnyReg::R(d) => {
                    taint_r[d as usize] = taint;
                    key_r[d as usize] = Some(key);
                    desc_r[d as usize] = match op {
                        Op::LoadR { b, .. } => Some(b),
                        _ => None,
                    };
                }
                AnyReg::S(d) => taint_s[d as usize] = taint,
            }
        } else if let Some(def) = def {
            match def {
                AnyReg::R(d) => {
                    taint_r[d as usize] = taint;
                    key_r[d as usize] = None;
                    desc_r[d as usize] = None;
                }
                AnyReg::S(d) => taint_s[d as usize] = taint,
            }
        }
        c.ops[i] = op;
    }
    c
}

fn mark(reg: AnyReg, live_r: &mut [bool], live_s: &mut [bool]) -> bool {
    let slot = match reg {
        AnyReg::R(x) => &mut live_r[x as usize],
        AnyReg::S(x) => &mut live_s[x as usize],
    };
    let fresh = !*slot;
    *slot = true;
    fresh
}

/// Dead-definition elimination seeded from the check ops. A fixpoint
/// group lives iff any of its bound registers is live; a live group
/// keeps all its `FixUpdate`s (and their sources) so convergence still
/// tests the whole binding set, exactly like the interpreter's rounds.
fn dce(c: Chunk) -> Chunk {
    let nr = c.rel_regs as usize;
    let ns = c.set_regs as usize;
    let mut live_r = vec![false; nr];
    let mut live_s = vec![false; ns];
    let mut group_of = vec![usize::MAX; c.ops.len()];
    for (g, &(start, end)) in c.fix_groups.iter().enumerate() {
        for slot in &mut group_of[start as usize..end as usize] {
            *slot = g;
        }
    }
    let mut live_group = vec![false; c.fix_groups.len()];
    loop {
        let mut changed = false;
        for (i, op) in c.ops.iter().enumerate().rev() {
            match *op {
                Op::Check { src, .. } => {
                    changed |= mark(AnyReg::R(src.0), &mut live_r, &mut live_s);
                }
                Op::FixUpdate { bound, src } => {
                    let g = group_of[i];
                    if live_r[bound.0 as usize] && !live_group[g] {
                        live_group[g] = true;
                        changed = true;
                    }
                    if live_group[g] {
                        changed |= mark(AnyReg::R(bound.0), &mut live_r, &mut live_s);
                        changed |= mark(AnyReg::R(src.0), &mut live_r, &mut live_s);
                    }
                }
                Op::FixLoop { .. } => {}
                _ => {
                    let live = match op.def() {
                        Some(AnyReg::R(x)) => live_r[x as usize],
                        Some(AnyReg::S(x)) => live_s[x as usize],
                        None => false,
                    };
                    if live {
                        op.uses(&mut |u| changed |= mark(u, &mut live_r, &mut live_s));
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let keep: Vec<bool> = c
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| match op {
            Op::Check { .. } => true,
            Op::FixUpdate { .. } | Op::FixLoop { .. } => live_group[group_of[i]],
            _ => match op.def() {
                Some(AnyReg::R(x)) => live_r[x as usize],
                Some(AnyReg::S(x)) => live_s[x as usize],
                None => true,
            },
        })
        .collect();
    rebuild(c, &keep, &live_group)
}

/// Drop the unkept ops, remapping `FixLoop` targets and the surviving
/// groups' ranges through the prefix count of kept instructions.
fn rebuild(mut c: Chunk, keep: &[bool], keep_group: &[bool]) -> Chunk {
    let mut prefix = vec![0u32; keep.len() + 1];
    for (i, &k) in keep.iter().enumerate() {
        prefix[i + 1] = prefix[i] + k as u32;
    }
    let mut ops = Vec::with_capacity(prefix[keep.len()] as usize);
    for (i, op) in c.ops.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let mut op = *op;
        if let Op::FixLoop { start } = &mut op {
            *start = prefix[*start as usize];
        }
        ops.push(op);
    }
    c.fix_groups = c
        .fix_groups
        .iter()
        .zip(keep_group)
        .filter(|(_, &kept)| kept)
        .map(|(&(s, e), _)| (prefix[s as usize], prefix[e as usize]))
        .collect();
    c.ops = ops;
    c
}

/// Linear-scan register compaction. Values defined before a fixpoint
/// group but read inside it stay live across the whole group (the
/// back-jump re-reads them every iteration), so their ranges extend to
/// the group's last op; everything else frees at its last use, letting
/// destinations alias dying operands (the VM computes into a local
/// before storing).
fn compact(mut c: Chunk) -> Chunk {
    let nr = c.rel_regs as usize;
    let ns = c.set_regs as usize;
    const NEVER: usize = usize::MAX;
    let mut last_r = vec![NEVER; nr];
    let mut last_s = vec![NEVER; ns];
    let mut def_r = vec![NEVER; nr];
    let mut def_s = vec![NEVER; ns];
    for (i, op) in c.ops.iter().enumerate() {
        op.uses(&mut |u| match u {
            AnyReg::R(x) => last_r[x as usize] = i,
            AnyReg::S(x) => last_s[x as usize] = i,
        });
        match op.def() {
            Some(AnyReg::R(x)) if def_r[x as usize] == NEVER => def_r[x as usize] = i,
            Some(AnyReg::S(x)) if def_s[x as usize] == NEVER => def_s[x as usize] = i,
            _ => {}
        }
    }
    for &(start, end) in &c.fix_groups {
        let (start, end) = (start as usize, end as usize);
        for i in start..end {
            c.ops[i].uses(&mut |u| match u {
                AnyReg::R(x) if def_r[x as usize] < start => {
                    let slot = &mut last_r[x as usize];
                    *slot = (*slot).max(end - 1);
                }
                AnyReg::S(x) if def_s[x as usize] < start => {
                    let slot = &mut last_s[x as usize];
                    *slot = (*slot).max(end - 1);
                }
                _ => {}
            });
        }
    }
    let mut map_r = vec![u16::MAX; nr];
    let mut map_s = vec![u16::MAX; ns];
    let mut freed_r = vec![false; nr];
    let mut freed_s = vec![false; ns];
    let mut free_r: Vec<u16> = Vec::new();
    let mut free_s: Vec<u16> = Vec::new();
    let mut next_r: u16 = 0;
    let mut next_s: u16 = 0;
    for i in 0..c.ops.len() {
        let op = c.ops[i];
        op.uses(&mut |u| match u {
            AnyReg::R(x) => {
                let x = x as usize;
                if last_r[x] == i && !freed_r[x] {
                    freed_r[x] = true;
                    free_r.push(map_r[x]);
                }
            }
            AnyReg::S(x) => {
                let x = x as usize;
                if last_s[x] == i && !freed_s[x] {
                    freed_s[x] = true;
                    free_s.push(map_s[x]);
                }
            }
        });
        match op.def() {
            Some(AnyReg::R(x)) if map_r[x as usize] == u16::MAX => {
                map_r[x as usize] = free_r.pop().unwrap_or_else(|| {
                    next_r += 1;
                    next_r - 1
                });
            }
            Some(AnyReg::S(x)) if map_s[x as usize] == u16::MAX => {
                map_s[x as usize] = free_s.pop().unwrap_or_else(|| {
                    next_s += 1;
                    next_s - 1
                });
            }
            _ => {}
        }
        c.ops[i].rewrite_regs(&|x| map_r[x as usize], &|x| map_s[x as usize]);
    }
    c.rel_regs = next_r;
    c.set_regs = next_s;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, lower};
    use crate::parser::parse;

    fn compiled(src: &str) -> Chunk {
        compile(&parse(src).expect("parses")).expect("compiles")
    }

    fn count(c: &Chunk, pred: impl Fn(&Op) -> bool) -> usize {
        c.ops.iter().filter(|op| pred(op)).count()
    }

    #[test]
    fn dead_definitions_are_eliminated() {
        let c = compiled("let dead = po ; rf\nacyclic po | com as Order\n");
        assert_eq!(
            count(&c, |op| matches!(op, Op::SeqR { .. })),
            0,
            "{}",
            c.disassemble()
        );
    }

    #[test]
    fn common_subexpressions_are_shared() {
        // `(po ; rf)` appears twice; the optimised chunk computes it once.
        let naive = lower(&parse("acyclic (po ; rf) | ((po ; rf) ; co) as X\n").unwrap()).unwrap();
        let c = compiled("acyclic (po ; rf) | ((po ; rf) ; co) as X\n");
        assert_eq!(count(&naive, |op| matches!(op, Op::SeqR { .. })), 3);
        assert_eq!(
            count(&c, |op| matches!(op, Op::SeqR { .. })),
            2,
            "{}",
            c.disassemble()
        );
    }

    #[test]
    fn analysis_compounds_hoist_to_builtin_loads() {
        use RelBuiltin::*;
        for (src, builtin) in [
            ("acyclic po & loc as X\n", PoLoc),
            ("acyclic poloc | com as X\n", Coherence),
            ("acyclic rf | co | fr as X\n", Com),
            ("acyclic addr | data as X\n", Dp),
            ("empty rmw & (fre ; coe) as X\n", RmwIsol),
            ("acyclic stronglift(com, stxn) as X\n", StrongIsol),
            ("acyclic stronglift(com, stxnat) as X\n", StrongIsolAtomic),
            ("acyclic weaklift(com, stxn) as X\n", WeakIsol),
            ("empty rmw & tfence+ as X\n", TxnCancelsRmw),
            ("acyclic ~sthd as X\n", Ext),
        ] {
            let c = compiled(src);
            assert!(
                c.ops
                    .iter()
                    .any(|op| matches!(op, Op::LoadR { b, .. } if *b == builtin)),
                "{src} should hoist to {builtin:?}:\n{}",
                c.disassemble()
            );
            // The hoisted load feeds the check directly.
            assert_eq!(c.ops.len(), 2, "{src}:\n{}", c.disassemble());
        }
    }

    #[test]
    fn registers_are_compacted() {
        // Five operands but short live ranges: the bank stays small.
        let c = compiled("acyclic ((po ; rf) ; co) ; ((fr ; rfe) ; coe) as X\n");
        assert!(
            c.rel_regs <= 3,
            "rel bank {} too wide:\n{}",
            c.rel_regs,
            c.disassemble()
        );
    }

    #[test]
    fn fixpoint_groups_survive_optimisation() {
        let c = compiled("let rec hb = (po | rf) | (hb ; hb)\nacyclic hb as X\n");
        assert_eq!(c.fix_groups.len(), 1, "{}", c.disassemble());
        assert_eq!(count(&c, |op| matches!(op, Op::FixUpdate { .. })), 1);
        assert_eq!(count(&c, |op| matches!(op, Op::FixLoop { .. })), 1);
        let (start, end) = c.fix_groups[0];
        assert!(matches!(c.ops[end as usize - 1], Op::FixLoop { start: s } if s == start));
    }

    #[test]
    fn dead_fixpoint_groups_are_dropped() {
        let c = compiled("let rec dead = po | (dead ; dead)\nacyclic com as X\n");
        assert_eq!(c.fix_groups.len(), 0, "{}", c.disassemble());
        assert_eq!(count(&c, |op| matches!(op, Op::FixUpdate { .. })), 0);
    }

    #[test]
    fn shipped_models_shrink_under_optimisation() {
        for (name, src) in crate::models::SOURCES {
            let file = parse(src).expect(name);
            let naive = lower(&file).expect(name);
            let opt = compile(&file).expect(name);
            assert!(
                opt.len() <= naive.len(),
                "{name}: optimised {} > naive {}",
                opt.len(),
                naive.len()
            );
            let checks = count(&naive, |op| matches!(op, Op::Check { .. }));
            assert_eq!(
                count(&opt, |op| matches!(op, Op::Check { .. })),
                checks,
                "{name}"
            );
        }
    }
}
