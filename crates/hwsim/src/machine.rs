//! The one operational machine (after Colvin and Smith's reordering
//! semantics): each thread commits any instruction whose *ordering
//! predecessors* have committed, over shared per-location coherence
//! lists. An architecture is its ordering table plus two rules:
//!
//! * **Propagation.** On a multicopy-atomic architecture (x86, ARMv8) a
//!   committed write reaches every thread at once. On Power it reaches
//!   its own thread, then propagates one thread at a time. Barriers are
//!   cumulative: a write carries the snapshot its thread's last barrier
//!   took and may not reach a thread that has not seen that snapshot;
//!   `sync` and `tbegin` also wait until everything their thread has
//!   seen has reached every thread.
//! * **Exclusives.** ARMv8 and Power pair them through a monitor: the
//!   store-exclusive fails (the path dies) when a write to its location
//!   committed since the load-exclusive. On x86 the pair is one `LOCK`'d
//!   instruction: the load commits together with its store, and a store
//!   reached on its own is a plain store.
//!
//! A load reads its transaction's own latest write, else its thread's
//! latest uncommitted earlier store to the location (x86's store-buffer
//! forwarding: only x86's table lets a load pass such a store), else the
//! write its thread has seen last. Transactions are TSX/Power/ARMv8-TM
//! alike: reads and writes are tracked; a conflicting access by another
//! thread aborts the transaction, which then vanishes (its instructions
//! count as committed, its registers keep what they read); commits
//! publish the write set atomically to every thread; and the boundaries
//! cancel any exclusive reservation (TxnCancelsRMW).
//!
//! Exploration is an exhaustive DFS over commit (and propagation)
//! steps with a memo of visited states, so answers are exact; a test
//! whose exploration would pass [`MAX_STATES`] states gets none.

use std::collections::HashSet;

use txmm_core::Fence;
use txmm_litmus::{Instr, LitmusTest, Op};
use txmm_models::Arch;

use crate::outcome::{Outcome, OutcomeSet, MAX_LOCS, MAX_STATES};
use crate::{armsim, powersim, tso};

/// What sets one architecture's machine apart.
pub(crate) struct Rules {
    /// Must instruction `j` commit before the later instruction `i` of
    /// the same thread?
    pub(crate) ordered: fn(&[Instr], usize, usize) -> bool,
    /// Does a committed write reach every thread at once?
    pub(crate) multicopy_atomic: bool,
    /// Is an exclusive load and its exclusive store one `LOCK`'d
    /// instruction rather than a monitored pair?
    pub(crate) locked_rmw: bool,
    /// Does a load outside a transaction abort the transactions that
    /// wrote its location?
    pub(crate) plain_loads_abort: bool,
}

/// The memory location `op` accesses, if any.
pub(crate) fn loc_of(op: &Op) -> Option<u8> {
    match op {
        Op::Load { loc, .. } | Op::Store { loc, .. } => Some(*loc),
        _ => None,
    }
}

/// Is there a fence of kind `f` strictly between `j` and `i`?
pub(crate) fn fence_between(instrs: &[Instr], j: usize, i: usize, f: Fence) -> bool {
    instrs[j + 1..i]
        .iter()
        .any(|x| matches!(x.op, Op::Fence(k, _) if k == f))
}

/// Every reachable final state of `test` on its architecture's machine.
///
/// `None` when no machine runs the test: SC and C++ have none, lock
/// calls have no machine semantics, and a location past [`MAX_LOCS`], a
/// thread past 64 instructions, a test past 255, a transaction without
/// its end or an exploration past `MAX_STATES` (65,536) states does not
/// fit the machine. A thread converted from an execution of at most 16
/// events has at most 48 instructions.
pub fn run(test: &LitmusTest) -> Option<OutcomeSet> {
    let rules = match test.arch {
        Arch::X86 => &tso::X86,
        Arch::Armv8 => &armsim::ARMV8,
        Arch::Power => &powersim::POWER,
        _ => return None,
    };
    Machine::new(test, rules)?.explore()
}

/// Is `test`'s postcondition observable, i.e. does some reachable final
/// state pass it? This answers the paper's Table 1 question: "is this
/// test Seen on this implementation?" `None` where [`run`] is `None`.
pub fn observable(test: &LitmusTest) -> Option<bool> {
    run(test).map(|set| set.iter().any(|o| o.passes(test)))
}

/// A write in a coherence list.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Write {
    value: u32,
    /// The writer's barrier snapshot: the write may not reach a thread
    /// whose view is behind it (Power only; zero elsewhere).
    preds: [u8; MAX_LOCS],
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Txn {
    id: usize,
    read_set: u8,
    write_locs: u8,
    writes: Vec<(u8, u32)>,
    /// The transaction's instructions, `TxBegin` through `TxEnd`.
    span: u64,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Thread {
    committed: u64,
    regs: Vec<u32>,
    /// `view[l]`: how many writes of `l`'s coherence list this thread
    /// has seen.
    view: [u8; MAX_LOCS],
    /// The view its last barrier took (Power only).
    snapshot: [u8; MAX_LOCS],
    txn: Option<Txn>,
    /// A load-exclusive's location and the length of its coherence list.
    monitor: Option<(u8, u8)>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    co: Vec<Vec<Write>>,
    threads: Vec<Thread>,
    txn_ok: Vec<bool>,
}

/// A test compiled for one architecture's machine.
struct Machine<'a> {
    test: &'a LitmusTest,
    rules: &'static Rules,
    /// `preds[t][i]`: the earlier instructions `i` is ordered after.
    preds: Vec<Vec<u64>>,
    /// `spans[t][i]`: for a `TxBegin` at `i`, its transaction's span.
    spans: Vec<Vec<u64>>,
}

impl<'a> Machine<'a> {
    fn new(test: &'a LitmusTest, rules: &'static Rules) -> Option<Machine<'a>> {
        let txns = test.num_txns();
        if test.len() > usize::from(u8::MAX) {
            return None;
        }
        let (mut preds, mut spans) = (Vec::new(), Vec::new());
        for instrs in &test.threads {
            if instrs.len() > 64 {
                return None;
            }
            let mut span = vec![0; instrs.len()];
            for (i, instr) in instrs.iter().enumerate() {
                match instr.op {
                    Op::LockCall(_) => return None,
                    Op::TxBegin { txn_id, .. } => {
                        let end = (i + 1..instrs.len()).find(|&j| instrs[j].op == Op::TxEnd)?;
                        if txn_id >= txns {
                            return None;
                        }
                        span[i] = (u64::MAX >> (63 - end)) & (u64::MAX << i);
                    }
                    _ if loc_of(&instr.op).is_some_and(|l| usize::from(l) >= MAX_LOCS) => {
                        return None
                    }
                    _ => {}
                }
            }
            preds.push(
                (0..instrs.len())
                    .map(|i| {
                        (0..i)
                            .filter(|&j| (rules.ordered)(instrs, j, i))
                            .fold(0, |m, j| m | 1 << j)
                    })
                    .collect(),
            );
            spans.push(span);
        }
        Some(Machine {
            test,
            rules,
            preds,
            spans,
        })
    }

    /// Every reachable final state, or `None` past [`MAX_STATES`].
    fn explore(&self) -> Option<OutcomeSet> {
        let threads = self.test.threads.iter().map(|instrs| {
            let regs = instrs.iter().filter_map(|i| match i.op {
                Op::Load { reg, .. } => Some(reg + 1),
                _ => None,
            });
            Thread {
                committed: 0,
                regs: vec![0; regs.max().unwrap_or(0)],
                view: [0; MAX_LOCS],
                snapshot: [0; MAX_LOCS],
                txn: None,
                monitor: None,
            }
        });
        let init = State {
            co: vec![Vec::new(); MAX_LOCS],
            threads: threads.collect(),
            txn_ok: vec![true; self.test.num_txns()],
        };
        let mut outcomes = OutcomeSet::new();
        let mut seen = HashSet::new();
        let mut stack = vec![init];
        while let Some(s) = stack.pop() {
            if seen.contains(&s) {
                continue;
            }
            if seen.len() == MAX_STATES {
                return None;
            }
            let instrs = &self.test.threads;
            let pending = s
                .threads
                .iter()
                .zip(instrs)
                .any(|(th, is)| th.committed.count_ones() as usize != is.len());
            if !pending {
                outcomes.insert(Outcome {
                    regs: s.threads.iter().map(|t| t.regs.clone()).collect(),
                    memory: s
                        .co
                        .iter()
                        .map(|ws| ws.last().map_or(0, |w| w.value))
                        .collect(),
                    txn_ok: s.txn_ok.clone(),
                    co_order: s
                        .co
                        .iter()
                        .map(|ws| ws.iter().map(|w| w.value).collect())
                        .collect(),
                });
            }
            for (t, th) in s.threads.iter().enumerate().filter(|_| pending) {
                let c = th.committed;
                for i in (0..instrs[t].len()).filter(|&i| c & 1 << i == 0) {
                    if self.preds[t][i] & !c == 0 {
                        stack.extend(self.commit(&s, t, i));
                    }
                }
                if !self.rules.multicopy_atomic {
                    stack.extend((0..MAX_LOCS).filter_map(|l| propagate(&s, t, l)));
                }
            }
            seen.insert(s);
        }
        Some(outcomes)
    }

    /// Commit instruction `i` of thread `t`; `None` when it cannot
    /// (a failed store-exclusive, an unmet `sync`, a split `LOCK`'d
    /// pair).
    fn commit(&self, s: &State, t: usize, i: usize) -> Option<State> {
        let instrs = &self.test.threads[t];
        let mut s = s.clone();
        s.threads[t].committed |= 1 << i;
        match &instrs[i].op {
            Op::Load { reg, loc, mode } => {
                let l = usize::from(*loc);
                // An x86 rmw pair split by another instruction has no
                // single-instruction encoding: the path is unrealisable.
                let locked = if mode.exclusive && self.rules.locked_rmw {
                    match instrs.get(i + 1).map(|x| &x.op) {
                        Some(Op::Store {
                            loc: sl,
                            value,
                            mode: sm,
                        }) if sm.exclusive && sl == loc => Some(*value),
                        _ => return None,
                    }
                } else {
                    None
                };
                if s.threads[t].txn.is_some() || mode.exclusive {
                    // Transactional loads and load-exclusives are
                    // coherent fetches of the latest write.
                    force_see(&mut s, t, l);
                }
                let th = &mut s.threads[t];
                let own = th.txn.as_mut().and_then(|txn| {
                    txn.read_set |= 1 << loc;
                    txn.writes
                        .iter()
                        .rev()
                        .find(|(w, _)| w == loc)
                        .map(|&(_, v)| v)
                });
                let forwarded = || {
                    (0..i)
                        .rev()
                        .filter(|&j| th.committed & 1 << j == 0)
                        .find_map(|j| match instrs[j].op {
                            Op::Store { loc: w, value, .. } if w == *loc => Some(value),
                            _ => None,
                        })
                };
                let v = own.or_else(forwarded).unwrap_or_else(|| match th.view[l] {
                    0 => 0,
                    n => s.co[l][usize::from(n) - 1].value,
                });
                th.regs[*reg] = v;
                if mode.exclusive && !self.rules.locked_rmw {
                    th.monitor = Some((*loc, s.co[l].len() as u8));
                }
                // Strong isolation: reading a location in another
                // transaction's write set is a conflict.
                if s.threads[t].txn.is_some() || self.rules.plain_loads_abort {
                    conflict(&mut s, t, *loc, false);
                }
                if let Some(value) = locked {
                    s.threads[t].committed |= 1 << (i + 1);
                    self.store(&mut s, t, *loc, value);
                }
            }
            Op::Store { loc, value, mode } => {
                if mode.exclusive && !self.rules.locked_rmw {
                    let now = (*loc, s.co[usize::from(*loc)].len() as u8);
                    if s.threads[t].monitor.take() != Some(now) {
                        return None;
                    }
                }
                self.store(&mut s, t, *loc, *value);
            }
            Op::Fence(Fence::Sync, _) => {
                if !fully_propagated(&s, t) {
                    return None;
                }
                self.snapshot(&mut s, t);
            }
            Op::Fence(Fence::Lwsync, _) => self.snapshot(&mut s, t),
            Op::Fence(..) | Op::LockCall(_) => {}
            Op::TxBegin { txn_id, .. } => {
                // `tbegin` is a cumulative barrier, like `sync`.
                if !fully_propagated(&s, t) {
                    return None;
                }
                self.snapshot(&mut s, t);
                let th = &mut s.threads[t];
                th.monitor = None;
                th.txn = Some(Txn {
                    id: *txn_id,
                    read_set: 0,
                    write_locs: 0,
                    writes: Vec::new(),
                    span: self.spans[t][i],
                });
            }
            Op::TxEnd => {
                s.threads[t].monitor = None;
                if let Some(txn) = s.threads[t].txn.take() {
                    // The integrated barrier: everything the transaction
                    // observed reaches every thread, then its stores do.
                    let seen = s.threads[t].view;
                    for th in &mut s.threads {
                        for (v, &w) in th.view.iter_mut().zip(&seen) {
                            *v = (*v).max(w);
                        }
                    }
                    self.snapshot(&mut s, t);
                    for (loc, value) in txn.writes {
                        self.write(&mut s, t, loc, value, true);
                    }
                    self.snapshot(&mut s, t);
                }
            }
        }
        Some(s)
    }

    /// A store's commit: into its transaction's write set, or to memory.
    fn store(&self, s: &mut State, t: usize, loc: u8, value: u32) {
        match s.threads[t].txn.as_mut() {
            Some(txn) => {
                txn.write_locs |= 1 << loc;
                txn.writes.push((loc, value));
            }
            None => self.write(s, t, loc, value, false),
        }
    }

    /// Append a write to `loc`'s coherence list, visible to its own
    /// thread (to every thread when `everywhere` or multicopy atomic),
    /// and abort the transactions it conflicts with.
    fn write(&self, s: &mut State, t: usize, loc: u8, value: u32, everywhere: bool) {
        let l = usize::from(loc);
        let preds = s.threads[t].snapshot;
        s.co[l].push(Write { value, preds });
        let len = s.co[l].len() as u8;
        if everywhere || self.rules.multicopy_atomic {
            for th in &mut s.threads {
                th.view[l] = len;
            }
        }
        s.threads[t].view[l] = len;
        conflict(s, t, loc, true);
    }

    /// A cumulative barrier: later writes of `t` carry its current view.
    fn snapshot(&self, s: &mut State, t: usize) {
        if !self.rules.multicopy_atomic {
            s.threads[t].snapshot = s.threads[t].view;
        }
    }
}

/// Abort `t`'s transaction: it vanishes, and control resumes after its
/// end.
fn abort(s: &mut State, t: usize) {
    if let Some(txn) = s.threads[t].txn.take() {
        s.txn_ok[txn.id] = false;
        s.threads[t].committed |= txn.span;
    }
}

/// An access by `actor` to `loc` aborts every other thread's transaction
/// that wrote `loc`, or (for a write) read it.
fn conflict(s: &mut State, actor: usize, loc: u8, is_write: bool) {
    for t in 0..s.threads.len() {
        let hit = s.threads[t].txn.as_ref().is_some_and(|txn| {
            let sets = if is_write {
                txn.write_locs | txn.read_set
            } else {
                txn.write_locs
            };
            sets & 1 << loc != 0
        });
        if t != actor && hit {
            abort(s, t);
        }
    }
}

/// Make thread `t` see the whole coherence list of `loc`, pulling in
/// each newly seen write's barrier snapshot transitively (a coherent
/// cacheline fetch).
fn force_see(s: &mut State, t: usize, loc: usize) {
    let mut want = [0u8; MAX_LOCS];
    want[loc] = s.co[loc].len() as u8;
    loop {
        let mut changed = false;
        for l in 0..MAX_LOCS {
            let view = s.threads[t].view[l];
            if want[l] > view {
                for w in &s.co[l][usize::from(view)..usize::from(want[l])] {
                    for (x, &p) in want.iter_mut().zip(&w.preds) {
                        *x = (*x).max(p);
                    }
                }
                s.threads[t].view[l] = want[l];
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Has everything thread `t` has seen reached every thread?
fn fully_propagated(s: &State, t: usize) -> bool {
    let v = &s.threads[t].view;
    s.threads
        .iter()
        .all(|th| th.view.iter().zip(v).all(|(a, b)| a >= b))
}

/// Propagate the next write of `loc` to thread `t`, if its barrier
/// snapshot has reached `t`. A write reaching a transaction that read
/// or wrote `loc` aborts it.
fn propagate(s: &State, t: usize, loc: usize) -> Option<State> {
    let th = &s.threads[t];
    let w = s.co[loc].get(usize::from(th.view[loc]))?;
    if th.view.iter().zip(&w.preds).any(|(v, p)| v < p) {
        return None;
    }
    let mut s = s.clone();
    s.threads[t].view[loc] += 1;
    let hit = s.threads[t]
        .txn
        .as_ref()
        .is_some_and(|txn| (txn.read_set | txn.write_locs) & 1 << loc != 0);
    if hit {
        abort(&mut s, t);
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use txmm_core::ExecBuilder;
    use txmm_litmus::litmus_from_execution;
    use txmm_models::Arch;

    #[test]
    fn sixteen_event_threads_fit_the_commit_mask() {
        // One thread of 16 single-store transactions: 48 instructions,
        // the longest a 16-event execution converts to.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let ws: Vec<_> = (0..16).map(|_| b.write(t0, 0)).collect();
        for w in &ws {
            b.txn(&[*w]);
        }
        for pair in ws.windows(2) {
            b.co(pair[0], pair[1]);
        }
        let x = b.build().unwrap();
        for arch in [Arch::X86, Arch::Armv8, Arch::Power] {
            let t = litmus_from_execution("long", &x, arch);
            assert_eq!(t.threads[0].len(), 48);
            assert_eq!(crate::observable(&t), Some(true), "{arch:?}");
        }
    }

    /// Four Power threads, each one store to its own location, then
    /// loads of the other three: 16 events whose exploration ran for
    /// minutes before the state cap.
    const PAST_THE_CAP: &str = "big (Power)
Initially: x = 0 /\\ y = 0 /\\ z = 0 /\\ w = 0
thread 0:
  x <- 1
  r0 <- y
  r1 <- z
  r2 <- w
thread 1:
  y <- 2
  r0 <- z
  r1 <- w
  r2 <- x
thread 2:
  z <- 3
  r0 <- w
  r1 <- x
  r2 <- y
thread 3:
  w <- 4
  r0 <- x
  r1 <- y
  r2 <- z
Test: 0:r0 = 0 /\\ 1:r0 = 0 /\\ 2:r0 = 0 /\\ 3:r0 = 0
";

    #[test]
    fn explorations_past_the_state_cap_are_refused() {
        let t = txmm_litmus::parse_litmus(PAST_THE_CAP).expect("parses");
        let start = std::time::Instant::now();
        assert_eq!(crate::run(&t), None);
        assert!(start.elapsed().as_secs() < 120, "{:?}", start.elapsed());
    }

    #[test]
    fn what_does_not_fit_is_refused() {
        let x = txmm_models::catalog::sb(None, false, false);
        let mut t = litmus_from_execution("sb", &x, Arch::Armv8);
        assert!(crate::run(&t).is_some());
        t.arch = Arch::Sc;
        assert_eq!(crate::run(&t), None, "no SC machine");
        t.arch = Arch::Power;
        t.threads[0] = t.threads[0].iter().cycle().take(65).cloned().collect();
        assert_eq!(crate::run(&t), None, "a thread past 64 instructions");
    }
}
