//! Exhaustive candidate-execution enumeration for litmus *programs* —
//! the herd-style outcome engine's front half.
//!
//! [`crate::to_exec::execution_from_litmus`] rebuilds the *one*
//! candidate execution a verdict-pinning postcondition identifies. This
//! module answers the complementary, program-level question: given the
//! instructions alone, what are **all** the well-formed candidate
//! executions? Every reads-from assignment (each read observes any
//! same-location write or the initial value), every per-location
//! coherence order, and — when the program contains transactions —
//! every commit/abort split contribute one candidate, each paired with
//! the final state (registers, memory, coherence log, commit flags) it
//! produces. Memory models then filter the candidates; the surviving
//! final states are the model's *allowed outcomes* for the program,
//! which is how herd-style tools answer "which final states does model
//! M allow for this test?" rather than "is this one execution
//! consistent?".
//!
//! The enumeration is deliberately model-free and allocation-light; the
//! checking half (per-model allowed sets, canonical-class pruning,
//! caching, the serving wire-up) lives in `txmm::outcomes`. The pruned
//! walk ([`enumerate_candidates_pruned`]) runs one
//! [`RfCoSearch`] per abort split, the same search the synthesis walk
//! runs, with the coherence orders as its first stages.
//!
//! Aborted transactions follow the hardware convention the simulators
//! implement: a rolled-back transaction contributes **no events** to
//! the candidate (its writes never reach coherence) and its `ok` flag
//! reads 0. Registers loaded inside an aborted transaction are reported
//! as 0 here; callers comparing against an operational simulator that
//! leaks pre-abort register values must normalise both sides (see
//! `txmm::outcomes::normalise_outcome`).

use std::collections::HashMap;

use txmm_core::incr::{RfCoSearch, Stage};
use txmm_core::{
    Event, EventId, Execution, Loc, PartialCandidate, PruneOracle, PruneStats, Rel, TxnClass,
    MAX_EVENTS,
};

use crate::ast::{AccessMode, DepKind, LitmusTest, Op};
use crate::to_exec::{LitmusConvertError, MAX_REGISTER};

/// The postcondition-independent part of a litmus test, built once and
/// shared by the pinned-execution reconstruction
/// ([`crate::execution_from_litmus`]) and the exhaustive candidate
/// enumerator: events in program order, the program-given relations
/// (`po`, dependencies, `rmw`), the transaction classes, and the value
/// bookkeeping that links events back to registers and store values.
#[derive(Debug, Clone)]
pub struct ProgramSkeleton {
    /// Events, thread-major in program order.
    pub events: Vec<Event>,
    /// Program order.
    pub po: Rel,
    /// Address dependencies.
    pub addr: Rel,
    /// Control dependencies.
    pub ctrl: Rel,
    /// Data dependencies.
    pub data: Rel,
    /// Read-modify-write pairs.
    pub rmw: Rel,
    /// Non-empty transaction classes with their litmus-level ids.
    pub txns: Vec<(usize, TxnClass)>,
    /// Per location: `(value, write event)` in program order.
    pub writes_by_loc: HashMap<Loc, Vec<(u32, EventId)>>,
    /// `(tid, reg)` → the read event that loads into it (the last such
    /// load in program order, matching the simulators' register files).
    pub reg_event: HashMap<(usize, usize), EventId>,
    /// Write event → its store value (0 for non-writes).
    pub value_of: Vec<u32>,
    /// Read event → the `(tid, reg)` it loads into.
    pub reg_of: Vec<Option<(usize, usize)>>,
    /// Per-thread register-file size (max register index + 1).
    pub nregs: Vec<usize>,
    /// Litmus-level transaction count (`ok` flag vector length).
    pub num_txns: usize,
}

impl ProgramSkeleton {
    /// Build the skeleton: pass 1 of the litmus → execution conversion.
    ///
    /// Enforces the unique-non-zero write-value discipline the
    /// generator follows (§2.2) — it is what makes `rf` identifiable
    /// from register values and outcome tables meaningful.
    pub fn from_litmus(t: &LitmusTest) -> Result<ProgramSkeleton, LitmusConvertError> {
        let num_events = t
            .threads
            .iter()
            .flatten()
            .filter(|i| !matches!(i.op, Op::TxBegin { .. } | Op::TxEnd))
            .count();
        if num_events > MAX_EVENTS {
            return Err(LitmusConvertError::TooManyEvents(num_events));
        }

        let mut events: Vec<Event> = Vec::new();
        let mut reg_event: HashMap<(usize, usize), EventId> = HashMap::new();
        let mut writes_by_loc: HashMap<Loc, Vec<(u32, EventId)>> = HashMap::new();
        let mut instr_event: HashMap<(usize, usize), EventId> = HashMap::new();
        let mut txns: Vec<(usize, TxnClass)> = Vec::new();
        let mut deps: Vec<(DepKind, EventId, EventId)> = Vec::new();
        let mut rmw_pairs: Vec<(EventId, EventId)> = Vec::new();
        let mut value_of: Vec<u32> = Vec::new();
        let mut reg_of: Vec<Option<(usize, usize)>> = Vec::new();
        let mut nregs: Vec<usize> = vec![0; t.threads.len()];

        let attrs_of = |m: &AccessMode| {
            use txmm_core::Attrs;
            let mut a = Attrs::NONE;
            if m.acquire {
                a = a.union(Attrs::ACQ);
            }
            if m.release {
                a = a.union(Attrs::REL);
            }
            if m.sc {
                a = a.union(Attrs::SC);
            }
            if m.atomic {
                a = a.union(Attrs::ATO);
            }
            a
        };

        for (tid, instrs) in t.threads.iter().enumerate() {
            let mut open_txn: Option<(usize, Vec<EventId>, bool)> = None;
            let mut pending_exclusive: Option<(EventId, Loc)> = None;
            for (idx, instr) in instrs.iter().enumerate() {
                let ev = match &instr.op {
                    Op::Load { reg, loc, mode } => {
                        if *reg > MAX_REGISTER {
                            return Err(LitmusConvertError::RegisterOutOfRange(tid, *reg));
                        }
                        let e = events.len();
                        reg_event.insert((tid, *reg), e);
                        nregs[tid] = nregs[tid].max(*reg + 1);
                        if mode.exclusive {
                            if pending_exclusive.is_some() {
                                return Err(LitmusConvertError::UnpairedExclusive(tid));
                            }
                            pending_exclusive = Some((e, *loc));
                        }
                        value_of.push(0);
                        reg_of.push(Some((tid, *reg)));
                        Some(Event {
                            kind: txmm_core::EventKind::Read,
                            tid: tid as u8,
                            loc: Some(*loc),
                            attrs: attrs_of(mode),
                        })
                    }
                    Op::Store { loc, value, mode } => {
                        let e = events.len();
                        if *value == 0 {
                            return Err(LitmusConvertError::ZeroWriteValue(*loc));
                        }
                        let per_loc = writes_by_loc.entry(*loc).or_default();
                        if per_loc.iter().any(|&(v, _)| v == *value) {
                            return Err(LitmusConvertError::AmbiguousWriteValue(*loc, *value));
                        }
                        per_loc.push((*value, e));
                        if mode.exclusive {
                            match pending_exclusive.take() {
                                Some((r, l)) if l == *loc => rmw_pairs.push((r, e)),
                                _ => return Err(LitmusConvertError::UnpairedExclusive(tid)),
                            }
                        }
                        value_of.push(*value);
                        reg_of.push(None);
                        Some(Event {
                            kind: txmm_core::EventKind::Write,
                            tid: tid as u8,
                            loc: Some(*loc),
                            attrs: attrs_of(mode),
                        })
                    }
                    Op::Fence(f, attrs) => {
                        value_of.push(0);
                        reg_of.push(None);
                        Some(Event {
                            kind: txmm_core::EventKind::Fence(*f),
                            tid: tid as u8,
                            loc: None,
                            attrs: *attrs,
                        })
                    }
                    Op::LockCall(sym) => {
                        let call = match *sym {
                            "L" => txmm_core::Call::Lock,
                            "U" => txmm_core::Call::Unlock,
                            "Lt" => txmm_core::Call::TLock,
                            _ => txmm_core::Call::TUnlock,
                        };
                        value_of.push(0);
                        reg_of.push(None);
                        Some(Event::call(tid as u8, call))
                    }
                    Op::TxBegin { txn_id, atomic } => {
                        open_txn = Some((*txn_id, Vec::new(), *atomic));
                        None
                    }
                    Op::TxEnd => {
                        if let Some((txn_id, evs, atomic)) = open_txn.take() {
                            if !evs.is_empty() {
                                txns.push((
                                    txn_id,
                                    TxnClass {
                                        events: evs,
                                        atomic,
                                    },
                                ));
                            }
                        }
                        None
                    }
                };
                if let Some(ev) = ev {
                    let e = events.len();
                    // Resolve the dependencies before this instruction
                    // becomes a target: only earlier events qualify.
                    for d in &instr.deps {
                        let src = *instr_event
                            .get(&(tid, d.on))
                            .ok_or(LitmusConvertError::BadDepTarget(tid, d.on))?;
                        deps.push((d.kind, src, e));
                    }
                    instr_event.insert((tid, idx), e);
                    if let Some((_, evs, _)) = open_txn.as_mut() {
                        evs.push(e);
                    }
                    events.push(ev);
                }
            }
            if pending_exclusive.is_some() {
                return Err(LitmusConvertError::UnpairedExclusive(tid));
            }
            // An unterminated transaction still closes at thread end.
            if let Some((txn_id, evs, atomic)) = open_txn.take() {
                if !evs.is_empty() {
                    txns.push((
                        txn_id,
                        TxnClass {
                            events: evs,
                            atomic,
                        },
                    ));
                }
            }
        }

        let n = events.len();
        let mut po = Rel::empty(n);
        for a in 0..n {
            for b in (a + 1)..n {
                if events[a].tid == events[b].tid {
                    po.add(a, b);
                }
            }
        }
        let mut addr = Rel::empty(n);
        let mut ctrl = Rel::empty(n);
        let mut data = Rel::empty(n);
        for (kind, a, b) in deps {
            match kind {
                DepKind::Addr => addr.add(a, b),
                DepKind::Ctrl => ctrl.add(a, b),
                DepKind::Data => data.add(a, b),
            }
        }
        let mut rmw = Rel::empty(n);
        for (r, w) in rmw_pairs {
            rmw.add(r, w);
        }

        Ok(ProgramSkeleton {
            events,
            po,
            addr,
            ctrl,
            data,
            rmw,
            txns,
            writes_by_loc,
            reg_event,
            value_of,
            reg_of,
            nregs,
            num_txns: t.num_txns(),
        })
    }

    /// Number of events in the fully-committed program.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the program has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Highest location index accessed, if any.
    pub(crate) fn max_loc(&self) -> Option<Loc> {
        self.events.iter().filter_map(|e| e.loc).max()
    }

    /// How many candidates [`enumerate_candidates`] will visit:
    /// `Σ_splits Π_loc |writes(loc)|! × Π_read (|writes(loc(read))| + 1)`
    /// over the `2^txns` abort splits (aborted transactions shrink both
    /// factors). Cheap and **saturating**: programs whose count exceeds
    /// `u128::MAX` — or whose abort-split count alone would take longer
    /// to sum than any caller's cap admits — report `u128::MAX`, which
    /// every sane cap refuses. This is what lets servers refuse
    /// oversized programs before enumerating anything.
    pub fn candidate_count(&self) -> u128 {
        // Every abort split contributes at least one candidate, so past
        // 20 transactions the count is at least 2^20; saturate instead
        // of walking an astronomic mask space just to add it up.
        if self.txns.len() > 20 {
            return u128::MAX;
        }
        (0..1u64 << self.txns.len())
            .map(|mask| count_for_mask(self, mask))
            .fold(0, u128::saturating_add)
    }
}

/// One enumerated candidate: the execution plus the final state it
/// yields under the program's store values.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate execution graph.
    pub exec: Execution,
    /// `regs[tid][reg]` at exit (0 for never-written and aborted-load
    /// registers).
    pub regs: Vec<Vec<u32>>,
    /// Final memory, indexed by location (length `max_loc + 1`).
    pub memory: Vec<u32>,
    /// Per litmus-level transaction: did it commit in this candidate?
    pub txn_ok: Vec<bool>,
    /// Values written to each location in coherence order.
    pub co_order: Vec<Vec<u32>>,
    /// Bitmask over [`ProgramSkeleton::txns`] classes aborted here
    /// (at most [`txmm_core::MAX_EVENTS`] (16) single-event classes fit
    /// a program, so `u64` covers every mask).
    pub aborted: u64,
}

/// [`ProgramSkeleton::candidate_count`] of a program.
#[cfg(test)]
pub(crate) fn candidate_count(t: &LitmusTest) -> Result<u128, LitmusConvertError> {
    Ok(ProgramSkeleton::from_litmus(t)?.candidate_count())
}

fn factorial(n: usize) -> u128 {
    let mut out = 1u128;
    for k in 1..=n as u128 {
        out = out.saturating_mul(k);
    }
    out
}

fn aborted_events(sk: &ProgramSkeleton, mask: u64) -> Vec<bool> {
    let mut out = vec![false; sk.len()];
    for (i, (_, class)) in sk.txns.iter().enumerate() {
        if mask & (1 << i) != 0 {
            for &e in &class.events {
                out[e] = true;
            }
        }
    }
    out
}

fn count_for_mask(sk: &ProgramSkeleton, mask: u64) -> u128 {
    let dead = aborted_events(sk, mask);
    let mut writes_at = HashMap::new();
    for (&loc, ws) in &sk.writes_by_loc {
        let live = ws.iter().filter(|&&(_, e)| !dead[e]).count();
        writes_at.insert(loc, live);
    }
    let mut total: u128 = 1;
    for &live in writes_at.values() {
        total = total.saturating_mul(factorial(live));
    }
    for (e, ev) in sk.events.iter().enumerate() {
        if ev.is_read() && !dead[e] {
            let loc = ev.loc.expect("read has a location");
            total = total.saturating_mul((*writes_at.get(&loc).unwrap_or(&0) + 1) as u128);
        }
    }
    total
}

/// One abort split of a program, projected onto its committed events:
/// the fixed structure both enumerators (plain and pruned) walk.
struct MaskedProgram {
    n: usize,
    events: Vec<Event>,
    /// Per committed event: its store value (0 for non-writes).
    values: Vec<u32>,
    po: Rel,
    addr: Rel,
    ctrl: Rel,
    data: Rel,
    rmw: Rel,
    txns: Vec<TxnClass>,
    /// Per litmus-level transaction: committed under this mask?
    txn_ok: Vec<bool>,
    /// Committed writes per location (value, new id), program order,
    /// locations ascending.
    live_writes: Vec<(Loc, Vec<(u32, EventId)>)>,
    /// Committed reads (new id, loc, old id), program order.
    reads: Vec<(EventId, Loc, EventId)>,
    /// Per read: index into `live_writes` of its location, if any.
    read_lw: Vec<Option<usize>>,
    /// Per read: rf choice count — 1 (initial value) + live writes at
    /// its location.
    rf_arity: Vec<usize>,
}

impl MaskedProgram {
    fn project(sk: &ProgramSkeleton, mask: u64) -> MaskedProgram {
        let dead = aborted_events(sk, mask);
        // Old → new event ids over the committed events.
        let mut remap = vec![None; sk.len()];
        let mut events = Vec::new();
        let mut values = Vec::new();
        for (e, ev) in sk.events.iter().enumerate() {
            if !dead[e] {
                remap[e] = Some(events.len());
                events.push(*ev);
                values.push(sk.value_of[e]);
            }
        }
        let n = events.len();
        let project = |r: &Rel| -> Rel {
            let mut out = Rel::empty(n);
            for (a, b) in r.pairs() {
                if let (Some(a2), Some(b2)) = (remap[a], remap[b]) {
                    out.add(a2, b2);
                }
            }
            out
        };
        let txns: Vec<TxnClass> = sk
            .txns
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) == 0)
            .map(|(_, (_, class))| TxnClass {
                events: class
                    .events
                    .iter()
                    .map(|&e| remap[e].expect("committed txn event survives"))
                    .collect(),
                atomic: class.atomic,
            })
            .collect();
        let mut txn_ok = vec![true; sk.num_txns];
        for (i, (txn_id, _)) in sk.txns.iter().enumerate() {
            if mask & (1 << i) != 0 {
                txn_ok[*txn_id] = false;
            }
        }

        let mut locs: Vec<Loc> = sk.writes_by_loc.keys().copied().collect();
        locs.sort_unstable();
        let live_writes: Vec<(Loc, Vec<(u32, EventId)>)> = locs
            .iter()
            .map(|&l| {
                (
                    l,
                    sk.writes_by_loc[&l]
                        .iter()
                        .filter(|&&(_, e)| !dead[e])
                        .map(|&(v, e)| (v, remap[e].expect("committed write survives")))
                        .collect(),
                )
            })
            .collect();
        let reads: Vec<(EventId, Loc, EventId)> = sk
            .events
            .iter()
            .enumerate()
            .filter(|&(e, ev)| ev.is_read() && !dead[e])
            .map(|(e, ev)| (remap[e].expect("committed"), ev.loc.expect("read"), e))
            .collect();

        // Per read: the index of its location's live-write list (if
        // any), and its rf arity — 0 = initial, k = k-th committed
        // write in program order. Both depend only on the abort mask,
        // so they are hoisted out of the permutation/rf hot loops.
        let read_lw: Vec<Option<usize>> = reads
            .iter()
            .map(|&(_, loc, _)| live_writes.iter().position(|(l, _)| *l == loc))
            .collect();
        let rf_arity: Vec<usize> = read_lw
            .iter()
            .map(|lw| lw.map(|i| live_writes[i].1.len()).unwrap_or(0) + 1)
            .collect();

        MaskedProgram {
            n,
            events,
            values,
            po: project(&sk.po),
            addr: project(&sk.addr),
            ctrl: project(&sk.ctrl),
            data: project(&sk.data),
            rmw: project(&sk.rmw),
            txns,
            txn_ok,
            live_writes,
            reads,
            read_lw,
            rf_arity,
        }
    }

    /// The split's execution with `rf` and `co` still empty — the root
    /// of the candidate subtree this mask contributes.
    fn base_execution(&self) -> Execution {
        Execution::from_parts(
            self.events.clone(),
            self.po,
            self.addr,
            self.ctrl,
            self.data,
            self.rmw,
            Rel::empty(self.n),
            Rel::empty(self.n),
            self.txns.clone(),
        )
    }

    /// The rf/co stages of the pruned walk: every location's coherence
    /// order first, locations ascending (the coherence gate kills an
    /// order that contradicts `po` at its second placement), then every
    /// read's source from read 0 on, the initial value first.
    fn stages(&self) -> Vec<Stage> {
        let writes: Vec<Vec<EventId>> = self
            .live_writes
            .iter()
            .map(|(_, ws)| ws.iter().map(|&(_, e)| e).collect())
            .collect();
        let reads: Vec<Stage> = self
            .reads
            .iter()
            .zip(&self.read_lw)
            .map(|(&(r, _, _), lw)| Stage::rf(r, lw.map_or(&[], |i| &writes[i])))
            .collect();
        let coherence = writes.into_iter().map(|writes| Stage::Co { writes });
        coherence.chain(reads).collect()
    }

    /// The complete candidate `x` of abort split `mask`, with the final
    /// state it produces: a write's coherence rank is the number of
    /// writes at its location less one, less its `co` successors, and a
    /// read's value is its `rf` source's.
    fn candidate(&self, sk: &ProgramSkeleton, x: &Execution, mask: u64) -> Candidate {
        debug_assert!(x.check_wf().is_ok(), "candidate must be well-formed");
        let nlocs = sk.max_loc().map_or(0, |l| l as usize + 1);
        let mut co_order = vec![Vec::new(); nlocs];
        let mut memory = vec![0u32; nlocs];
        for (loc, ws) in &self.live_writes {
            let order = &mut co_order[*loc as usize];
            order.resize(ws.len(), 0);
            for &(v, w) in ws {
                order[ws.len() - 1 - x.co().row(w).len()] = v;
            }
            if let Some(&last) = order.last() {
                memory[*loc as usize] = last;
            }
        }
        let mut regs: Vec<Vec<u32>> = sk.nregs.iter().map(|&n| vec![0; n]).collect();
        for &(r, _, rold) in &self.reads {
            if let Some((tid, reg)) = sk.reg_of[rold] {
                // Later loads into the same register win, as in the
                // simulators' register files.
                if sk.reg_event.get(&(tid, reg)) == Some(&rold) {
                    regs[tid][reg] = x.rf().col(r).iter().next().map_or(0, |w| self.values[w]);
                }
            }
        }
        Candidate {
            exec: x.clone(),
            regs,
            memory,
            txn_ok: self.txn_ok.clone(),
            co_order,
            aborted: mask,
        }
    }
}

/// Enumerate every candidate execution of the program, calling `f` once
/// per candidate; returns the number visited. Candidates stream in a
/// deterministic order: abort masks ascending, then coherence
/// permutations, then rf assignments (each in a fixed lexicographic
/// order).
///
/// The outcome engine walks through [`enumerate_candidates_pruned`],
/// under [`txmm_core::NoPrune`] for a model without an oracle. This
/// plain enumeration shares only the program skeleton and the
/// per-split projection with that walk, and is kept as the reference
/// the outcome differential tests check it against.
pub fn enumerate_candidates(
    t: &LitmusTest,
    f: &mut dyn FnMut(Candidate),
) -> Result<usize, LitmusConvertError> {
    let sk = ProgramSkeleton::from_litmus(t)?;
    let nthreads = t.threads.len();
    let nlocs = sk.max_loc().map(|l| l as usize + 1).unwrap_or(0);
    // At most MAX_EVENTS (16) single-event classes fit a program, so
    // u64 masks cover every split.
    let splits: u128 = 1u128 << sk.txns.len();
    let mut visited = 0usize;

    for mask in 0..splits {
        let mask = mask as u64;
        let MaskedProgram {
            n,
            events,
            values: _,
            po,
            addr,
            ctrl,
            data,
            rmw,
            txns,
            txn_ok,
            live_writes,
            reads,
            read_lw,
            rf_arity,
        } = MaskedProgram::project(&sk, mask);

        // Per-location coherence permutations, then per-read rf choices.
        let mut perms: Vec<Vec<usize>> = live_writes
            .iter()
            .map(|(_, ws)| (0..ws.len()).collect())
            .collect();
        loop {
            let mut rf_choice = vec![0usize; reads.len()];
            loop {
                let mut co = Rel::empty(n);
                let mut co_order = vec![Vec::new(); nlocs];
                let mut memory = vec![0u32; nlocs];
                for ((loc, ws), perm) in live_writes.iter().zip(&perms) {
                    for i in 0..perm.len() {
                        let (vi, ei) = ws[perm[i]];
                        co_order[*loc as usize].push(vi);
                        memory[*loc as usize] = vi;
                        for &pj in &perm[i + 1..] {
                            co.add(ei, ws[pj].1);
                        }
                    }
                }
                let mut rf = Rel::empty(n);
                let mut regs: Vec<Vec<u32>> =
                    (0..nthreads).map(|t| vec![0u32; sk.nregs[t]]).collect();
                for (ri, &(rnew, _loc, rold)) in reads.iter().enumerate() {
                    let v = if rf_choice[ri] == 0 {
                        0
                    } else {
                        let ws = &live_writes[read_lw[ri].expect("read of a written location")].1;
                        let (v, w) = ws[rf_choice[ri] - 1];
                        rf.add(w, rnew);
                        v
                    };
                    if let Some((tid, reg)) = sk.reg_of[rold] {
                        // Later loads into the same register win, as in
                        // the simulators' register files.
                        if sk.reg_event.get(&(tid, reg)) == Some(&rold) {
                            regs[tid][reg] = v;
                        }
                    }
                }
                let exec = Execution::from_parts(
                    events.clone(),
                    po,
                    addr,
                    ctrl,
                    data,
                    rmw,
                    rf,
                    co,
                    txns.clone(),
                );
                debug_assert!(exec.check_wf().is_ok(), "candidate must be well-formed");
                visited += 1;
                f(Candidate {
                    exec,
                    regs,
                    memory: memory.clone(),
                    txn_ok: txn_ok.clone(),
                    co_order: co_order.clone(),
                    aborted: mask,
                });
                // Next rf assignment (mixed-radix increment).
                let mut i = 0;
                loop {
                    if i == rf_choice.len() {
                        break;
                    }
                    rf_choice[i] += 1;
                    if rf_choice[i] < rf_arity[i] {
                        break;
                    }
                    rf_choice[i] = 0;
                    i += 1;
                }
                if rf_choice.iter().all(|&c| c == 0) {
                    break;
                }
            }
            // Next combination of per-location permutations
            // (mixed-radix: a wrapped location resets to the identity
            // and carries into the next).
            let mut l = 0;
            while l < perms.len() && !next_permutation(&mut perms[l]) {
                l += 1;
            }
            if l >= perms.len() {
                break;
            }
        }
    }
    Ok(visited)
}

/// Lexicographic next permutation in place; `false` (and a reset to the
/// identity) when `p` was the last one.
fn next_permutation(p: &mut [usize]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        p.sort_unstable();
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

/// Collect every candidate (see [`enumerate_candidates`]).
#[cfg(test)]
pub(crate) fn candidates(t: &LitmusTest) -> Result<Vec<Candidate>, LitmusConvertError> {
    let mut out = Vec::new();
    enumerate_candidates(t, &mut |c| out.push(c))?;
    Ok(out)
}

/// Enumerate only the candidates the model's [`PruneOracle`] cannot
/// rule out, abandoning doomed subtrees the moment a partial
/// `rf`/`co` assignment (or a whole abort split) closes a forbidden
/// cycle. Every candidate the oracle's model finds consistent **is**
/// visited — oracles are conservative, so pruning never loses an
/// allowed outcome — but `f` may also see candidates a full check
/// would reject (the oracle only runs the monotone fragment), so
/// callers must still verdict what they keep. Returns the visit count
/// and the [`PruneStats`] describing the work avoided.
///
/// The walk differs from [`enumerate_candidates`] in order (abort
/// masks *descending*, then one [`RfCoSearch`] per split: coherence
/// placements first, then rf choices, depth-first) but visits a
/// subset of the same candidates: with [`txmm_core::NoPrune`] it is
/// exactly the plain enumeration, reordered.
///
/// Abort splits are checked once at their root (`rf = co = ∅`); for
/// [event-monotone](PruneOracle::event_monotone) oracles a dead
/// split's rejection also kills every split that commits a superset
/// of its events — those masks are skipped without projecting the
/// program, which is why masks descend (a superset-committing mask is
/// numerically smaller).
pub fn enumerate_candidates_pruned(
    sk: &ProgramSkeleton,
    oracle: &dyn PruneOracle,
    f: &mut dyn FnMut(Candidate),
) -> (usize, PruneStats) {
    let mut visited = 0usize;
    let mut stats = PruneStats::default();
    let mut dead_masks: Vec<u64> = Vec::new();
    for mask in (0..1u64 << sk.txns.len()).rev() {
        // `mask | d == d` ⟺ aborted(mask) ⊆ aborted(d) ⟺ this split
        // commits every event (and transaction) the dead split `d`
        // committed, so `d`'s root rejection carries over. (The
        // `manual_contains` suggestion is a false positive: `d` is the
        // closure binding, not a free variable.)
        #[allow(clippy::manual_contains)]
        if dead_masks.iter().any(|&d| mask | d == d) {
            stats.cut(count_for_mask(sk, mask).min(u64::MAX as u128) as u64);
            continue;
        }
        let mp = MaskedProgram::project(sk, mask);
        let stages = mp.stages();
        let search = RfCoSearch::new(oracle, &stages, 1);
        let mut pc = PartialCandidate::with_oracle(mp.base_execution(), oracle);
        if !pc.viable(oracle, &mut stats) {
            stats.cut(search.size());
            if oracle.event_monotone() {
                dead_masks.push(mask);
            }
            continue;
        }
        search.run(&mut pc, &mut stats, &mut |x| {
            visited += 1;
            f(mp.candidate(sk, x, mask));
        });
    }
    (visited, stats)
}

/// A deterministic byte key identifying the *program* of a litmus test:
/// architecture, threads, instructions and dependency annotations — but
/// not the name or the postcondition. Tests that share a program (e.g.
/// the same shape asked about two final states) share outcome tables
/// under this key, which is what the serving layer caches by.
pub fn program_key(t: &LitmusTest) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(t.arch as u8);
    for thread in &t.threads {
        out.push(0xFE); // thread separator
        for instr in thread {
            match &instr.op {
                Op::Load { reg, loc, mode } => {
                    out.push(1);
                    out.push(*reg as u8);
                    out.push(*loc);
                    out.push(mode_byte(mode));
                }
                Op::Store { loc, value, mode } => {
                    out.push(2);
                    out.push(*loc);
                    out.extend_from_slice(&value.to_le_bytes());
                    out.push(mode_byte(mode));
                }
                Op::Fence(f, a) => {
                    use txmm_core::Attrs;
                    out.push(3);
                    out.push(*f as u8);
                    out.push(
                        (a.contains(Attrs::ACQ) as u8)
                            | (a.contains(Attrs::REL) as u8) << 1
                            | (a.contains(Attrs::SC) as u8) << 2
                            | (a.contains(Attrs::ATO) as u8) << 3,
                    );
                }
                Op::TxBegin { txn_id, atomic } => {
                    out.push(4);
                    out.push(*txn_id as u8);
                    out.push(*atomic as u8);
                }
                Op::TxEnd => out.push(5),
                Op::LockCall(s) => {
                    out.push(6);
                    out.extend_from_slice(s.as_bytes());
                }
            }
            for d in &instr.deps {
                out.push(0xFD);
                out.push(d.kind as u8);
                out.push(d.on as u8);
            }
        }
    }
    out
}

fn mode_byte(m: &AccessMode) -> u8 {
    (m.acquire as u8)
        | (m.release as u8) << 1
        | (m.sc as u8) << 2
        | (m.atomic as u8) << 3
        | (m.exclusive as u8) << 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_exec::litmus_from_execution;
    use crate::to_exec::execution_from_litmus;
    use txmm_core::ExecBuilder;
    use txmm_models::{catalog, Arch};

    fn sb_test() -> LitmusTest {
        litmus_from_execution("sb", &catalog::sb(None, false, false), Arch::X86)
    }

    #[test]
    fn sb_has_four_candidates() {
        // Two reads, one same-location write each: each read observes
        // the write or the initial value; no co choice.
        let t = sb_test();
        assert_eq!(candidate_count(&t).unwrap(), 4);
        let cs = candidates(&t).unwrap();
        assert_eq!(cs.len(), 4);
        for c in &cs {
            assert!(c.exec.check_wf().is_ok());
            assert_eq!(c.memory, vec![1, 1]);
            assert!(c.txn_ok.is_empty());
        }
        // All four register outcomes appear.
        let mut regs: Vec<Vec<Vec<u32>>> = cs.iter().map(|c| c.regs.clone()).collect();
        regs.sort();
        regs.dedup();
        assert_eq!(regs.len(), 4);
    }

    #[test]
    fn pinned_execution_is_among_the_candidates() {
        for x in [
            catalog::sb(None, false, false),
            catalog::mp(None, true, false),
            catalog::power_exec3(true),
            catalog::fig2(),
        ] {
            let arch = Arch::Power;
            let t = litmus_from_execution("t", &x, arch);
            let pinned = execution_from_litmus(&t).unwrap();
            let cs = candidates(&t).unwrap();
            assert!(
                cs.iter().any(|c| c.exec == pinned),
                "pinned execution must be enumerated"
            );
            // And exactly one candidate passes the pinning postcondition
            // among fully-committed candidates.
            let passing = cs
                .iter()
                .filter(|c| c.aborted == 0 && outcome_passes(c, &t))
                .count();
            assert_eq!(passing, 1, "postcondition pins one committed candidate");
        }
    }

    /// Minimal postcondition evaluation for the tests here (the real
    /// one lives on `txmm_hwsim::Outcome`, which this crate cannot
    /// depend on).
    fn outcome_passes(c: &Candidate, t: &LitmusTest) -> bool {
        use crate::ast::Check;
        t.post.iter().all(|chk| match chk {
            Check::Reg { tid, reg, value } => {
                c.regs
                    .get(*tid)
                    .and_then(|r| r.get(*reg))
                    .copied()
                    .unwrap_or(0)
                    == *value
            }
            Check::Loc { loc, value } => {
                c.memory.get(*loc as usize).copied().unwrap_or(0) == *value
            }
            Check::TxnOk { txn_id } => c.txn_ok.get(*txn_id).copied().unwrap_or(false),
            Check::CoSeq { loc, values } => {
                c.co_order
                    .get(*loc as usize)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                    == values.as_slice()
            }
        })
    }

    #[test]
    fn coherence_permutations_enumerated() {
        // Two writes to one location, no reads: the two coherence
        // orders are the only choice points.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w1 = b.write(t0, 0);
        let t1 = b.new_thread();
        let w2 = b.write(t1, 0);
        b.co(w1, w2);
        let x = b.build().unwrap();
        let t = litmus_from_execution("2w", &x, Arch::X86);
        let cs = candidates(&t).unwrap();
        assert_eq!(cs.len(), 2);
        let orders: Vec<Vec<u32>> = cs.iter().map(|c| c.co_order[0].clone()).collect();
        assert!(orders.contains(&vec![1, 2]));
        assert!(orders.contains(&vec![2, 1]));
        // Final memory follows the chosen coherence maximum.
        let mems: Vec<u32> = cs.iter().map(|c| c.memory[0]).collect();
        assert!(mems.contains(&1) && mems.contains(&2));
    }

    #[test]
    fn abort_splits_enumerated() {
        // One transaction: masks 0 (committed) and 1 (aborted). The
        // aborted split drops the transaction's events.
        let x = catalog::sb(None, true, false);
        let t = litmus_from_execution("sb+txn", &x, Arch::X86);
        let cs = candidates(&t).unwrap();
        let committed: Vec<_> = cs.iter().filter(|c| c.aborted == 0).collect();
        let aborted: Vec<_> = cs.iter().filter(|c| c.aborted == 1).collect();
        assert!(!committed.is_empty() && !aborted.is_empty());
        for c in &aborted {
            assert_eq!(c.txn_ok, vec![false]);
            assert_eq!(c.exec.txns().len(), 0);
            // The transactional thread's write never reaches memory.
            assert_eq!(c.exec.len(), 2, "only the plain thread's events remain");
        }
        for c in &committed {
            assert_eq!(c.txn_ok, vec![true]);
            assert_eq!(c.exec.txns().len(), 1);
        }
        assert_eq!(
            cs.len() as u128,
            candidate_count(&t).unwrap(),
            "count formula matches the enumeration"
        );
    }

    #[test]
    fn candidate_count_matches_enumeration_on_catalog() {
        for entry in catalog::all().into_iter().take(12) {
            let t = litmus_from_execution(entry.name, &entry.exec, Arch::Sc);
            let counted = candidate_count(&t).unwrap();
            if counted > 10_000 {
                continue;
            }
            let visited = enumerate_candidates(&t, &mut |_| {}).unwrap() as u128;
            assert_eq!(counted, visited, "{}", entry.name);
        }
    }

    /// `stores` same-location stores on one thread and `loads` loads of
    /// that location on another.
    fn wide(stores: u32, loads: usize) -> LitmusTest {
        use crate::ast::{AccessMode, Instr};
        let stores: Vec<Instr> = (1..=stores)
            .map(|v| {
                Instr::plain(Op::Store {
                    loc: 0,
                    value: v,
                    mode: AccessMode::default(),
                })
            })
            .collect();
        let loads: Vec<Instr> = (0..loads)
            .map(|r| {
                Instr::plain(Op::Load {
                    reg: r,
                    loc: 0,
                    mode: AccessMode::default(),
                })
            })
            .collect();
        LitmusTest {
            name: "wide".into(),
            arch: Arch::X86,
            threads: vec![stores, loads],
            post: vec![],
        }
    }

    #[test]
    fn oversized_counts_saturate_instead_of_overflowing() {
        // 7 same-location stores + 42 loads (7! x 8^42 ~ 2^138 would
        // exceed u128) is past the event cap: refused before counting.
        let e = candidate_count(&wide(7, 42)).unwrap_err();
        assert!(matches!(e, LitmusConvertError::TooManyEvents(49)), "{e}");
        assert_eq!(e.to_string(), "program has 49 events (max 16)");
        // The widest program within the cap counts exactly: 7! x 8^9.
        assert_eq!(
            candidate_count(&wide(7, 9)).expect("counts"),
            5040 * 8u128.pow(9)
        );
    }

    #[test]
    fn deep_transaction_masks_saturate_without_shift_overflow() {
        use crate::ast::{AccessMode, Instr};
        // 33 single-store transactions: more than a u32 mask holds, and
        // more events than the cap. Refused before any mask is formed.
        let mut instrs = Vec::new();
        for v in 1..=33u32 {
            instrs.push(Instr::plain(Op::TxBegin {
                txn_id: (v - 1) as usize,
                atomic: false,
            }));
            instrs.push(Instr::plain(Op::Store {
                loc: 0,
                value: v,
                mode: AccessMode::default(),
            }));
            instrs.push(Instr::plain(Op::TxEnd));
        }
        let t = LitmusTest {
            name: "deep".into(),
            arch: Arch::X86,
            threads: vec![instrs],
            post: vec![],
        };
        let e = candidate_count(&t).unwrap_err();
        assert!(matches!(e, LitmusConvertError::TooManyEvents(33)), "{e}");
    }

    /// A stable identity for a candidate: the full graph plus the
    /// final state, insensitive to enumeration order.
    fn cand_key(c: &Candidate) -> String {
        format!(
            "{:?}",
            (
                c.aborted,
                &c.regs,
                &c.memory,
                &c.co_order,
                &c.txn_ok,
                c.exec.rf().pairs().collect::<Vec<_>>(),
                c.exec.co().pairs().collect::<Vec<_>>(),
            )
        )
    }

    #[test]
    fn pruned_enumeration_with_noprune_is_plain_enumeration() {
        use txmm_core::NoPrune;
        for x in [
            catalog::sb(None, true, false),
            catalog::mp(None, true, false),
            catalog::fig2(),
        ] {
            let t = litmus_from_execution("t", &x, Arch::X86);
            let mut plain: Vec<String> = candidates(&t).unwrap().iter().map(cand_key).collect();
            let mut pruned = Vec::new();
            let sk = ProgramSkeleton::from_litmus(&t).unwrap();
            let (visited, stats) =
                enumerate_candidates_pruned(&sk, &NoPrune, &mut |c| pruned.push(cand_key(&c)));
            assert_eq!(visited as u128, candidate_count(&t).unwrap());
            assert_eq!(stats.subtrees_cut, 0);
            assert_eq!(stats.candidates_skipped, 0);
            plain.sort();
            pruned.sort();
            assert_eq!(plain, pruned, "NoPrune must reorder, not drop");
        }
    }

    #[test]
    fn pruning_never_loses_a_consistent_candidate() {
        use std::collections::BTreeSet;
        // Every native model doubles as its own oracle; the pruned
        // stream filtered by the full check must equal the plain
        // stream filtered the same way, and skip counts must be exact.
        for x in [
            catalog::sb(None, false, false),
            catalog::sb(None, true, true),
            catalog::mp(None, true, false),
            catalog::power_exec3(true),
        ] {
            let t = litmus_from_execution("t", &x, Arch::X86);
            let all = candidates(&t).unwrap();
            let sk = ProgramSkeleton::from_litmus(&t).unwrap();
            for m in txmm_models::registry::all_models() {
                let Some(oracle) = m.prune_oracle(true) else {
                    continue;
                };
                let mut kept = Vec::new();
                let (visited, stats) =
                    enumerate_candidates_pruned(&sk, oracle, &mut |c| kept.push(c));
                assert_eq!(
                    visited as u64 + stats.candidates_skipped,
                    all.len() as u64,
                    "{}: every candidate is visited or accounted skipped",
                    m.name()
                );
                let plain_ok: BTreeSet<String> = all
                    .iter()
                    .filter(|c| m.consistent(&c.exec))
                    .map(cand_key)
                    .collect();
                let pruned_ok: BTreeSet<String> = kept
                    .iter()
                    .filter(|c| m.consistent(&c.exec))
                    .map(cand_key)
                    .collect();
                assert_eq!(plain_ok, pruned_ok, "{}", m.name());
            }
        }
    }

    #[test]
    fn program_key_ignores_name_and_postcondition() {
        let a = sb_test();
        let mut b = sb_test();
        b.name = "other".into();
        b.post.clear();
        assert_eq!(program_key(&a), program_key(&b));
        // But not the program itself.
        let mut c = sb_test();
        c.threads[0].push(crate::ast::Instr::plain(Op::Fence(
            txmm_core::Fence::MFence,
            txmm_core::Attrs::NONE,
        )));
        assert_ne!(program_key(&a), program_key(&c));
    }
}
