//! Lock-elision checking (§8.3): validating a lock-elision library
//! against a hardware TM model by treating the library as a program
//! transformation.
//!
//! *Abstract* executions contain `L`/`U` (ordinary lock/unlock) and
//! `Lt`/`Ut` (elided) call events; the specification is the architecture
//! model plus `CROrder = acyclic(weaklift(po ∪ com, scr))`. The π
//! mapping of Table 3 expands each call into the architecture's
//! recommended spinlock sequence (and each elided region into a
//! transaction whose first action reads the lock, `TxnReadsLockFree`).
//! A counterexample is an abstract execution violating only `CROrder`
//! whose expansion is consistent on the target — mutual exclusion broken.

use std::time::{Duration, Instant};

use txmm_core::{
    weaklift, Attrs, Call, Event, EventKind, ExecBuilder, Execution, Fence, Rel, TxnClass,
};
use txmm_models::{Armv8, Model, Power, X86};

/// The four columns of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElisionTarget {
    /// x86: test-and-test-and-set lock, plain unlock.
    X86,
    /// Power: larx/stcx + ctrl(+isync) from the store-exclusive
    /// (footnote 3), sync-fenced unlock.
    Power,
    /// ARMv8: LDAXR/STXR acquire lock, STLR unlock — the broken column.
    Armv8,
    /// ARMv8 with the §1.1 repair: a DMB appended to `lock()`.
    Armv8Fixed,
}

impl ElisionTarget {
    /// The architecture model used for the concrete side.
    pub(crate) fn model(self) -> Box<dyn Model> {
        match self {
            ElisionTarget::X86 => Box::new(X86::tm()),
            ElisionTarget::Power => Box::new(Power::tm()),
            ElisionTarget::Armv8 | ElisionTarget::Armv8Fixed => Box::new(Armv8::tm()),
        }
    }

    /// A display name.
    pub fn name(self) -> &'static str {
        match self {
            ElisionTarget::X86 => "x86",
            ElisionTarget::Power => "Power",
            ElisionTarget::Armv8 => "ARMv8",
            ElisionTarget::Armv8Fixed => "ARMv8 (fixed)",
        }
    }
}

/// Does the abstract execution violate `CROrder` (while its underlying
/// data accesses stay architecture-consistent)?
pub fn violates_cr_order(x: &Execution) -> bool {
    violates_cr_order_analysis(&x.analysis())
}

/// [`violates_cr_order`] over a caller-shared analysis.
pub(crate) fn violates_cr_order_analysis(a: &txmm_core::ExecutionAnalysis<'_>) -> bool {
    !weaklift(&a.po().union(a.com()), a.scr()).is_acyclic()
}

/// One access inside a critical region of an abstract execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BodyAccess {
    write: bool,
    loc: u8,
}

/// Enumerate abstract executions: thread 0 runs an ordinary `L…U`
/// critical region, thread 1 an elided `Lt…Ut` one; each body has one or
/// two accesses over at most two data locations, with all rf/co choices.
fn abstract_candidates(visit: &mut dyn FnMut(&Execution)) {
    let bodies: Vec<Vec<BodyAccess>> = {
        let mut out = Vec::new();
        let accs = [
            BodyAccess {
                write: false,
                loc: 0,
            },
            BodyAccess {
                write: true,
                loc: 0,
            },
        ];
        for &a in &accs {
            out.push(vec![a]);
        }
        let seconds = [
            BodyAccess {
                write: false,
                loc: 0,
            },
            BodyAccess {
                write: true,
                loc: 0,
            },
            BodyAccess {
                write: false,
                loc: 1,
            },
            BodyAccess {
                write: true,
                loc: 1,
            },
        ];
        for &a in &accs {
            for &b in &seconds {
                out.push(vec![a, b]);
            }
        }
        out
    };
    for body0 in &bodies {
        for body1 in &bodies {
            // Dependency choice: an R→W pair inside a body may carry a
            // data dependency (matching `x += 2` in Example 1.1).
            for dep0 in [false, true] {
                for dep1 in [false, true] {
                    if dep0 && !(body0.len() == 2 && !body0[0].write && body0[1].write) {
                        continue;
                    }
                    if dep1 && !(body1.len() == 2 && !body1[0].write && body1[1].write) {
                        continue;
                    }
                    build_abstract(body0, body1, dep0, dep1, visit);
                }
            }
        }
    }
}

fn build_abstract(
    body0: &[BodyAccess],
    body1: &[BodyAccess],
    dep0: bool,
    dep1: bool,
    visit: &mut dyn FnMut(&Execution),
) {
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    b.call(t0, Call::Lock);
    let evs0: Vec<usize> = body0
        .iter()
        .map(|a| {
            if a.write {
                b.write(t0, a.loc)
            } else {
                b.read(t0, a.loc)
            }
        })
        .collect();
    b.call(t0, Call::Unlock);
    let t1 = b.new_thread();
    b.call(t1, Call::TLock);
    let evs1: Vec<usize> = body1
        .iter()
        .map(|a| {
            if a.write {
                b.write(t1, a.loc)
            } else {
                b.read(t1, a.loc)
            }
        })
        .collect();
    b.call(t1, Call::TUnlock);
    if dep0 {
        b.data(evs0[0], evs0[1]);
    }
    if dep1 {
        b.data(evs1[0], evs1[1]);
    }
    let base = b.build_unchecked();

    // Enumerate rf per read and co per location over the data accesses.
    let reads: Vec<usize> = (0..base.len())
        .filter(|&e| base.event(e).is_read())
        .collect();
    let writes: Vec<usize> = (0..base.len())
        .filter(|&e| base.event(e).is_write())
        .collect();
    let rf_opts: Vec<Vec<Option<usize>>> = reads
        .iter()
        .map(|&r| {
            let mut o = vec![None];
            for &w in &writes {
                if base.event(w).loc == base.event(r).loc {
                    o.push(Some(w));
                }
            }
            o
        })
        .collect();
    let mut rf_choice = vec![0usize; reads.len()];
    loop {
        // co permutations per loc.
        let locs: Vec<u8> = {
            let mut l: Vec<u8> = base.events().iter().filter_map(|e| e.loc).collect();
            l.sort_unstable();
            l.dedup();
            l
        };
        let co_perms: Vec<Vec<Vec<usize>>> = locs
            .iter()
            .map(|&l| {
                let ws: Vec<usize> = writes
                    .iter()
                    .copied()
                    .filter(|&w| base.event(w).loc == Some(l))
                    .collect();
                perms(&ws)
            })
            .collect();
        let mut idx = vec![0usize; co_perms.len()];
        loop {
            let mut x = base.clone();
            let n = x.len();
            let mut rf = Rel::empty(n);
            for (i, &r) in reads.iter().enumerate() {
                if let Some(w) = rf_opts[i][rf_choice[i]] {
                    rf.add(w, r);
                }
            }
            let mut co = Rel::empty(n);
            for (li, perm) in idx.iter().enumerate() {
                let p = &co_perms[li][*perm];
                for i in 0..p.len() {
                    for j in (i + 1)..p.len() {
                        co.add(p[i], p[j]);
                    }
                }
            }
            x = Execution::from_parts(
                x.events().to_vec(),
                *x.po(),
                *x.addr(),
                *x.ctrl(),
                *x.data(),
                *x.rmw(),
                rf,
                co,
                vec![],
            );
            if x.check_wf().is_ok() {
                visit(&x);
            }
            // Advance co odometer.
            let mut i = 0;
            loop {
                if i == idx.len() {
                    break;
                }
                idx[i] += 1;
                if idx[i] < co_perms[i].len() {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
            if idx.iter().all(|&v| v == 0) {
                break;
            }
        }
        // Advance rf odometer.
        let mut i = 0;
        loop {
            if i == rf_choice.len() {
                return;
            }
            rf_choice[i] += 1;
            if rf_choice[i] < rf_opts[i].len() {
                break;
            }
            rf_choice[i] = 0;
            i += 1;
        }
    }
}

fn perms(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &f) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in perms(&rest) {
            p.insert(0, f);
            out.push(p);
        }
    }
    out
}

/// The lock variable gets the first location index after the data
/// locations (`LockVar`: fresh, only touched by introduced events).
fn lock_loc(x: &Execution) -> u8 {
    x.locations().max().map(|l| l + 1).unwrap_or(0)
}

/// Expand an abstract execution into concrete skeletons per Table 3,
/// enumerating the existential parts (rf/co on the lock variable).
///
/// Returns all well-formed concrete candidates; the caller checks each
/// against the architecture model.
pub fn expand(x: &Execution, target: ElisionTarget) -> Vec<Execution> {
    let m = lock_loc(x);
    let mut events: Vec<Event> = Vec::new();
    let mut map_main = vec![usize::MAX; x.len()];
    let mut ctrl_pairs: Vec<(usize, usize)> = Vec::new();
    let mut rmw_pairs: Vec<(usize, usize)> = Vec::new();
    let mut data_pairs: Vec<(usize, usize)> = Vec::new();
    let mut addr_pairs: Vec<(usize, usize)> = Vec::new();
    let mut txn_classes: Vec<Vec<usize>> = Vec::new();
    // Lock-variable reads needing rf enumeration, and whether they are
    // `Lt` reads (TxnReadsLockFree) — plus writes to m with a tag for
    // whether they came from `L` (lock-taken) or `U` (lock-free).
    let mut m_reads: Vec<(usize, bool)> = Vec::new();
    let mut m_lock_writes: Vec<usize> = Vec::new();
    let mut m_unlock_writes: Vec<usize> = Vec::new();

    for t in 0..x.num_threads() {
        let mut cur_txn: Option<Vec<usize>> = None;
        // ctrl sources pending: (source new id) — extends to all later
        // events of the thread.
        let mut ctrl_sources: Vec<usize> = Vec::new();
        for e in x.thread_events(t as u8) {
            let ev = x.event(e);
            let push = |events: &mut Vec<Event>, ev2: Event, txn: &mut Option<Vec<usize>>| {
                let id = events.len();
                events.push(ev2);
                if let Some(txn) = txn.as_mut() {
                    txn.push(id);
                }
                id
            };
            match ev.kind {
                EventKind::Call(Call::Lock) => {
                    match target {
                        ElisionTarget::X86 => {
                            let tst = push(&mut events, Event::read(ev.tid, m), &mut cur_txn);
                            m_reads.push((tst, false));
                            let r = push(&mut events, Event::read(ev.tid, m), &mut cur_txn);
                            m_reads.push((r, false));
                            let w = push(&mut events, Event::write(ev.tid, m), &mut cur_txn);
                            rmw_pairs.push((r, w));
                            ctrl_pairs.push((r, w));
                            m_lock_writes.push(w);
                        }
                        ElisionTarget::Power => {
                            let r = push(&mut events, Event::read(ev.tid, m), &mut cur_txn);
                            m_reads.push((r, false));
                            let w = push(&mut events, Event::write(ev.tid, m), &mut cur_txn);
                            rmw_pairs.push((r, w));
                            // ctrl from the load to the store-exclusive,
                            // then ctrl from the store-exclusive to the
                            // critical region (footnote 3), via isync.
                            ctrl_pairs.push((r, w));
                            ctrl_sources.push(w);
                            push(
                                &mut events,
                                Event::fence(ev.tid, Fence::Isync),
                                &mut cur_txn,
                            );
                            m_lock_writes.push(w);
                        }
                        ElisionTarget::Armv8 | ElisionTarget::Armv8Fixed => {
                            let r = push(
                                &mut events,
                                Event::read(ev.tid, m).with_attrs(Attrs::ACQ),
                                &mut cur_txn,
                            );
                            m_reads.push((r, false));
                            let w = push(&mut events, Event::write(ev.tid, m), &mut cur_txn);
                            rmw_pairs.push((r, w));
                            ctrl_pairs.push((r, w));
                            if target == ElisionTarget::Armv8Fixed {
                                push(&mut events, Event::fence(ev.tid, Fence::Dmb), &mut cur_txn);
                            }
                            m_lock_writes.push(w);
                        }
                    }
                }
                EventKind::Call(Call::Unlock) => match target {
                    ElisionTarget::X86 => {
                        let w = push(&mut events, Event::write(ev.tid, m), &mut cur_txn);
                        m_unlock_writes.push(w);
                    }
                    ElisionTarget::Power => {
                        push(&mut events, Event::fence(ev.tid, Fence::Sync), &mut cur_txn);
                        let w = push(&mut events, Event::write(ev.tid, m), &mut cur_txn);
                        m_unlock_writes.push(w);
                    }
                    ElisionTarget::Armv8 | ElisionTarget::Armv8Fixed => {
                        let w = push(
                            &mut events,
                            Event::write(ev.tid, m).with_attrs(Attrs::REL),
                            &mut cur_txn,
                        );
                        m_unlock_writes.push(w);
                    }
                },
                EventKind::Call(Call::TLock) => {
                    // The transaction opens; its first action reads the
                    // lock variable.
                    cur_txn = Some(Vec::new());
                    let r = push(&mut events, Event::read(ev.tid, m), &mut cur_txn);
                    m_reads.push((r, true));
                    ctrl_sources.push(r);
                }
                EventKind::Call(Call::TUnlock) => {
                    // Ut vanishes; the transaction closes.
                    if let Some(evs) = cur_txn.take() {
                        txn_classes.push(evs);
                    }
                    ctrl_sources.clear();
                }
                _ => {
                    let id = push(&mut events, *ev, &mut cur_txn);
                    map_main[e] = id;
                    for &src in &ctrl_sources {
                        ctrl_pairs.push((src, id));
                    }
                }
            }
        }
    }

    // Dependencies between data accesses carry over.
    for (a, b2) in x.data().pairs() {
        data_pairs.push((map_main[a], map_main[b2]));
    }
    for (a, b2) in x.addr().pairs() {
        addr_pairs.push((map_main[a], map_main[b2]));
    }

    let n = events.len();
    let mut po = Rel::empty(n);
    for a in 0..n {
        for b2 in (a + 1)..n {
            if events[a].tid == events[b2].tid {
                po.add(a, b2);
            }
        }
    }
    let base_co = {
        let mut co = Rel::empty(n);
        for (a, b2) in x.co().pairs() {
            co.add(map_main[a], map_main[b2]);
        }
        co
    };
    let base_rf = {
        let mut rf = Rel::empty(n);
        for (a, b2) in x.rf().pairs() {
            rf.add(map_main[a], map_main[b2]);
        }
        rf
    };

    // Existential completion on the lock variable: rf per m-read
    // (TxnReadsLockFree: Lt reads never observe an L write) and co over
    // the m-writes.
    let m_writes: Vec<usize> = m_lock_writes
        .iter()
        .chain(m_unlock_writes.iter())
        .copied()
        .collect();
    let rf_opts: Vec<Vec<Option<usize>>> = m_reads
        .iter()
        .map(|&(_, is_lt)| {
            let mut o: Vec<Option<usize>> = vec![None];
            for &w in &m_writes {
                if is_lt && m_lock_writes.contains(&w) {
                    continue; // TxnReadsLockFree
                }
                o.push(Some(w));
            }
            o
        })
        .collect();

    let mut out = Vec::new();
    let co_options = perms(&m_writes);
    let mut rf_choice = vec![0usize; m_reads.len()];
    loop {
        for co_perm in &co_options {
            let mut rf = base_rf;
            for (i, &(r, _)) in m_reads.iter().enumerate() {
                if let Some(w) = rf_opts[i][rf_choice[i]] {
                    rf.add(w, r);
                }
            }
            let mut co = base_co;
            for i in 0..co_perm.len() {
                for j in (i + 1)..co_perm.len() {
                    co.add(co_perm[i], co_perm[j]);
                }
            }
            let mut ctrl = Rel::empty(n);
            for &(a, b2) in &ctrl_pairs {
                ctrl.add(a, b2);
            }
            let mut data = Rel::empty(n);
            for &(a, b2) in &data_pairs {
                data.add(a, b2);
            }
            let mut addr = Rel::empty(n);
            for &(a, b2) in &addr_pairs {
                addr.add(a, b2);
            }
            let mut rmw = Rel::empty(n);
            for &(a, b2) in &rmw_pairs {
                rmw.add(a, b2);
            }
            let y = Execution::from_parts(
                events.clone(),
                po,
                addr,
                ctrl,
                data,
                rmw,
                rf,
                co,
                txn_classes
                    .iter()
                    .map(|evs| TxnClass {
                        events: evs.clone(),
                        atomic: false,
                    })
                    .collect(),
            );
            if y.check_wf().is_ok() {
                out.push(y);
            }
        }
        let mut i = 0;
        loop {
            if i == rf_choice.len() {
                return out;
            }
            rf_choice[i] += 1;
            if rf_choice[i] < rf_opts[i].len() {
                break;
            }
            rf_choice[i] = 0;
            i += 1;
        }
    }
}

/// The outcome of a lock-elision soundness check.
pub struct ElisionResult {
    /// A violating pair: abstract execution (CROrder-inconsistent) and
    /// its consistent concrete expansion.
    pub counterexample: Option<(Execution, Execution)>,
    /// Abstract candidates examined.
    pub abstract_candidates: usize,
    /// Concrete expansions checked.
    pub concrete_checked: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Whole (bounded) space covered?
    pub complete: bool,
}

/// Check lock elision on one target (the §8.3 experiment).
pub fn check_lock_elision(target: ElisionTarget, budget: Option<Duration>) -> ElisionResult {
    let model = target.model();
    let start = Instant::now();
    let mut examined = 0usize;
    let mut concrete_checked = 0usize;
    let mut counterexample = None;
    let mut complete = true;

    abstract_candidates(&mut |x| {
        if counterexample.is_some() {
            return;
        }
        if let Some(b) = budget {
            if start.elapsed() > b {
                complete = false;
                return;
            }
        }
        examined += 1;
        // The abstract execution must break mutual exclusion (CROrder)
        // while being architecture-consistent on its own accesses.
        let a = x.analysis();
        if !violates_cr_order_analysis(&a) {
            return;
        }
        if !model.consistent_analysis(&a) {
            return;
        }
        for y in expand(x, target) {
            concrete_checked += 1;
            if model.consistent(&y) {
                counterexample = Some((x.clone(), y));
                return;
            }
        }
    });

    ElisionResult {
        counterexample,
        abstract_candidates: examined,
        concrete_checked,
        elapsed: start.elapsed(),
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_models::catalog;

    #[test]
    fn abstract_space_nonempty() {
        let mut n = 0;
        abstract_candidates(&mut |x| {
            assert!(x.check_wf().is_ok());
            n += 1;
        });
        assert!(n > 100, "got {n}");
    }

    #[test]
    fn fig10_abstract_violates_cr_order() {
        let x = catalog::elision_abstract();
        assert!(violates_cr_order(&x));
        assert!(
            Armv8::tm().consistent(&x),
            "plain model ignores call events"
        );
    }

    #[test]
    fn expansion_contains_example_1_1() {
        // Expanding Fig. 10's abstract execution for ARMv8 must produce
        // (a completion equal to) the Example 1.1 concrete execution.
        let x = catalog::elision_abstract();
        let ys = expand(&x, ElisionTarget::Armv8);
        assert!(!ys.is_empty());
        let target = catalog::armv8_elision(false);
        let key = txmm_synth::canon_key(&target);
        assert!(
            ys.iter().any(|y| txmm_synth::canon_key(y) == key),
            "Example 1.1 must be among the {} completions",
            ys.len()
        );
    }

    #[test]
    fn armv8_elision_unsound() {
        // Table 2: ARMv8 lock elision has a counterexample, found fast.
        let r = check_lock_elision(ElisionTarget::Armv8, None);
        let (x, y) = r.counterexample.expect("ARMv8 elision is unsound");
        assert!(violates_cr_order(&x));
        assert!(Armv8::tm().consistent(&y));
    }

    #[test]
    fn armv8_fixed_elision_sound() {
        // The DMB repair: no counterexample in the bounded space.
        let r = check_lock_elision(ElisionTarget::Armv8Fixed, None);
        assert!(r.counterexample.is_none(), "DMB repair restores soundness");
        assert!(r.complete);
        assert!(r.concrete_checked > 0);
    }

    #[test]
    fn x86_elision_sound() {
        let r = check_lock_elision(ElisionTarget::X86, None);
        assert!(
            r.counterexample.is_none(),
            "x86 elision is sound in the bounded space"
        );
        assert!(r.complete);
    }

    #[test]
    fn power_elision_finds_candidate_pair() {
        // The paper's check timed out (Table 2: Unknown). Under Fig. 6
        // *as printed*, our exhaustive bounded search finds a candidate
        // pair — see the README's Fidelity section (the operational
        // Power machine does NOT exhibit it, pointing at a gap in the
        // printed axioms rather than a real Power bug).
        let r = check_lock_elision(ElisionTarget::Power, None);
        assert!(r.counterexample.is_some());
    }
}
