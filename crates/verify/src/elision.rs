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

use std::iter::once;
use std::time::{Duration, Instant};

use txmm_core::incr::{NoPrune, PartialCandidate, PruneStats, RfCoSearch, Stage};
use txmm_core::{weaklift, Call, EventId, EventKind, ExecBuilder, Execution, Fence, Loc};
use txmm_models::{Armv8, Model, Power, X86};

use crate::CheckResult;

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
    // Each read's source (last read first), then each location's
    // coherence order (last location first).
    let writes_at = |loc| -> Vec<EventId> {
        (0..base.len())
            .filter(|&w| base.event(w).is_write() && base.event(w).loc == loc)
            .collect()
    };
    let mut stages: Vec<Stage> = (0..base.len())
        .rev()
        .filter(|&r| base.event(r).is_read())
        .map(|r| Stage::rf(r, &writes_at(base.event(r).loc)))
        .collect();
    let locs: Vec<Loc> = base.locations().collect();
    stages.extend(locs.into_iter().rev().map(|l| Stage::Co {
        writes: writes_at(Some(l)),
    }));
    completions(base, &stages, visit);
}

/// Every rf/co completion of `base` over `stages`, in stage order and
/// unpruned. The edges already in `base` stay fixed.
fn completions(base: Execution, stages: &[Stage], visit: &mut dyn FnMut(&Execution)) {
    let mut pc = PartialCandidate::with_oracle(base, &NoPrune);
    let search = RfCoSearch::new(&NoPrune, stages, 1);
    search.run(&mut pc, &mut PruneStats::default(), &mut |x| {
        debug_assert!(x.check_wf().is_ok(), "completions are well formed");
        visit(x);
    });
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
    let armv8 = matches!(target, ElisionTarget::Armv8 | ElisionTarget::Armv8Fixed);
    let mut b = ExecBuilder::new();
    let mut map_main = vec![usize::MAX; x.len()];
    // Lock-variable reads needing rf enumeration, and whether they are
    // `Lt` reads (TxnReadsLockFree) — plus writes to m from `L`
    // (lock-taken) and from `U` (lock-free).
    let mut m_reads: Vec<(EventId, bool)> = Vec::new();
    let mut m_lock_writes: Vec<EventId> = Vec::new();
    let mut m_unlock_writes: Vec<EventId> = Vec::new();

    for t in 0..x.num_threads() {
        // The open transaction's first event.
        let mut txn_start: Option<EventId> = None;
        // ctrl sources pending: extends to all later events of the
        // thread.
        let mut ctrl_sources: Vec<EventId> = Vec::new();
        for e in x.thread_events(t as u8) {
            let ev = *x.event(e);
            let tid = ev.tid;
            match ev.kind {
                EventKind::Call(Call::Lock) => {
                    if target == ElisionTarget::X86 {
                        // Test-and-test-and-set: a plain test read first.
                        m_reads.push((b.read(tid, m), false));
                    }
                    let r = if armv8 {
                        b.read_acq(tid, m)
                    } else {
                        b.read(tid, m)
                    };
                    m_reads.push((r, false));
                    let w = b.write(tid, m);
                    b.rmw(r, w).ctrl(r, w);
                    m_lock_writes.push(w);
                    match target {
                        ElisionTarget::Power => {
                            // ctrl from the store-exclusive to the
                            // critical region (footnote 3), via isync.
                            ctrl_sources.push(w);
                            b.fence(tid, Fence::Isync);
                        }
                        ElisionTarget::Armv8Fixed => {
                            b.fence(tid, Fence::Dmb);
                        }
                        ElisionTarget::X86 | ElisionTarget::Armv8 => {}
                    }
                }
                EventKind::Call(Call::Unlock) => {
                    if target == ElisionTarget::Power {
                        b.fence(tid, Fence::Sync);
                    }
                    let w = if armv8 {
                        b.write_rel(tid, m)
                    } else {
                        b.write(tid, m)
                    };
                    m_unlock_writes.push(w);
                }
                EventKind::Call(Call::TLock) => {
                    // The transaction opens; its first action reads the
                    // lock variable.
                    let r = b.read(tid, m);
                    m_reads.push((r, true));
                    ctrl_sources.push(r);
                    txn_start = Some(r);
                }
                EventKind::Call(Call::TUnlock) => {
                    // Ut vanishes; the transaction closes.
                    if let Some(start) = txn_start.take() {
                        b.txn(&(start..b.next_id()).collect::<Vec<_>>());
                    }
                    ctrl_sources.clear();
                }
                _ => {
                    let id = b.push(ev);
                    map_main[e] = id;
                    for &src in &ctrl_sources {
                        b.ctrl(src, id);
                    }
                }
            }
        }
    }

    // Dependencies between data accesses, and their rf/co, carry over.
    for (a, c) in x.data().pairs() {
        b.data(map_main[a], map_main[c]);
    }
    for (a, c) in x.addr().pairs() {
        b.addr(map_main[a], map_main[c]);
    }
    for (w, r) in x.rf().pairs() {
        b.rf(map_main[w], map_main[r]);
    }
    for (a, c) in x.co().pairs() {
        b.co(map_main[a], map_main[c]);
    }

    // Existential completion on the lock variable: rf per m-read, last
    // read first (TxnReadsLockFree: Lt reads never observe an L write),
    // then co over the m-writes.
    let m_writes: Vec<EventId> = m_lock_writes
        .iter()
        .chain(&m_unlock_writes)
        .copied()
        .collect();
    let mut stages: Vec<Stage> = m_reads
        .iter()
        .rev()
        .map(|&(r, is_lt)| Stage::Rf {
            read: r,
            sources: once(None)
                .chain(
                    if is_lt { &m_unlock_writes } else { &m_writes }
                        .iter()
                        .map(|&w| Some(w)),
                )
                .collect(),
            loc_writes: m_writes.iter().copied().collect(),
        })
        .collect();
    stages.push(Stage::Co { writes: m_writes });
    let mut out = Vec::new();
    completions(b.build_unchecked(), &stages, &mut |y| out.push(y.clone()));
    out
}

/// The outcome of a lock-elision soundness check: a violating pair is
/// an abstract execution (CROrder-inconsistent) and its consistent
/// concrete expansion, and `checked` counts the abstract candidates
/// that met the hypotheses (they violate `CROrder` and are consistent
/// on the target).
pub type ElisionResult = CheckResult<(Execution, Execution)>;

/// Check lock elision on one target (the §8.3 experiment).
pub fn check_lock_elision(target: ElisionTarget, budget: Option<Duration>) -> ElisionResult {
    let model = target.model();
    let start = Instant::now();
    let mut checked = 0usize;
    let mut counterexample = None;
    let mut complete = true;

    abstract_candidates(&mut |x| {
        if counterexample.is_some() || !complete {
            return;
        }
        if budget.is_some_and(|b| start.elapsed() >= b) {
            complete = false;
            return;
        }
        // The abstract execution must break mutual exclusion (CROrder)
        // while being architecture-consistent on its own accesses.
        let a = x.analysis();
        if !violates_cr_order_analysis(&a) || !model.consistent_analysis(&a) {
            return;
        }
        checked += 1;
        counterexample = expand(x, target)
            .into_iter()
            .find(|y| model.consistent(y))
            .map(|y| (x.clone(), y));
    });

    CheckResult {
        counterexample,
        checked,
        elapsed: start.elapsed(),
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_models::catalog;
    use txmm_synth::canon_key;

    /// FNV-1a over canonical keys in order, each length-prefixed.
    fn digest(keys: impl Iterator<Item = Vec<u8>>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for key in keys {
            for b in (key.len() as u32).to_le_bytes().into_iter().chain(key) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn abstract_space_nonempty() {
        let mut keys = Vec::new();
        abstract_candidates(&mut |x| {
            assert!(x.check_wf().is_ok());
            keys.push(canon_key(x));
        });
        let n = keys.len();
        assert!(n > 100, "got {n}");
        assert_eq!((n, digest(keys.into_iter())), (851, 0x1b5b_6c75_ed1e_79e8));
    }

    /// Per target: the expansions of the whole abstract space (count and
    /// digest, in order), and `check_lock_elision`'s `checked` count and
    /// counterexample (the digest of its abstract and concrete keys).
    #[test]
    fn expansions_and_counterexamples_are_pinned() {
        for (target, expansions, expansion_digest, checked, cex) in [
            (ElisionTarget::X86, 30_636, 0x1e46_dd76_d7ab_a473, 128, None),
            (
                ElisionTarget::Power,
                10_212,
                0xaad5_2981_a37c_19d7,
                7,
                Some(0x3f34_1d65_cb7c_7f5a),
            ),
            (
                ElisionTarget::Armv8,
                10_212,
                0x2d8c_134a_2ea4_5fa7,
                7,
                Some(0xb6a6_79d4_7cf9_21a3),
            ),
            (
                ElisionTarget::Armv8Fixed,
                10_212,
                0x3c25_4a82_c714_8af1,
                128,
                None,
            ),
        ] {
            let mut keys = Vec::new();
            abstract_candidates(&mut |x| keys.extend(expand(x, target).iter().map(canon_key)));
            let got = (keys.len(), digest(keys.into_iter()));
            assert_eq!(got, (expansions, expansion_digest), "{}", target.name());
            let r = check_lock_elision(target, None);
            let got_cex = r
                .counterexample
                .map(|(x, y)| digest([canon_key(&x), canon_key(&y)].into_iter()));
            assert_eq!((r.checked, got_cex), (checked, cex), "{}", target.name());
            assert!(r.complete);
        }
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
        assert!(r.checked > 0);
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
