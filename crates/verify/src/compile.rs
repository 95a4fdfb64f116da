//! Compilation of C++ (with transactions) to hardware (§8.2).
//!
//! The mapping is the standard one (Wickerson et al., extended with
//! transactions): each C++ event becomes a target event, possibly with
//! leading/trailing fences; the π relation preserves `po`, dependencies,
//! `rf`, `co` and — the paper's extension — all `stxn` edges.
//!
//! Soundness is checked by bounded search (one [`Walk::search`]) for a
//! pair `(X, Y)` with `X` C++-inconsistent (and race-free), `Y = map(X)`
//! target-consistent.

use std::time::Duration;

use txmm_core::{Attrs, Event, EventKind, Execution, Fence, Rel, TxnClass};
use txmm_models::{Arch, Cpp, Model};
use txmm_synth::{EnumConfig, Probe, Walk};

use crate::CheckResult;

/// Emit the target instruction sequence for one C++ event.
///
/// Returns `(pre, main, post)` event templates (thread ids filled in by
/// the caller) and whether the main access keeps a ctrl+isync tail
/// (Power acquire idiom).
fn map_event(ev: &Event, target: Arch) -> (Vec<Event>, Event, Vec<Event>, bool) {
    let tid = ev.tid;
    let mut pre = Vec::new();
    let mut post = Vec::new();
    let mut ctrl_isync_tail = false;
    let mut main = *ev;
    main.attrs = Attrs::NONE;
    match ev.kind {
        EventKind::Read => {
            let acq = ev.attrs.contains(Attrs::ACQ);
            let sc = ev.attrs.contains(Attrs::SC);
            match target {
                Arch::X86 => {}
                Arch::Power => {
                    if sc {
                        pre.push(Event::fence(tid, Fence::Sync));
                    }
                    if acq || sc {
                        post.push(Event::fence(tid, Fence::Isync));
                        ctrl_isync_tail = true;
                    }
                }
                Arch::Armv8 => {
                    if acq || sc {
                        main.attrs = Attrs::ACQ;
                    }
                }
                _ => unreachable!("hardware targets only"),
            }
        }
        EventKind::Write => {
            let rel = ev.attrs.contains(Attrs::REL);
            let sc = ev.attrs.contains(Attrs::SC);
            match target {
                Arch::X86 => {
                    if sc {
                        post.push(Event::fence(tid, Fence::MFence));
                    }
                }
                Arch::Power => {
                    if sc {
                        pre.push(Event::fence(tid, Fence::Sync));
                    } else if rel {
                        pre.push(Event::fence(tid, Fence::Lwsync));
                    }
                }
                Arch::Armv8 => {
                    if rel || sc {
                        main.attrs = Attrs::REL;
                    }
                }
                _ => unreachable!(),
            }
        }
        EventKind::Fence(Fence::CppFence) => {
            let sc = ev.attrs.contains(Attrs::SC);
            let acq_only = ev.attrs.contains(Attrs::ACQ) && !ev.attrs.contains(Attrs::REL);
            main = match target {
                Arch::X86 => {
                    // Only SC fences emit code on x86; weaker fences are
                    // compiler-only. We keep a no-op placeholder as the
                    // main event cannot vanish; use MFENCE for SC and
                    // model the others as nothing by emitting MFENCE
                    // only for SC.
                    if sc {
                        Event::fence(tid, Fence::MFence)
                    } else {
                        // Placeholder handled by caller (dropped).
                        Event::fence(tid, Fence::MFence)
                    }
                }
                Arch::Power => {
                    if sc {
                        Event::fence(tid, Fence::Sync)
                    } else {
                        Event::fence(tid, Fence::Lwsync)
                    }
                }
                Arch::Armv8 => {
                    if acq_only {
                        Event::fence(tid, Fence::DmbLd)
                    } else {
                        Event::fence(tid, Fence::Dmb)
                    }
                }
                _ => unreachable!(),
            };
        }
        _ => {}
    }
    (pre, main, post, ctrl_isync_tail)
}

/// Should this C++ fence vanish on the target (x86 non-SC fences)?
fn fence_vanishes(ev: &Event, target: Arch) -> bool {
    matches!(ev.kind, EventKind::Fence(Fence::CppFence))
        && target == Arch::X86
        && !ev.attrs.contains(Attrs::SC)
}

/// Map a C++ execution to the target architecture, preserving `po`,
/// dependencies, `rf`, `co` and `stxn` (the π relation of §8.2).
pub fn map_execution(x: &Execution, target: Arch) -> Execution {
    let mut events: Vec<Event> = Vec::new();
    let mut main_of = vec![usize::MAX; x.len()];
    // (thread, old event) -> emitted new ids, in order.
    let mut emitted: Vec<Vec<usize>> = vec![Vec::new(); x.len()];
    let mut acq_tails: Vec<usize> = Vec::new(); // new ids of Power acquire loads

    for t in 0..x.num_threads() {
        for e in x.thread_events(t as u8) {
            let ev = x.event(e);
            if fence_vanishes(ev, target) {
                // Identity-less: the fence compiles to nothing. Keep
                // main_of unset; dependency/txn bookkeeping skips it.
                continue;
            }
            let (pre, main, post, tail) = map_event(ev, target);
            for p in pre {
                emitted[e].push(events.len());
                events.push(p);
            }
            main_of[e] = events.len();
            emitted[e].push(events.len());
            if tail {
                acq_tails.push(events.len());
            }
            events.push(main);
            for p in post {
                emitted[e].push(events.len());
                events.push(p);
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
    let remap = |rel: &Rel| -> Rel {
        let mut out = Rel::empty(n);
        for (a, b) in rel.pairs() {
            if main_of[a] != usize::MAX && main_of[b] != usize::MAX {
                out.add(main_of[a], main_of[b]);
            }
        }
        out
    };
    let mut ctrl = remap(x.ctrl());
    // Power acquire idiom: ctrl+isync from the load to every later event
    // of its thread.
    for &l in &acq_tails {
        for b in (l + 1)..n {
            if events[b].tid == events[l].tid {
                ctrl.add(l, b);
            }
        }
    }
    // Transactions: every emitted event of a member belongs to the txn.
    let txns: Vec<TxnClass> = x
        .txns()
        .iter()
        .map(|t| TxnClass {
            events: t
                .events
                .iter()
                .flat_map(|&e| emitted[e].iter().copied())
                .collect(),
            atomic: false,
        })
        .filter(|t| !t.events.is_empty())
        .collect();

    Execution::from_parts(
        events,
        po,
        remap(x.addr()),
        ctrl,
        remap(x.data()),
        remap(x.rmw()),
        remap(x.rf()),
        remap(x.co()),
        txns,
    )
}

/// The outcome of a bounded compilation-soundness check: a violating
/// pair `(X, map(X))`; `checked` counts the race-free candidates.
pub type CompileResult = CheckResult<(Execution, Execution)>;

/// The C++ space a compilation check walks at `events` events.
pub fn compile_cfg(events: usize) -> EnumConfig {
    EnumConfig {
        max_threads: 2,
        max_locs: 2,
        fences: false,
        rmws: false,
        attrs: true,
        ..EnumConfig::hw(Arch::Cpp, events)
    }
}

fn compile_target(target: Arch) -> Box<dyn Model> {
    match target {
        Arch::X86 => Box::new(txmm_models::X86::tm()),
        Arch::Power => Box::new(txmm_models::Power::tm()),
        Arch::Armv8 => Box::new(txmm_models::Armv8::tm()),
        _ => panic!("hardware targets only"),
    }
}

/// Does mapping `x` to the target expose an unsound compilation? Only
/// C++-inconsistent, race-free candidates count as checked.
fn compile_probe(
    cpp: &Cpp,
    tgt: &dyn Model,
    target: Arch,
    x: &Execution,
) -> Probe<(Execution, Execution)> {
    let a = x.analysis();
    if cpp.consistent_analysis(&a) || cpp.racy_analysis(&a) {
        return Probe::Skip;
    }
    let y = map_execution(x, target);
    debug_assert!(y.check_wf().is_ok());
    if tgt.consistent(&y) {
        Probe::Stop((x.clone(), y))
    } else {
        Probe::Pass
    }
}

/// Search the C++ candidates of `walk` (see [`compile_cfg`]) for an
/// unsound compilation: `X` inconsistent and race-free in C++, `map(X)`
/// consistent on the target. The earliest counterexample in emission
/// order is reported, at any worker count.
pub fn check_compilation(walk: &Walk, target: Arch, budget: Option<Duration>) -> CompileResult {
    assert_eq!(
        walk.config().arch,
        Arch::Cpp,
        "compilation maps C++ executions"
    );
    let cpp = Cpp::tm();
    let tgt = compile_target(target);
    walk.search(
        budget,
        |_| (),
        |x, _| compile_probe(&cpp, tgt.as_ref(), target, x),
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::ExecBuilder;

    fn mp_rel_acq() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        let wy = b.write_ato(t0, 1, Attrs::REL);
        let t1 = b.new_thread();
        let ry = b.read_ato(t1, 1, Attrs::ACQ);
        let _rx = b.read(t1, 0);
        b.rf(wy, ry);
        b.build().unwrap()
    }

    #[test]
    fn mapping_wellformed_and_valid() {
        let x = mp_rel_acq();
        for target in [Arch::X86, Arch::Power, Arch::Armv8] {
            let y = map_execution(&x, target);
            assert!(y.check_wf().is_ok(), "{target:?}");
            assert!(target.validate(&y).is_ok(), "{target:?}");
        }
    }

    #[test]
    fn armv8_mapping_uses_acq_rel() {
        let y = map_execution(&mp_rel_acq(), Arch::Armv8);
        assert_eq!(y.len(), 4, "no fences inserted");
        assert_eq!(y.acq().len(), 1);
        assert_eq!(y.rel_events().len(), 1);
    }

    #[test]
    fn power_mapping_inserts_lwsync_and_ctrlisync() {
        let y = map_execution(&mp_rel_acq(), Arch::Power);
        assert_eq!(y.fence_events(Fence::Lwsync).len(), 1);
        assert_eq!(y.fence_events(Fence::Isync).len(), 1);
        // The acquire load gains ctrl edges past the isync.
        assert!(!y.ctrl().is_empty());
        // The mapped execution is forbidden on Power, like the source in
        // C++.
        assert!(!txmm_models::Power::tm().consistent(&y));
        assert!(!Cpp::tm().consistent(&mp_rel_acq()));
    }

    #[test]
    fn x86_mapping_forbidden_by_tso() {
        let y = map_execution(&mp_rel_acq(), Arch::X86);
        assert_eq!(y.len(), 4, "release/acquire are free on x86");
        assert!(!txmm_models::X86::tm().consistent(&y));
    }

    #[test]
    fn sc_store_gets_trailing_mfence_on_x86() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.write_ato(t0, 0, Attrs::SC);
        b.read_ato(t0, 1, Attrs::SC);
        let x = b.build().unwrap();
        let y = map_execution(&x, Arch::X86);
        assert_eq!(y.fence_events(Fence::MFence).len(), 1);
        let order = y.thread_events(0);
        assert!(y.event(order.get(0)).is_write());
        assert!(y.event(order.get(1)).kind.is_fence());
        assert!(y.event(order.get(2)).is_read());
    }

    #[test]
    fn txns_map_to_txns_with_internal_fences() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write_ato(t0, 0, Attrs::REL);
        let r = b.read(t0, 1);
        b.txn(&[w, r]);
        let x = b.build().unwrap();
        let y = map_execution(&x, Arch::Power);
        assert_eq!(y.txns().len(), 1);
        // lwsync emitted inside the transaction belongs to it.
        assert_eq!(y.txns()[0].events.len(), 3);
        assert!(y.check_wf().is_ok());
    }

    #[test]
    fn compilation_sound_small_bound() {
        for target in [Arch::X86, Arch::Armv8, Arch::Power] {
            let r = check_compilation(&Walk::new(&compile_cfg(3)), target, None);
            assert!(
                r.counterexample.is_none(),
                "compilation to {target:?} must be sound (Table 2)"
            );
            assert!(r.complete);
        }
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        let walk = Walk::new(&compile_cfg(3));
        let par = check_compilation(&walk.clone().workers(3), Arch::X86, None);
        let seq = check_compilation(&walk.workers(1), Arch::X86, None);
        assert_eq!(par.checked, seq.checked);
        assert_eq!(par.complete, seq.complete);
        assert_eq!(par.counterexample.is_some(), seq.counterexample.is_some());
    }
}
