//! Conformance-suite synthesis (§4.2): the minimally-forbidden
//! ("Forbid") and maximally-allowed ("Allow") test sets of Table 1.
//!
//! Synthesis consumes the streaming enumerator on the work-stealing
//! pool: candidates are checked against the models on whichever worker
//! enumerates them — no buffering wave, no per-candidate clone of the
//! space. Each worker checks the transactional model through its own
//! [`LeafChecker`], so the transaction layouts of one rf/co assignment,
//! which the enumerator emits back to back, share their txn-free
//! analysis slots. Found tests carry their position in the sequential
//! enumeration order, so the Forbid suite comes out in the exact order
//! the sequential pipeline would produce after a final sort of the
//! (tiny) result set.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use txmm_core::incr::PruneStats;
use txmm_core::Execution;
use txmm_models::Model;

use crate::canon::canon_key;
use crate::consistent::{oracle_for, visit_pruned_par, LeafChecker};
use crate::enumerate::{enumerate, CandSeq, EnumConfig};
use crate::par::worker_count;
use crate::weaken::weakenings;

/// One synthesised test with its discovery time (for Fig. 7).
pub struct FoundTest {
    /// The execution.
    pub exec: Execution,
    /// When it was found, relative to the start of synthesis.
    pub at: Duration,
}

/// The result of synthesising one `|E|` row of Table 1.
pub struct SuiteResult {
    /// Minimally-forbidden tests.
    pub forbid: Vec<FoundTest>,
    /// Maximally-allowed tests (one ⊏-step weakenings of Forbid tests).
    pub allow: Vec<Execution>,
    /// False when the time budget ran out before the space was covered
    /// (the paper's "non-exhaustive" marker).
    pub complete: bool,
    /// How many candidate executions were examined.
    pub candidates: usize,
    /// Total synthesis time.
    pub elapsed: Duration,
}

/// Synthesise the Forbid and Allow sets for `tm` against its non-TM
/// baseline, at exactly `cfg.events` events, checking candidates on the
/// work-stealing pool.
///
/// A candidate `X` lands in Forbid when (a) it has at least one
/// transaction, (b) the transactional model forbids it, (c) the baseline
/// allows it with transactions erased, and (d) it is ⊏-minimal: every
/// one-step weakening is consistent under the transactional model.
pub fn synthesise(
    cfg: &EnumConfig,
    tm: &dyn Model,
    base: &dyn Model,
    budget: Option<Duration>,
) -> SuiteResult {
    synthesise_streamed(cfg, tm, base, budget, worker_count())
}

/// The streamed work-stealing implementation behind [`synthesise`],
/// with the worker count explicit so tests can exercise the
/// split-and-merge logic deterministically regardless of core count.
pub fn synthesise_streamed(
    cfg: &EnumConfig,
    tm: &dyn Model,
    base: &dyn Model,
    budget: Option<Duration>,
    workers: usize,
) -> SuiteResult {
    synthesise_streamed_progress(cfg, tm, base, budget, workers, None)
}

/// [`synthesise_streamed`] with optional live progress: candidates
/// examined and Forbid tests found (as "classes kept") flush into
/// `progress` as the walk runs. With `None` the sweep is identical to
/// [`synthesise_streamed`].
pub fn synthesise_streamed_progress(
    cfg: &EnumConfig,
    tm: &dyn Model,
    base: &dyn Model,
    budget: Option<Duration>,
    workers: usize,
    progress: Option<&txmm_obs::WalkProgress>,
) -> SuiteResult {
    let start = Instant::now();
    let candidates = AtomicUsize::new(0);
    let overrun = AtomicBool::new(false);

    let (states, _) = crate::enumerate::visit_par_progress(
        cfg,
        workers.max(1),
        progress,
        |_| (Vec::new(), LeafChecker::new(tm)),
        |seq, x, (found, check): &mut (Vec<(CandSeq, FoundTest)>, LeafChecker)| {
            candidates.fetch_add(1, Ordering::Relaxed);
            if let Some(b) = budget {
                if overrun.load(Ordering::Relaxed) || start.elapsed() > b {
                    overrun.store(true, Ordering::Relaxed);
                    return;
                }
            }
            if let Some(f) = forbid_test(cfg, tm, check, base, x) {
                if let Some(p) = progress {
                    p.add_classes(1);
                }
                found.push((
                    seq,
                    FoundTest {
                        exec: f,
                        at: start.elapsed(),
                    },
                ));
            }
        },
    );
    let mut stamped: Vec<(CandSeq, FoundTest)> =
        states.into_iter().flat_map(|(found, _)| found).collect();
    stamped.sort_by_key(|(seq, _)| *seq);
    let forbid: Vec<FoundTest> = stamped.into_iter().map(|(_, f)| f).collect();
    let complete = !overrun.load(Ordering::Relaxed);

    // Allow set: consistent one-step weakenings, deduplicated.
    let mut allow = Vec::new();
    let mut seen = HashSet::new();
    for f in &forbid {
        for w in weakenings(&f.exec, cfg.arch) {
            if tm.consistent(&w) && seen.insert(canon_key(&w)) {
                allow.push(w);
            }
        }
    }

    SuiteResult {
        forbid,
        allow,
        complete,
        candidates: candidates.into_inner(),
        elapsed: start.elapsed(),
    }
}

/// Is `x` a Forbid test (conditions (a)–(d) above)? Returns the
/// execution to record. `check` decides `tm` on the enumerated
/// candidates, sharing txn-free slots across a group's layouts.
fn forbid_test(
    cfg: &EnumConfig,
    tm: &dyn Model,
    check: &mut LeafChecker,
    base: &dyn Model,
    x: &Execution,
) -> Option<Execution> {
    if x.txns().is_empty() {
        return None;
    }
    if check.consistent(x) {
        return None;
    }
    if !base.consistent(&x.erase_txns()) {
        return None;
    }
    // Minimality: every one-step weakening is consistent.
    let minimal = weakenings(x, cfg.arch).iter().all(|w| tm.consistent(w));
    minimal.then(|| x.clone())
}

/// [`synthesise`] over the consistency-pruned stream: the *baseline*
/// model's transaction-agnostic prune oracle cuts rf/co subtrees no
/// completion can rescue. Sound for Forbid search because condition
/// (c) requires the transaction-erased candidate to be baseline-
/// consistent — a candidate whose partial communication relations
/// already violate the baseline's monotone core fails (c) under every
/// transaction layout. Returns the suite together with the prune
/// counters; `candidates` counts the *surviving* candidates examined.
pub fn synthesise_pruned(
    cfg: &EnumConfig,
    tm: &dyn Model,
    base: &dyn Model,
    budget: Option<Duration>,
) -> (SuiteResult, PruneStats) {
    let start = Instant::now();
    let candidates = AtomicUsize::new(0);
    let overrun = AtomicBool::new(false);

    let oracle = oracle_for(base, false);
    let (states, prune, _) = visit_pruned_par(
        cfg,
        oracle,
        worker_count(),
        |_| (Vec::new(), LeafChecker::new(tm)),
        |seq, x, (found, check): &mut (Vec<(CandSeq, FoundTest)>, LeafChecker)| {
            candidates.fetch_add(1, Ordering::Relaxed);
            if let Some(b) = budget {
                if overrun.load(Ordering::Relaxed) || start.elapsed() > b {
                    overrun.store(true, Ordering::Relaxed);
                    return;
                }
            }
            if let Some(f) = forbid_test(cfg, tm, check, base, x) {
                found.push((
                    seq,
                    FoundTest {
                        exec: f,
                        at: start.elapsed(),
                    },
                ));
            }
        },
    );
    let mut stamped: Vec<(CandSeq, FoundTest)> =
        states.into_iter().flat_map(|(found, _)| found).collect();
    stamped.sort_by_key(|(seq, _)| *seq);
    let forbid: Vec<FoundTest> = stamped.into_iter().map(|(_, f)| f).collect();
    let complete = !overrun.load(Ordering::Relaxed);

    let mut allow = Vec::new();
    let mut seen = HashSet::new();
    for f in &forbid {
        for w in weakenings(&f.exec, cfg.arch) {
            if tm.consistent(&w) && seen.insert(canon_key(&w)) {
                allow.push(w);
            }
        }
    }

    (
        SuiteResult {
            forbid,
            allow,
            complete,
            candidates: candidates.into_inner(),
            elapsed: start.elapsed(),
        },
        prune,
    )
}

/// The sequential reference implementation of [`synthesise`]; kept for
/// differential tests and the parallel-speedup benchmark.
pub fn synthesise_seq(
    cfg: &EnumConfig,
    tm: &dyn Model,
    base: &dyn Model,
    budget: Option<Duration>,
) -> SuiteResult {
    let start = Instant::now();
    let mut forbid = Vec::new();
    let mut candidates = 0usize;
    let mut complete = true;
    let mut check = LeafChecker::new(tm);

    enumerate(cfg, &mut |x| {
        candidates += 1;
        if let Some(b) = budget {
            if start.elapsed() > b {
                complete = false;
                return;
            }
        }
        if let Some(f) = forbid_test(cfg, tm, &mut check, base, x) {
            forbid.push(FoundTest {
                exec: f,
                at: start.elapsed(),
            });
        }
    });

    let mut allow = Vec::new();
    let mut seen = HashSet::new();
    for f in &forbid {
        for w in weakenings(&f.exec, cfg.arch) {
            if tm.consistent(&w) && seen.insert(canon_key(&w)) {
                allow.push(w);
            }
        }
    }

    SuiteResult {
        forbid,
        allow,
        complete,
        candidates,
        elapsed: start.elapsed(),
    }
}

/// Count how many transactions each Forbid test has (the paper reports
/// the 1/2/3-transaction split in §5.3).
pub fn txn_histogram(forbid: &[FoundTest]) -> [usize; 4] {
    let mut h = [0usize; 4];
    for f in forbid {
        let n = f.exec.txns().len().min(3);
        h[n] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_models::{Arch, Sc, Tsc, X86};

    fn x86_cfg(events: usize) -> EnumConfig {
        EnumConfig {
            arch: Arch::X86,
            events,
            max_threads: 3,
            max_locs: 2,
            fences: true,
            deps: false,
            rmws: true,
            txns: true,
            attrs: false,
            atomic_txns: false,
        }
    }

    #[test]
    fn no_two_event_x86_forbid_tests() {
        // Matches Table 1: |E| = 2 yields zero Forbid tests for x86.
        let r = synthesise(&x86_cfg(2), &X86::tm(), &X86::base(), None);
        assert!(r.complete);
        assert_eq!(r.forbid.len(), 0, "paper reports 0 tests at |E|=2");
    }

    #[test]
    fn three_event_x86_forbid_tests_exist() {
        // Table 1 reports 4 Forbid tests at |E| = 3.
        let r = synthesise(&x86_cfg(3), &X86::tm(), &X86::base(), None);
        assert!(r.complete);
        assert!(
            !r.forbid.is_empty(),
            "isolation-violating 3-event shapes must be found"
        );
        // Every Forbid test: has a txn, is forbidden, baseline-allowed,
        // and minimal.
        for f in &r.forbid {
            assert!(!f.exec.txns().is_empty());
            assert!(!X86::tm().consistent(&f.exec));
            assert!(X86::base().consistent(&f.exec.erase_txns()));
        }
        // And the Allow set is non-empty and strictly weaker.
        assert!(!r.allow.is_empty());
        for a in &r.allow {
            assert!(X86::tm().consistent(a));
        }
    }

    #[test]
    fn tsc_forbid_includes_fig3_shapes() {
        // Running the synthesiser for TSC against SC at |E| = 3 must
        // rediscover the four isolation shapes of Fig. 3.
        let cfg = EnumConfig {
            arch: Arch::Sc,
            events: 3,
            max_threads: 2,
            max_locs: 2,
            fences: false,
            deps: false,
            rmws: false,
            txns: true,
            attrs: false,
            atomic_txns: false,
        };
        let r = synthesise(&cfg, &Tsc, &Sc, None);
        let keys: HashSet<Vec<u8>> = r.forbid.iter().map(|f| canon_key(&f.exec)).collect();
        for which in ['a', 'b', 'c'] {
            let fig = txmm_models::catalog::fig3(which);
            assert!(
                keys.contains(&canon_key(&fig)),
                "fig3({which}) missing from the TSC Forbid set"
            );
        }
        // fig3(d) is forbidden but NOT ⊏-minimal: removing its external
        // write leaves a coherence violation (an inconsistent weakening),
        // so the synthesiser correctly excludes it.
        let figd = txmm_models::catalog::fig3('d');
        assert!(!Tsc.consistent(&figd));
        assert!(!keys.contains(&canon_key(&figd)));
    }

    #[test]
    fn parallel_synthesis_matches_sequential() {
        let cfg = x86_cfg(3);
        // Force multiple workers, so the work-stealing split-and-merge
        // logic is exercised even on one core.
        let par = synthesise_streamed(&cfg, &X86::tm(), &X86::base(), None, 3);
        let seq = synthesise_seq(&cfg, &X86::tm(), &X86::base(), None);
        assert_eq!(par.candidates, seq.candidates);
        assert_eq!(par.complete, seq.complete);
        let keys = |r: &SuiteResult| {
            r.forbid
                .iter()
                .map(|f| canon_key(&f.exec))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            keys(&par),
            keys(&seq),
            "same Forbid tests in the same order"
        );
        let allow_keys = |r: &SuiteResult| r.allow.iter().map(canon_key).collect::<Vec<_>>();
        assert_eq!(allow_keys(&par), allow_keys(&seq));
    }

    #[test]
    fn pruned_synthesis_matches_plain() {
        let cfg = x86_cfg(3);
        let plain = synthesise(&cfg, &X86::tm(), &X86::base(), None);
        let (pruned, st) = synthesise_pruned(&cfg, &X86::tm(), &X86::base(), None);
        assert!(pruned.complete);
        let keys = |r: &SuiteResult| {
            r.forbid
                .iter()
                .map(|f| canon_key(&f.exec))
                .collect::<HashSet<_>>()
        };
        assert_eq!(keys(&plain), keys(&pruned), "same Forbid tests");
        let allow_keys = |r: &SuiteResult| r.allow.iter().map(canon_key).collect::<HashSet<_>>();
        assert_eq!(allow_keys(&plain), allow_keys(&pruned));
        // The oracle must have cut real work.
        assert!(st.subtrees_cut > 0);
        assert!(pruned.candidates < plain.candidates);
    }

    #[test]
    fn histogram_counts_txns() {
        let r = synthesise(&x86_cfg(3), &X86::tm(), &X86::base(), None);
        let h = txn_histogram(&r.forbid);
        assert_eq!(h[0], 0, "every Forbid test has a transaction");
        assert_eq!(h.iter().sum::<usize>(), r.forbid.len());
    }
}
