//! Conformance-suite synthesis (§4.2): the minimally-forbidden
//! ("Forbid") and maximally-allowed ("Allow") test sets of Table 1.
//!
//! Synthesis is one [`Walk::search`]. Each worker checks the
//! transactional model through its own [`LeafChecker`], so the
//! transaction layouts of one rf/co assignment, which the walk emits
//! back to back, share their txn-free analysis slots, and the Forbid
//! tests come back in emission order at every worker count.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use txmm_core::incr::PruneStats;
use txmm_core::Execution;
use txmm_models::{Arch, Model};

use crate::consistent::LeafChecker;
use crate::enumerate::EnumConfig;
use crate::walk::{Probe, Walk};
use crate::weaken::weakenings;
use txmm_core::canon::canon_key;

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
    /// How many candidate executions were examined (on a pruned walk,
    /// the survivors).
    pub candidates: usize,
    /// The walk's prune counters.
    pub prune: PruneStats,
    /// Total synthesis time.
    pub elapsed: Duration,
}

/// The synthesis space of a Table 1 row: two locations, dependencies
/// on Power only, no attributes.
pub fn table1_config(arch: Arch, events: usize) -> EnumConfig {
    EnumConfig {
        max_locs: 2,
        deps: arch == Arch::Power,
        attrs: false,
        ..EnumConfig::hw(arch, events)
    }
}

/// Synthesise the Forbid and Allow sets for `tm` against its non-TM
/// baseline over the candidates of `walk`.
///
/// A candidate `X` lands in Forbid when (a) it has at least one
/// transaction, (b) the transactional model forbids it, (c) the baseline
/// allows it with transactions erased, and (d) it is ⊏-minimal: every
/// one-step weakening is consistent under the transactional model.
///
/// By (c), the walk may prune with the *baseline's*
/// transaction-agnostic oracle (`Walk::prune` with
/// `base.prune_oracle(false)`):
/// a partial candidate it rules out fails (c) under every transaction
/// layout.
pub fn synthesise(
    walk: &Walk,
    tm: &dyn Model,
    base: &dyn Model,
    budget: Option<Duration>,
) -> SuiteResult {
    let start = Instant::now();
    let cfg = walk.config();
    let found = walk.search(
        budget,
        |_| LeafChecker::new(tm),
        |x, check| match forbid_test(cfg, tm, check, base, x) {
            Some(exec) => Probe::Hit(FoundTest {
                exec,
                at: start.elapsed(),
            }),
            None => Probe::Pass,
        },
    );

    // Allow set: consistent one-step weakenings, deduplicated.
    let mut allow = Vec::new();
    let mut seen = HashSet::new();
    for f in &found.hits {
        for w in weakenings(&f.exec, cfg.arch) {
            if tm.consistent(&w) && seen.insert(canon_key(&w)) {
                allow.push(w);
            }
        }
    }

    SuiteResult {
        forbid: found.hits,
        allow,
        complete: found.complete,
        candidates: found.checked,
        prune: found.prune,
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
    use txmm_models::{Power, Sc, Tsc, X86};

    fn x86_cfg(events: usize) -> EnumConfig {
        table1_config(Arch::X86, events)
    }

    #[test]
    fn config_shapes() {
        let c = table1_config(Arch::X86, 4);
        assert_eq!(c.events, 4);
        assert!(!c.deps);
        assert!(table1_config(Arch::Power, 3).deps);
    }

    #[test]
    fn no_two_event_x86_forbid_tests() {
        // Matches Table 1: |E| = 2 yields zero Forbid tests for x86.
        let r = synthesise(&Walk::new(&x86_cfg(2)), &X86::tm(), &X86::base(), None);
        assert!(r.complete);
        assert_eq!(r.forbid.len(), 0, "paper reports 0 tests at |E|=2");
    }

    #[test]
    fn three_event_x86_forbid_tests_exist() {
        // Table 1 reports 4 Forbid tests at |E| = 3.
        let r = synthesise(&Walk::new(&x86_cfg(3)), &X86::tm(), &X86::base(), None);
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
            max_threads: 2,
            max_locs: 2,
            fences: false,
            rmws: false,
            ..EnumConfig::hw(Arch::Sc, 3)
        };
        let r = synthesise(&Walk::new(&cfg), &Tsc, &Sc, None);
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
        let walk = Walk::new(&x86_cfg(3));
        // Force multiple workers, so the work-stealing split-and-merge
        // logic is exercised even on one core.
        let par = synthesise(&walk.clone().workers(3), &X86::tm(), &X86::base(), None);
        let seq = synthesise(&walk.workers(1), &X86::tm(), &X86::base(), None);
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

    /// Synthesis over the baseline's pruned walk returns the plain
    /// walk's Forbid and Allow lists, in the same order: the oracle
    /// only removes candidates that fail condition (c).
    #[test]
    fn pruned_synthesis_matches_plain() {
        let (x86_tm, x86) = (X86::tm(), X86::base());
        let (power_tm, power_base) = (Power::tm(), Power::base());
        let rows: [(EnumConfig, &dyn Model, &dyn Model); 2] = [
            (x86_cfg(4), &x86_tm, &x86),
            (table1_config(Arch::Power, 3), &power_tm, &power_base),
        ];
        for (cfg, tm, base) in rows {
            let name = format!("{:?} |E| = {}", cfg.arch, cfg.events);
            let walk = Walk::new(&cfg);
            let plain = synthesise(&walk, tm, base, None);
            let oracle = base
                .prune_oracle(false)
                .expect("shipped models derive an oracle");
            let pruned = synthesise(&walk.prune(oracle), tm, base, None);
            assert!(pruned.complete);
            let keys = |r: &SuiteResult| {
                let forbid: Vec<Vec<u8>> = r.forbid.iter().map(|f| canon_key(&f.exec)).collect();
                let allow: Vec<Vec<u8>> = r.allow.iter().map(canon_key).collect();
                (forbid, allow)
            };
            assert!(!plain.forbid.is_empty(), "{name}: no Forbid tests");
            assert_eq!(keys(&plain), keys(&pruned), "{name}: Forbid/Allow lists");
            // The oracle must have cut real work.
            assert!(pruned.prune.subtrees_cut > 0, "{name}");
            assert!(pruned.candidates < plain.candidates, "{name}");
        }
    }

    #[test]
    fn histogram_counts_txns() {
        let r = synthesise(&Walk::new(&x86_cfg(3)), &X86::tm(), &X86::base(), None);
        let h = txn_histogram(&r.forbid);
        assert_eq!(h[0], 0, "every Forbid test has a transaction");
        assert_eq!(h.iter().sum::<usize>(), r.forbid.len());
    }
}
