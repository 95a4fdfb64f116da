//! Bounded verification of the paper's theorems (§7).
//!
//! The paper proves these in Isabelle; we validate them exhaustively up
//! to a bound (the same regime Memalloy uses for Table 2) and leave
//! random deeper exploration to the proptest suites.
//!
//! Each check is one [`Walk::search`] over a C++ space: candidates are
//! checked on whichever worker enumerates them, and the earliest
//! counterexample in emission order ends the search.

use std::time::Duration;

use txmm_core::Execution;
use txmm_models::{Arch, Cpp, Model, Tsc};
use txmm_synth::{EnumConfig, Probe, Walk};

use crate::compile::compile_cfg;
use crate::CheckResult;

/// The outcome of a bounded theorem check: an execution violating the
/// theorem, if any.
pub(crate) type TheoremResult = CheckResult<Execution>;

/// The C++ space the theorem checks walk at `events` events: the
/// compilation space with atomic transactions.
pub fn theorem_cfg(events: usize) -> EnumConfig {
    EnumConfig {
        atomic_txns: true,
        ..compile_cfg(events)
    }
}

/// Theorem 7.2's per-candidate probe.
fn theorem_7_2_probe(m: &Cpp, x: &Execution) -> Probe<Execution> {
    let a = x.analysis();
    if !m.consistent_analysis(&a) || m.racy_analysis(&a) || !Cpp::atomic_txns_wellformed(x) {
        return Probe::Skip;
    }
    if a.stxnat().is_empty() {
        return Probe::Skip;
    }
    if a.strong_isol_atomic().is_acyclic() {
        Probe::Pass
    } else {
        Probe::Stop(x.clone())
    }
}

/// Theorem 7.2 over the C++ candidates of `walk` (see [`theorem_cfg`]):
/// in race-free C++ executions whose atomic transactions contain no
/// atomic operations, atomic transactions are strongly isolated:
/// `acyclic(stronglift(com, stxnat))`.
pub fn check_theorem_7_2(walk: &Walk, budget: Option<Duration>) -> TheoremResult {
    assert_eq!(walk.config().arch, Arch::Cpp, "Theorem 7.2 is about C++");
    let m = Cpp::tm();
    walk.search(budget, |_| (), |x, _| theorem_7_2_probe(&m, x))
        .into()
}

/// Theorem 7.3's per-candidate probe.
fn theorem_7_3_probe(m: &Cpp, x: &Execution) -> Probe<Execution> {
    // Hypotheses: stxn = stxnat, Ato = SC, NoRace, consistency, plus
    // the specification's vocabulary condition on atomic transactions.
    if x.txns().iter().any(|t| !t.atomic) {
        return Probe::Skip;
    }
    let a = x.analysis();
    if a.ato() != a.sc_events() {
        return Probe::Skip;
    }
    if !Cpp::atomic_txns_wellformed(x) {
        return Probe::Skip;
    }
    if !m.consistent_analysis(&a) || m.racy_analysis(&a) {
        return Probe::Skip;
    }
    if Tsc.consistent_analysis(&a) {
        Probe::Pass
    } else {
        Probe::Stop(x.clone())
    }
}

/// Theorem 7.3 (transactional SC-DRF) over the C++ candidates of
/// `walk` (see [`theorem_cfg`]): a consistent C++ execution with no
/// relaxed transactions, no non-SC atomics and no races is consistent
/// under TSC.
pub fn check_theorem_7_3(walk: &Walk, budget: Option<Duration>) -> TheoremResult {
    assert_eq!(walk.config().arch, Arch::Cpp, "Theorem 7.3 is about C++");
    let m = Cpp::tm();
    walk.search(budget, |_| (), |x, _| theorem_7_3_probe(&m, x))
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_models::{Armv8, Power, X86};
    use txmm_synth::equivalent;

    #[test]
    fn theorem_7_2_holds_to_three_events() {
        let r = check_theorem_7_2(&Walk::new(&theorem_cfg(3)), None);
        assert!(r.counterexample.is_none(), "Theorem 7.2 must hold");
        assert!(r.checked > 0, "hypotheses must be satisfiable");
    }

    #[test]
    fn theorem_7_3_holds_to_three_events() {
        let r = check_theorem_7_3(&Walk::new(&theorem_cfg(3)), None);
        assert!(r.counterexample.is_none(), "Theorem 7.3 must hold");
        assert!(r.checked > 0);
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        let walk = Walk::new(&theorem_cfg(3));
        let (par, seq) = (walk.clone().workers(3), walk.workers(1));
        let (par_r, seq_r) = (check_theorem_7_2(&par, None), check_theorem_7_2(&seq, None));
        assert_eq!(par_r.checked, seq_r.checked);
        assert_eq!(par_r.counterexample, seq_r.counterexample);
        let par = check_theorem_7_3(&par, None);
        let seq = check_theorem_7_3(&seq, None);
        assert_eq!(par.checked, seq.checked);
        assert_eq!(par.counterexample, seq.counterexample);
    }

    #[test]
    fn tm_models_conservative_over_baselines() {
        for (tm, base, arch) in [
            (
                Box::new(X86::tm()) as Box<dyn Model>,
                Box::new(X86::base()) as Box<dyn Model>,
                Arch::X86,
            ),
            (Box::new(Power::tm()), Box::new(Power::base()), Arch::Power),
            (Box::new(Armv8::tm()), Box::new(Armv8::base()), Arch::Armv8),
        ] {
            let cfg = EnumConfig {
                max_threads: 2,
                max_locs: 2,
                txns: false,
                ..EnumConfig::hw(arch, 3)
            };
            // The baseline sanity statement of §8: TM models agree with
            // their baselines on transaction-free executions.
            assert!(
                equivalent(&Walk::new(&cfg), tm.as_ref(), base.as_ref()),
                "{} must equal its baseline without transactions",
                tm.name()
            );
        }
    }
}
