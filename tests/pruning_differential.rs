//! Differential tests for consistency-guided pruning: the pruned
//! enumerators must be observationally identical to plain
//! enumerate-then-filter — the same consistent canonical-key sets, the
//! same allowed-outcome tables — on every model space we can afford.
//!
//! Three layers are exercised:
//!
//! * **Structure enumeration** ([`enumerate_consistent`] vs
//!   [`enumerate`] + `model.consistent`): six model spaces at |E| = 3
//!   in the regular suite, the cheap spaces at |E| = 4 behind
//!   `#[ignore]` for the CI `prune-smoke` release job.
//! * **Outcome tables** (pruned Session vs `set_prune(false)`): the
//!   per-model allowed sets, postcondition verdicts and closed-form
//!   candidate counts must agree over the generated corpus, including
//!   its transactional programs.
//! * **`.cat` oracles never over-prune**: on complete executions the
//!   monotone core is a weakening of the full model — it may accept
//!   more, never reject a consistent execution.

use std::collections::HashSet;

use txmm::core::{
    canon_key, EventSet, ExecutionAnalysis, PartialCandidate, PruneOracle, PruneStats, Rel,
};
use txmm::models::{Arch, Armv8, Cpp, Model, Power, Sc, Tsc, X86};
use txmm::synth::{enumerate, enumerate_consistent, EnumConfig};

type Space = (&'static str, EnumConfig, Vec<Box<dyn Model>>);

/// The model spaces of the paper, each paired with the native models
/// whose oracles prune it.
fn spaces(events: usize) -> Vec<Space> {
    let cpp_atomic = EnumConfig {
        arch: Arch::Cpp,
        events,
        max_threads: 2,
        max_locs: 2,
        fences: false,
        deps: false,
        rmws: false,
        txns: true,
        attrs: true,
        atomic_txns: true,
    };
    vec![
        (
            "sc-tsc",
            EnumConfig::hw(Arch::Sc, events),
            vec![Box::new(Sc) as Box<dyn Model>, Box::new(Tsc)],
        ),
        (
            "x86",
            EnumConfig::hw(Arch::X86, events),
            vec![Box::new(X86::base()), Box::new(X86::tm())],
        ),
        (
            "power",
            EnumConfig::hw(Arch::Power, events),
            vec![Box::new(Power::tm())],
        ),
        (
            "armv8",
            EnumConfig::hw(Arch::Armv8, events),
            vec![Box::new(Armv8::tm())],
        ),
        (
            "cpp",
            EnumConfig::hw(Arch::Cpp, events),
            vec![Box::new(Cpp::tm())],
        ),
        ("cpp-atomic-txns", cpp_atomic, vec![Box::new(Cpp::tm())]),
    ]
}

/// The pruned stream equals plain enumerate-then-filter, class for
/// class, and the oracle was actually consulted along the way.
fn assert_pruned_matches_filtered(name: &str, cfg: &EnumConfig, model: &dyn Model) {
    let mut pruned_keys = HashSet::new();
    let mut pruned = 0usize;
    let st = enumerate_consistent(cfg, model, &mut |x| {
        pruned += 1;
        pruned_keys.insert(canon_key(x));
    });
    assert_eq!(
        pruned,
        pruned_keys.len(),
        "{name}: pruned stream emitted a duplicate class"
    );

    let mut plain_keys = HashSet::new();
    enumerate(cfg, &mut |x| {
        if model.consistent(x) {
            plain_keys.insert(canon_key(x));
        }
    });

    assert_eq!(
        pruned_keys, plain_keys,
        "{name}: pruned and filtered consistent-class sets differ"
    );
    if model.prune_oracle(false).is_some() {
        // Exact delta plans answer every probe incrementally, so the
        // full oracle may legitimately never run — but the viability
        // machinery as a whole must have been consulted.
        assert!(
            st.delta_answers + st.oracle_calls > 0,
            "{name}: the oracle never ran"
        );
    }
}

#[test]
fn all_spaces_at_three_events() {
    for (name, cfg, models) in spaces(3) {
        for model in &models {
            assert_pruned_matches_filtered(name, &cfg, model.as_ref());
        }
    }
}

#[test]
#[ignore = "minutes in debug; the CI prune-smoke job runs it in release"]
fn cheap_spaces_at_four_events() {
    for (name, cfg, models) in spaces(4) {
        if !matches!(cfg.arch, Arch::Sc | Arch::X86 | Arch::Cpp) {
            continue; // Power/ARMv8 at |E| = 4 are enumeration-smoke territory.
        }
        for model in &models {
            assert_pruned_matches_filtered(name, &cfg, model.as_ref());
        }
    }
}

/// Outcome tables: a pruned Session and a `set_prune(false)` Session
/// must serve identical per-model answers over the generated corpus —
/// same allowed sets, same postcondition verdicts, same closed-form
/// candidate counts. (Visited-class counts legitimately differ: the
/// pruned walk never materialises classes its oracle refutes.)
#[test]
fn outcome_tables_agree_with_unpruned_session() {
    use txmm::serve::{serve_outcomes_source, ServedOutcomes};
    use txmm::session::Session;

    let corpus = txmm::corpus::generate(3);
    assert!(
        corpus.iter().any(|(name, _)| name.contains("txn")),
        "the corpus must include transactional programs"
    );

    let mut pruned = Session::new();
    let mut unpruned = Session::new();
    unpruned.set_prune(false);

    for (name, src) in &corpus {
        let file = format!("{name}.litmus");
        let a = serve_outcomes_source(&mut pruned, &file, src, None);
        let b = serve_outcomes_source(&mut unpruned, &file, src, None);
        match (a, b) {
            (ServedOutcomes::Report(a), ServedOutcomes::Report(b)) => {
                assert_eq!(a.candidates, b.candidates, "{name}: candidate counts");
                assert_eq!(a.per_model, b.per_model, "{name}: per-model answers");
            }
            (ServedOutcomes::Failure(a), ServedOutcomes::Failure(b)) => {
                assert_eq!(a.error, b.error, "{name}: refusals must match");
            }
            _ => panic!("{name}: one path served, the other refused"),
        }
    }
    let st = pruned.stats();
    assert!(
        st.prune_oracle_calls + st.prune_delta_answers > 0,
        "pruning never engaged: {st:?}"
    );
    assert_eq!(
        unpruned.stats().prune_oracle_calls,
        0,
        "set_prune(false) must bypass the oracles"
    );
}

/// Incremental viability == recompute-from-scratch. With delta
/// validation armed, every probe that the per-model [`DeltaPlan`]
/// answers incrementally is cross-checked inside the engine against a
/// full [`ExecutionAnalysis`] re-derivation: exact plans must agree
/// bit-for-bit, inexact (conservative) plans must never declare a
/// candidate dead that the full oracle still accepts. Any divergence
/// panics inside `probe`, so driving the pruned enumerator over a
/// space *is* the assertion.
fn assert_delta_matches_recompute(events: usize, skip_slow: bool) {
    struct Arm;
    impl Drop for Arm {
        fn drop(&mut self) {
            txmm::core::set_delta_validation(false);
        }
    }
    txmm::core::set_delta_validation(true);
    let _disarm = Arm;

    for (name, cfg, models) in spaces(events) {
        if skip_slow && !matches!(cfg.arch, Arch::Sc | Arch::X86 | Arch::Cpp) {
            continue;
        }
        for model in &models {
            let mut classes = 0usize;
            let st = enumerate_consistent(&cfg, model.as_ref(), &mut |_| classes += 1);
            assert!(classes > 0, "{name}: empty consistent space");
            if model.prune_oracle(false).is_some() {
                assert!(
                    st.delta_answers > 0,
                    "{name}: the delta plan never answered a probe"
                );
            }
        }
    }

    // Transactions known: exact plans over fixed transaction classes
    // (the lifted obligations x86-tm and TSC add for a non-empty
    // `stxn`, which the outcome engine builds for every abort split)
    // are cross-checked on every transactional candidate. A class of
    // TxnOrder-only violations needs four events (a two-event
    // transaction, a po-later read and an external write).
    for (name, cfg, models) in spaces(events) {
        if !matches!(cfg.arch, Arch::Sc | Arch::X86) {
            continue;
        }
        for model in &models {
            let oracle = model.prune_oracle(true).expect("native oracle");
            let answered = replay_with_txns_known(&cfg, oracle);
            assert!(
                answered > 0,
                "{name}/{}: no txns-known delta answer",
                model.name()
            );
        }
    }
}

/// Rebuild every enumerated candidate that has transactions on a
/// [`PartialCandidate`] whose classes are already fixed — rf sources
/// read by read, then each location's coherence order write by write —
/// probing after every step. Returns the probes the delta plan
/// answered; with validation armed, each is checked against recompute.
fn replay_with_txns_known(cfg: &EnumConfig, oracle: &dyn PruneOracle) -> u64 {
    let mut st = PruneStats::default();
    enumerate(cfg, &mut |x| {
        if x.txns().is_empty() {
            return;
        }
        let n = x.len();
        let mut base = x.clone();
        let (rf, co) = base.comm_mut();
        (*rf, *co) = (Rel::empty(n), Rel::empty(n));
        let mut pc = PartialCandidate::with_oracle(base, oracle);
        let writes = x.writes();
        for r in x.reads().iter() {
            match x.rf().col(r).iter().next() {
                Some(w) => pc.assign_rf(w, r),
                None => {
                    let loc = x.event(r).loc.expect("reads have a location");
                    pc.assign_init_read(r, writes.inter(x.at_loc(loc)));
                }
            }
            pc.probe(oracle, &mut st);
        }
        for loc in x.locations() {
            let mut order: Vec<usize> = writes.inter(x.at_loc(loc)).iter().collect();
            // co-earlier writes have more co successors.
            order.sort_by_key(|&w| std::cmp::Reverse(x.co().row(w).len()));
            let mut placed = EventSet::default();
            for w in order {
                pc.push_co(placed, w);
                placed.insert(w);
                pc.probe(oracle, &mut st);
            }
        }
    });
    st.delta_answers
}

#[test]
fn delta_viability_matches_recompute_at_three_events() {
    assert_delta_matches_recompute(3, false);
}

#[test]
#[ignore = "minutes in debug; the CI prune-smoke job runs it in release"]
fn delta_viability_matches_recompute_at_four_events() {
    assert_delta_matches_recompute(4, true);
}

/// The parallel per-abort-split walk must be byte-identical to the
/// sequential one: same JSONL report lines for every program in the
/// corpus, in particular the same candidate/class counts and the same
/// ordered allowed-outcome tables. Dead-mask subsumption and worker
/// scheduling may reorder *work*, never *output*.
#[test]
fn parallel_mask_walk_is_byte_identical_to_sequential() {
    use txmm::serve::{outcomes_jsonl_line, serve_outcomes_source};
    use txmm::session::Session;

    let corpus = txmm::corpus::generate(3);
    assert!(
        corpus.iter().any(|(name, _)| name.contains("txn")),
        "the corpus must include transactional programs (abort splits)"
    );

    let mut seq = Session::new();
    seq.set_outcome_workers(1);
    let mut par = Session::new();
    par.set_outcome_workers(4);

    for (name, src) in &corpus {
        let file = format!("{name}.litmus");
        let a = outcomes_jsonl_line(&serve_outcomes_source(&mut seq, &file, src, None));
        let b = outcomes_jsonl_line(&serve_outcomes_source(&mut par, &file, src, None));
        assert_eq!(a, b, "{name}: parallel walk diverged from sequential");
    }
}

/// `.cat` oracles are *weakenings* of their models: on a complete
/// execution, full-model consistency implies oracle viability. (The
/// converse direction is what the downstream re-verdicting handles.)
#[test]
fn cat_oracles_never_overprune_complete_executions() {
    use txmm::cat::{all_cat_models, CatPruneOracle};

    let mut checked = 0usize;
    for model in all_cat_models() {
        let Some(oracle) = CatPruneOracle::derive("probe", &model, true) else {
            continue; // No monotone core: the engine simply doesn't prune.
        };
        let arch = match model.name {
            n if n.starts_with("x86") => Arch::X86,
            n if n.starts_with("power") => Arch::Power,
            n if n.starts_with("armv8") => Arch::Armv8,
            n if n.starts_with("cpp") => Arch::Cpp,
            _ => Arch::Sc,
        };
        let mut spot_checks = 0usize;
        enumerate(&EnumConfig::hw(arch, 3), &mut |x| {
            // Keep the per-model cost bounded: every 17th class is a
            // deterministic spot-check sample of the space.
            spot_checks += 1;
            if !spot_checks.is_multiple_of(17) {
                return;
            }
            let full = model.consistent(x).expect("full model evaluates");
            let a = ExecutionAnalysis::with_fr(x, x.fr());
            if full {
                assert!(
                    oracle.viable(&a),
                    "{}: oracle rejected a consistent execution",
                    model.name
                );
            }
        });
        checked += 1;
    }
    assert!(checked >= 4, "expected oracles for most shipped models");
}
