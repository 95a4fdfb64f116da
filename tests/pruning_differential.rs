//! Differential tests for consistency-guided pruning: the pruned
//! enumerators must be observationally identical to plain
//! enumerate-then-filter — the same consistent classes in the same
//! order, the same allowed-outcome tables — on every model space we
//! can afford.
//!
//! Three layers are exercised:
//!
//! * **Structure enumeration** (`Walk::consistent` vs an unpruned
//!   `Walk` + `model.consistent`): six model spaces at |E| = 3
//!   in the regular suite, the cheap spaces at |E| = 4 behind
//!   `#[ignore]` for the CI `prune-smoke` release job.
//! * **Outcome tables** (a Session vs the plain candidate enumeration
//!   `txmm_litmus::enumerate_candidates` plus each model's full check):
//!   the per-model allowed sets, postcondition verdicts and closed-form
//!   candidate counts must agree over the generated corpus, including
//!   its transactional programs, for every shipped model and for
//!   `.cat` models without a prune oracle.
//! * **`.cat` oracles never over-prune**: on complete executions the
//!   monotone core is a weakening of the full model — it may accept
//!   more, never reject a consistent execution.

use txmm::core::{
    canon_key, EventSet, ExecutionAnalysis, PartialCandidate, PruneOracle, PruneStats, Rel,
};
use txmm::models::{Arch, Armv8, Cpp, Model, Power, Sc, Tsc, X86};
use txmm::synth::{EnumConfig, Walk};

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

/// The pruned stream is plain enumerate-then-filter, class for class
/// and in order, and the oracle was actually consulted along the way.
fn assert_pruned_matches_filtered(name: &str, cfg: &EnumConfig, model: &dyn Model) {
    let mut pruned = Vec::new();
    let st = Walk::new(cfg)
        .consistent(model)
        .for_each(|x| pruned.push(canon_key(x)));
    let mut plain = Vec::new();
    Walk::new(cfg).for_each(|x| {
        if model.consistent(x) {
            plain.push(canon_key(x));
        }
    });
    let diverged = pruned.iter().zip(&plain).position(|(a, b)| a != b);
    assert!(
        diverged.is_none() && pruned.len() == plain.len(),
        "{name}: the pruned stream ({} classes) is not the filtered stream ({} classes); \
         first difference at class {diverged:?}",
        pruned.len(),
        plain.len(),
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

/// Outcome tables: every Session answer over the generated corpus
/// equals a test-side reference — the plain candidate enumeration
/// (`txmm_litmus::enumerate_candidates`) with each model's full check —
/// for every shipped model (native and `.cat`) and for `.cat` models
/// without a prune oracle, which walk every candidate under `NoPrune`.
#[test]
fn outcome_tables_agree_with_unpruned_session() {
    use txmm::hwsim::{Outcome, OutcomeSet, MAX_LOCS};
    use txmm::litmus::{enumerate_candidates, parse_litmus};
    use txmm::serve::serve_outcomes_source;
    use txmm::session::{ModelRef, Session};

    let corpus = txmm::corpus::generate(3);
    assert!(
        corpus.iter().any(|(name, _)| name.contains("txn")),
        "the corpus must include transactional programs"
    );

    let mut session = Session::with_shipped_cat();
    for (name, src) in [
        ("never-unv", "irreflexive (unv \\ com)"),
        ("never-po-com", "empty (unv \\ (po | com))"),
        ("never-not-com", "acyclic ~(com)"),
        ("sc-like", "acyclic po | (com \\ (rf ; rf^-1)) as Order"),
    ] {
        let m = session.register_cat_source(name, src).expect("compiles");
        assert!(
            session.model(m).prune_oracle(true).is_none(),
            "{name} must have no prune oracle"
        );
    }
    let models: Vec<ModelRef> = session.models().collect();
    let pad = |mut v: Vec<u32>| {
        v.resize(MAX_LOCS, 0);
        v
    };
    let mut allowed_somewhere = vec![false; models.len()];
    for (name, src) in &corpus {
        let file = format!("{name}.litmus");
        let Ok(got) = serve_outcomes_source(&mut session, &file, src, None) else {
            panic!("{name}: refused");
        };
        let t = parse_litmus(src).expect("corpus parses");
        let mut want = vec![OutcomeSet::new(); models.len()];
        let count = enumerate_candidates(&t, &mut |c| {
            for (i, &m) in models.iter().enumerate() {
                if session.model(m).consistent(&c.exec) {
                    want[i].insert(Outcome {
                        regs: c.regs.clone(),
                        memory: pad(c.memory.clone()),
                        txn_ok: c.txn_ok.clone(),
                        co_order: {
                            let mut co = c.co_order.clone();
                            co.resize(MAX_LOCS, Vec::new());
                            co
                        },
                    });
                }
            }
        })
        .expect("enumerates");
        assert_eq!(got.candidates, count, "{name}: candidate counts");
        for (i, mo) in got.per_model.iter().enumerate() {
            let model = session.model(models[i]).name();
            assert_eq!(mo.model, model);
            assert_eq!(mo.allowed, want[i], "{name}: {model} allowed set");
            let post = (!t.post.is_empty()).then(|| want[i].iter().any(|o| o.passes(&t)));
            assert_eq!(mo.post_allowed, post, "{name}: {model} postcondition");
            allowed_somewhere[i] |= !want[i].is_empty();
        }
    }
    // The reference is not vacuous: every model allows some final
    // state (the three that forbid every event still allow the split
    // that aborts all of a program's events).
    assert!(
        allowed_somewhere.iter().all(|a| *a),
        "{allowed_somewhere:?}"
    );
    let st = session.stats();
    assert!(
        st.prune_oracle_calls + st.prune_delta_answers > 0,
        "pruning never engaged: {st:?}"
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
            let st = Walk::new(&cfg)
                .consistent(model.as_ref())
                .for_each(|_| classes += 1);
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
    Walk::new(cfg).for_each(|x| {
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

/// Serve every program of `txmm gen --events N`'s corpus through one
/// Session holding all 20 models (native and shipped `.cat`), and
/// return the outcome walks' counters: candidates visited, classes,
/// cuts, skipped, oracle calls, delta answers, fallbacks, batches and
/// batched placements.
fn outcome_walk_counters(events: usize) -> [u64; 9] {
    use txmm::serve::serve_outcomes_source;
    use txmm::session::Session;

    let mut s = Session::with_shipped_cat();
    assert_eq!(s.models().count(), 20);
    for (name, src) in &txmm::corpus::generate(events) {
        let _ = serve_outcomes_source(&mut s, &format!("{name}.litmus"), src, None);
    }
    let st = s.stats();
    [
        st.outcome_candidates,
        st.outcome_classes,
        st.prune_subtrees_cut,
        st.prune_candidates_skipped,
        st.prune_oracle_calls,
        st.prune_delta_answers,
        st.prune_fallbacks,
        st.prune_batches,
        st.prune_batched_placements,
    ]
}

/// The outcome walk's counters over the default corpus are pinned: a
/// search that visits its stages in another order, cuts less or
/// batches differently moves them, even when every outcome table
/// stays the same.
#[test]
fn outcome_walk_counters_are_pinned() {
    assert_eq!(
        outcome_walk_counters(3),
        [5_046, 4_766, 2_590, 19_234, 4_180, 5_234, 6_256, 3_138, 5_214]
    );
}

#[test]
#[ignore = "minutes in debug; the CI prune-smoke job runs it in release"]
fn outcome_walk_counters_are_pinned_at_four_events() {
    assert_eq!(
        outcome_walk_counters(4),
        [16_382, 15_962, 2_654, 19_218, 11_929, 11_973, 16_485, 7_251, 11_807]
    );
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
        Walk::new(&EnumConfig::hw(arch, 3)).for_each(|x| {
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
