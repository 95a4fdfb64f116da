//! Property-based validation of the paper's theorems and of the library
//! invariants, on randomly generated executions.
//!
//! The generator walks a deterministic PRNG
//! ([`txmm::core::rng::SplitMix64`]) over seeds — the offline build
//! cannot fetch proptest — so failures reproduce exactly: rerun with
//! the printed seed.

use txmm::core::rng::SplitMix64;
use txmm::core::{Attrs, ExecBuilder, Execution, TxnClass};
use txmm::models::cpp::theorem_7_2_holds;
use txmm::prelude::*;

const CASES: u64 = 192;

/// A random small execution: up to three threads, up to five events over
/// two locations, arbitrary rf/co choices (well-formed by construction),
/// optional C++ modes.
fn arb_execution(cpp: bool, seed: u64) -> Execution {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut b = ExecBuilder::new();
    for _ in 0..3 {
        b.new_thread();
    }
    let n_events = 1 + rng.below(5);
    for _ in 0..n_events {
        let tid = rng.below(3) as u8;
        let is_write = rng.below(2) == 0;
        let loc = rng.below(2) as u8;
        let e = if is_write {
            b.write(tid, loc)
        } else {
            b.read(tid, loc)
        };
        if cpp {
            match rng.below(4) {
                1 => {
                    b.attr(e, Attrs::ATO);
                }
                2 => {
                    b.attr(
                        e,
                        Attrs::ATO.union(if is_write { Attrs::REL } else { Attrs::ACQ }),
                    );
                }
                3 => {
                    b.attr(e, Attrs::ATO.union(Attrs::SC));
                }
                _ => {}
            }
        }
    }
    let x = b.build_unchecked();
    // Random coherence permutation and rf choice per location.
    let mut b2 = b.clone();
    for l in x.locations() {
        let mut ws: Vec<usize> = x.writes().inter(x.at_loc(l)).iter().collect();
        for i in (1..ws.len()).rev() {
            let j = rng.below(i + 1);
            ws.swap(i, j);
        }
        b2.co_order(&ws);
        for r in x.reads().inter(x.at_loc(l)).iter() {
            let pick = rng.below(ws.len() + 1);
            if pick < ws.len() {
                b2.rf(ws[pick], r);
            }
        }
    }
    b2.build().expect("well-formed by construction")
}

/// Random transaction layout on top of an execution.
fn with_random_txns(x: &Execution, seed: u64, atomic: bool) -> Execution {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xdead_beef);
    let mut txns = Vec::new();
    for t in 0..x.num_threads() {
        let evs: Vec<usize> = x.thread_events(t as u8).collect();
        let mut i = 0;
        while i < evs.len() {
            if rng.below(2) == 0 {
                let len = 1 + rng.below(evs.len() - i);
                txns.push(TxnClass {
                    events: evs[i..i + len].to_vec(),
                    atomic,
                });
                i += len;
            } else {
                i += 1;
            }
        }
    }
    x.with_txns(txns)
}

/// Theorem 7.2 on random C++ executions with atomic transactions.
#[test]
fn theorem_7_2_random() {
    for seed in 0..CASES {
        let x = arb_execution(true, seed);
        let y = with_random_txns(&x, seed, true);
        assert!(y.check_wf().is_ok(), "seed {seed}");
        assert!(theorem_7_2_holds(&y), "seed {seed}");
    }
}

/// Theorem 7.3 on random executions: all-SC atomics, atomic txns,
/// race-free, consistent => TSC-consistent.
#[test]
fn theorem_7_3_random() {
    for seed in 0..CASES {
        let y = with_random_txns(&arb_execution(true, seed), seed, true);
        let m = Cpp::tm();
        let hypotheses = y.ato() == y.sc_events()
            && Cpp::atomic_txns_wellformed(&y)
            && m.consistent(&y)
            && !m.racy(&y);
        if hypotheses {
            assert!(Tsc.consistent(&y), "Theorem 7.3 violated at seed {seed}");
        }
    }
}

/// x86 monotonicity (§8.1) on random executions: growing stxn never
/// resurrects a forbidden execution.
#[test]
fn x86_monotone_random() {
    for seed in 0..CASES {
        let y = with_random_txns(&arb_execution(false, seed), seed, false);
        if !X86::tm().consistent(&y) {
            for z in txmm::verify::txn_extensions(&y) {
                assert!(
                    !X86::tm().consistent(&z),
                    "seed {seed}: adding stxn edges made an inconsistent x86 execution consistent"
                );
            }
        }
    }
}

/// TSC is stronger than SC; strong isolation is stronger than weak.
#[test]
fn model_strength_random() {
    for seed in 0..CASES {
        let y = with_random_txns(&arb_execution(false, seed), seed, false);
        if Tsc.consistent(&y) {
            assert!(Sc.consistent(&y), "seed {seed}");
            assert!(txmm::models::strong_isolation(&y), "seed {seed}");
        }
        if txmm::models::strong_isolation(&y) {
            assert!(txmm::models::weak_isolation(&y), "seed {seed}");
        }
    }
}

/// Baselines ignore transactions entirely.
#[test]
fn baselines_ignore_txns() {
    for seed in 0..CASES {
        let y = with_random_txns(&arb_execution(false, seed), seed, false);
        for (with_txns, without) in [
            (
                X86::base().consistent(&y),
                X86::base().consistent(&y.erase_txns()),
            ),
            (
                Power::base().consistent(&y),
                Power::base().consistent(&y.erase_txns()),
            ),
            (
                Armv8::base().consistent(&y),
                Armv8::base().consistent(&y.erase_txns()),
            ),
        ] {
            assert_eq!(with_txns, without, "seed {seed}");
        }
    }
}

/// Litmus construction invariants: per-location write values are
/// unique and contiguous; every read gains a register check.
#[test]
fn litmus_invariants() {
    for seed in 0..CASES {
        let x = arb_execution(false, seed);
        let wv = txmm::litmus::write_values(&x);
        for l in x.locations() {
            let mut vals: Vec<u32> = x
                .writes()
                .inter(x.at_loc(l))
                .iter()
                .map(|w| wv[w])
                .collect();
            vals.sort_unstable();
            let expect: Vec<u32> = (1..=vals.len() as u32).collect();
            assert_eq!(vals, expect, "seed {seed}");
        }
        let t = litmus_from_execution("t", &x, Arch::X86);
        let reg_checks = t
            .post
            .iter()
            .filter(|c| matches!(c, txmm::litmus::Check::Reg { .. }))
            .count();
        assert_eq!(reg_checks, x.reads().len(), "seed {seed}");
    }
}

/// The relational algebra obeys its laws on derived relations.
#[test]
fn relation_laws() {
    for seed in 0..CASES {
        let x = arb_execution(false, seed);
        let com = x.com();
        assert!(com.plus().is_transitive(), "seed {seed}");
        assert_eq!(com.inverse().inverse(), com, "seed {seed}");
        assert!(com.is_subset(&com.star()), "seed {seed}");
        let fr = x.fr();
        // fr never disagrees with coherence direction on well-formed
        // executions: fr ∩ co⁻¹ is empty.
        assert!(fr.inter(&x.co().inverse()).is_empty(), "seed {seed}");
    }
}

/// A sweep whose budget runs out says so, on one worker and on three:
/// `complete` is false, no counterexample (or Forbid test) is reported,
/// and fewer candidates were checked than the whole walk checks.
#[test]
fn exhausted_budgets_report_incomplete() {
    use std::time::Duration;
    use txmm::verify::{
        check_compilation, check_monotonicity, check_theorem_7_2, check_theorem_7_3, compile_cfg,
        theorem_cfg,
    };
    let zero = Some(Duration::ZERO);
    let table1 = EnumConfig {
        max_locs: 2,
        ..EnumConfig::hw(Arch::X86, 3)
    };
    // The §8.1 split-rmw space: monotonicity fails here, so an empty
    // result under the budget is the budget's doing.
    let split_rmw = EnumConfig {
        max_threads: 1,
        max_locs: 1,
        fences: false,
        deps: false,
        ..EnumConfig::hw(Arch::Power, 2)
    };
    for workers in [1, 3] {
        let walk = |cfg: &EnumConfig| Walk::new(cfg).workers(workers);

        let full = synthesise(&walk(&table1), &X86::tm(), &X86::base(), None);
        let cut = synthesise(&walk(&table1), &X86::tm(), &X86::base(), zero);
        assert!(full.complete && !full.forbid.is_empty());
        assert!(!cut.complete, "synthesis, {workers} workers");
        assert!(cut.forbid.is_empty() && cut.allow.is_empty());
        assert!(cut.candidates < full.candidates);

        let full = check_monotonicity(&walk(&split_rmw), &Power::tm(), None);
        let cut = check_monotonicity(&walk(&split_rmw), &Power::tm(), zero);
        assert!(full.complete && full.counterexample.is_some());
        assert!(!cut.complete, "monotonicity, {workers} workers");
        assert!(cut.counterexample.is_none() && cut.checked < full.checked);

        let cpp = walk(&compile_cfg(2));
        let full = check_compilation(&cpp, Arch::X86, None);
        let cut = check_compilation(&cpp, Arch::X86, zero);
        assert!(full.complete && full.checked > 0);
        assert!(!cut.complete, "compilation, {workers} workers");
        assert!(cut.counterexample.is_none() && cut.checked < full.checked);

        let cpp = walk(&theorem_cfg(2));
        for (name, check) in [
            ("7.2", check_theorem_7_2 as fn(&Walk, _) -> _),
            ("7.3", check_theorem_7_3),
        ] {
            let full = check(&cpp, None);
            let cut = check(&cpp, zero);
            assert!(full.complete && full.checked > 0, "Theorem {name}");
            assert!(!cut.complete, "Theorem {name}, {workers} workers");
            assert!(cut.counterexample.is_none() && cut.checked < full.checked);
        }
    }
}
