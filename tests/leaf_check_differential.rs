//! The leaf check must equal the full check on every layout of every
//! rf/co group.
//!
//! A [`LeafChecker`] checks the transaction layouts of one group back to
//! back over the slots and memos its first check captured, and Power's
//! bool-only check adds each layout's own terms (the `tfence` pairs, the
//! `thb` lift, the tprops) to the group's memoised compositions. Each
//! leaf's answer is compared with `check_analysis(..).is_consistent()`
//! on a fresh analysis, which derives Fig. 6 as printed. Some of the
//! layout's terms move no verdict at these bounds (a copy without `D`
//! in `efence`, or without the `thb` seed's `tfence` term, passes the
//! verdict comparison), so Power's split relations are also compared,
//! relation by relation, with the printed ones. Both read `prop2`'s
//! `come* ; efence* ; hb*` as `come* ; hb*`, which holds because
//! `efence ⊆ hb`; that inclusion is asserted on the same leaves. The
//! walks are unpruned, so groups that fail a txn-free axiom are
//! checked too.
//!
//! For models whose consistency survives deleting a whole transaction
//! the leaf check infers most verdicts from a few checked layouts, so
//! the comparison also covers the inference. That property is tested on
//! its own too, with the full check on both sides: every consistent
//! leaf minus any one of its transactions stays consistent, for every
//! model that declares it.
//!
//! The debug suite covers |E| ≤ 3 for every Power variant, x86-tm and
//! armv8-tm (the property: every declaring model); the release bounds
//! (Power |E| ≤ 4, x86 |E| ≤ 5, ARMv8 |E| ≤ 3) run under `--ignored` in
//! CI's `prune-smoke` job.

use std::sync::atomic::{AtomicUsize, Ordering};

use txmm::core::{Execution, TxnFreeBase};
use txmm::models::{Arch, Armv8, Highlights, Model, Power, PowerAblated, PowerAblation, X86};
use txmm::synth::{EnumConfig, LeafChecker, Walk};

/// Run `f` on every leaf of the unpruned walks over |E| = 1..=`events`,
/// each worker with its own state from `init`, in emission order within
/// a worker; returns the leaves visited.
fn each_leaf<S: Send>(
    arch: Arch,
    events: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&Execution, &mut S) + Sync,
) -> usize {
    let mut leaves = 0;
    for n in 1..=events {
        let (states, ..) = Walk::new(&EnumConfig::hw(arch, n)).visit(
            |_| (init(), 0usize),
            |_, x, (s, count)| {
                f(x, s);
                *count += 1;
            },
        );
        leaves += states.iter().map(|s| s.1).sum::<usize>();
    }
    leaves
}

/// The leaf check against the full check.
fn leaf_checks_agree(arch: Arch, events: usize, model: &dyn Model) -> usize {
    each_leaf(
        arch,
        events,
        || LeafChecker::new(model),
        |x, check| {
            let full = model.check_analysis(&x.analysis());
            assert_eq!(
                check.consistent(x),
                full.is_consistent(),
                "{}: leaf check disagrees with {full} on {x:?}",
                model.name()
            );
        },
    )
}

/// Power's split relations, over an analysis seeded from the group's
/// first layout as a leaf checker seeds it, against the printed ones,
/// whose `efence` must lie inside `hb`.
fn split_relations_agree(events: usize, hl: Highlights) -> usize {
    each_leaf(
        Arch::Power,
        events,
        || None::<TxnFreeBase>,
        |x, base| {
            if !base.as_ref().is_some_and(|b| b.matches(x)) {
                let a = x.analysis();
                Power::split_relations(&a, hl);
                *base = Some(TxnFreeBase::capture(&a));
            }
            let seeded = base.as_ref().expect("captured").seed(x);
            let printed = Power::relations(&x.analysis(), hl);
            assert!(
                printed.efence.is_subset(&printed.hb),
                "efence ⊄ hb: {hl:?} on {x:?}"
            );
            assert_eq!(
                Power::split_relations(&seeded, hl),
                printed,
                "{hl:?} on {x:?}"
            );
        },
    )
}

const DROPS: [PowerAblation; 5] = [
    PowerAblation::NoTprop1,
    PowerAblation::NoTprop2,
    PowerAblation::NoThb,
    PowerAblation::NoTxnCancelsRmw,
    PowerAblation::NoTfence,
];

#[test]
fn leaf_checks_agree_at_three_events() {
    let mut models: Vec<Box<dyn Model>> = vec![Box::new(Power::tm()), Box::new(Power::base())];
    for drop in DROPS {
        models.push(Box::new(PowerAblated { drop }));
    }
    for m in &models {
        assert!(leaf_checks_agree(Arch::Power, 3, m.as_ref()) > 0);
    }
    assert!(leaf_checks_agree(Arch::X86, 3, &X86::tm()) > 0);
    assert!(leaf_checks_agree(Arch::Armv8, 3, &Armv8::tm()) > 0);
}

#[test]
fn split_relations_agree_at_three_events() {
    // `power-tm`, `power` and each ablation's highlights.
    let mut sets = vec![Highlights::ALL, Highlights::NONE];
    for h in [
        Highlights::TPROP1,
        Highlights::TPROP2,
        Highlights::THB,
        Highlights::TXN_CANCELS_RMW,
        Highlights::TFENCE,
    ] {
        sets.push(Highlights::ALL.without(h));
    }
    for hl in sets {
        assert!(split_relations_agree(3, hl) > 0);
    }
}

#[test]
#[ignore = "release bounds: run by CI's prune-smoke job"]
fn leaf_checks_agree_at_release_bounds() {
    leaf_checks_agree(Arch::Power, 4, &Power::tm());
    leaf_checks_agree(Arch::X86, 5, &X86::tm());
    leaf_checks_agree(Arch::Armv8, 3, &Armv8::tm());
    split_relations_agree(4, Highlights::ALL);
}

/// The property the leaf check infers from, tested on its own: on every
/// leaf the model deems consistent, deleting any one whole transaction
/// leaves a consistent execution. Both sides are `check_analysis` on a
/// fresh analysis. Returns the deletions checked.
fn deletions_stay_consistent(arch: Arch, events: usize, model: &dyn Model) -> usize {
    assert!(model.survives_txn_deletion(), "{}", model.name());
    let deletions = AtomicUsize::new(0);
    each_leaf(
        arch,
        events,
        || (),
        |x, _| {
            if x.txns().is_empty() || !model.check_analysis(&x.analysis()).is_consistent() {
                return;
            }
            for t in 0..x.txns().len() {
                let mut txns = x.txns().to_vec();
                txns.remove(t);
                let y = x.with_txns(txns);
                let v = model.check_analysis(&y.analysis());
                assert!(
                    v.is_consistent(),
                    "{}: deleting transaction {t} of consistent {x:?} gives {v}",
                    model.name()
                );
            }
            deletions.fetch_add(x.txns().len(), Ordering::Relaxed);
        },
    );
    deletions.into_inner()
}

/// Every model that declares the property: x86, Power (every variant)
/// and ARMv8, with and without transactions.
fn declaring_models() -> Vec<(Arch, Box<dyn Model>)> {
    let mut models: Vec<(Arch, Box<dyn Model>)> = vec![
        (Arch::X86, Box::new(X86::tm())),
        (Arch::X86, Box::new(X86::base())),
        (Arch::Power, Box::new(Power::tm())),
        (Arch::Power, Box::new(Power::base())),
        (Arch::Armv8, Box::new(Armv8::tm())),
        (Arch::Armv8, Box::new(Armv8::base())),
    ];
    for drop in DROPS {
        models.push((Arch::Power, Box::new(PowerAblated { drop })));
    }
    models
}

#[test]
fn deleting_a_transaction_keeps_consistency_at_three_events() {
    for (arch, m) in declaring_models() {
        assert!(
            deletions_stay_consistent(arch, 3, m.as_ref()) > 0,
            "{}",
            m.name()
        );
    }
}

#[test]
#[ignore = "release bounds: run by CI's prune-smoke job"]
fn deleting_a_transaction_keeps_consistency_at_release_bounds() {
    deletions_stay_consistent(Arch::Power, 4, &Power::tm());
    deletions_stay_consistent(Arch::X86, 5, &X86::tm());
    deletions_stay_consistent(Arch::Armv8, 3, &Armv8::tm());
}
