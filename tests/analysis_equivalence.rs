//! The shared-analysis refactor must be verdict-preserving: for every
//! named execution of the paper catalog and every registered model, the
//! verdict through a shared [`ExecutionAnalysis`] is byte-identical to
//! the verdict computed with a private per-check analysis, and the
//! cached derived relations agree with the direct `Execution`
//! derivations they replaced.

use txmm::core::{ExecutionAnalysis, Fence, MemoKey};
use txmm::models::catalog;
use txmm::models::registry::all_models;
use txmm::models::{PowerAblated, PowerAblation};
use txmm::prelude::*;

/// Every catalog execution, including the C++ variants and the abstract
/// lock-elision shape.
fn all_catalog_executions() -> Vec<(String, Execution)> {
    let mut out: Vec<(String, Execution)> = catalog::all()
        .into_iter()
        .map(|e| (e.name.to_string(), e.exec))
        .collect();
    for rel_acq in [false, true] {
        for txns in [false, true] {
            out.push((
                format!("cpp-mp-{rel_acq}-{txns}"),
                catalog::cpp_mp(rel_acq, txns),
            ));
        }
    }
    out.push(("elision-abstract".to_string(), catalog::elision_abstract()));
    out
}

#[test]
fn verdicts_identical_between_shared_and_private_analysis() {
    for (name, x) in all_catalog_executions() {
        let shared = x.analysis();
        for m in all_models() {
            let via_shared = m.check_analysis(&shared);
            let via_private = m.check(&x);
            assert_eq!(
                via_shared,
                via_private,
                "{name} under {}: shared vs private analysis verdicts differ",
                m.name()
            );
        }
    }
}

#[test]
fn shared_analysis_is_reusable_across_models_in_any_order() {
    // Cache state left behind by one model must never leak into
    // another's verdict: check in both registry orders.
    for (name, x) in all_catalog_executions() {
        let forward = x.analysis();
        let backward = x.analysis();
        let models = all_models();
        let mut fwd: Vec<Verdict> = models.iter().map(|m| m.check_analysis(&forward)).collect();
        let bwd: Vec<Verdict> = models
            .iter()
            .rev()
            .map(|m| m.check_analysis(&backward))
            .collect();
        fwd.reverse();
        assert_eq!(fwd, bwd, "{name}: model order changed a verdict");
    }
}

#[test]
fn every_memo_key_has_a_slot() {
    // `Session::verdicts_for` checks every model on one shared
    // analysis: every native model and every Power variant, checked in
    // either order through both the full and the bool-only path, must
    // find each memo it claims cached, and no key may be recomputed.
    let mut models = all_models();
    for drop in [
        PowerAblation::NoTprop1,
        PowerAblation::NoTprop2,
        PowerAblation::NoThb,
        PowerAblation::NoTxnCancelsRmw,
        PowerAblation::NoTfence,
    ] {
        models.push(Box::new(PowerAblated { drop }));
    }
    for (name, x) in all_catalog_executions() {
        let private: Vec<Verdict> = models.iter().map(|m| m.check(&x)).collect();
        for backward in [false, true] {
            let a = x.analysis();
            let mut order: Vec<usize> = (0..models.len()).collect();
            if backward {
                order.reverse();
            }
            for i in order {
                let m = &models[i];
                assert_eq!(
                    m.check_analysis(&a),
                    private[i],
                    "{name} under {}",
                    m.name()
                );
                assert_eq!(
                    m.consistent_analysis(&a),
                    private[i].is_consistent(),
                    "{name} under {}",
                    m.name()
                );
            }
            for key in MemoKey::ALL {
                a.memo(key, || panic!("{name}: {key:?} was not cached"));
            }
        }
    }
}

#[test]
fn cached_relations_match_direct_derivations() {
    for (name, x) in all_catalog_executions() {
        let a = ExecutionAnalysis::new(&x);
        assert_eq!(*a.fr(), x.fr(), "{name}: fr");
        assert_eq!(*a.com(), x.com(), "{name}: com");
        assert_eq!(*a.sloc(), x.sloc(), "{name}: sloc");
        assert_eq!(*a.sthd(), x.sthd(), "{name}: sthd");
        assert_eq!(*a.po_loc(), x.po_loc(), "{name}: po_loc");
        assert_eq!(*a.rfe(), x.rfe(), "{name}: rfe");
        assert_eq!(*a.rfi(), x.rfi(), "{name}: rfi");
        assert_eq!(*a.coe(), x.coe(), "{name}: coe");
        assert_eq!(*a.coi(), x.coi(), "{name}: coi");
        assert_eq!(*a.fre(), x.fre(), "{name}: fre");
        assert_eq!(*a.fri(), x.fri(), "{name}: fri");
        assert_eq!(*a.come(), x.come(), "{name}: come");
        assert_eq!(*a.stxn(), x.stxn(), "{name}: stxn");
        assert_eq!(*a.stxnat(), x.stxnat(), "{name}: stxnat");
        assert_eq!(*a.tfence(), x.tfence(), "{name}: tfence");
        assert_eq!(*a.scr(), x.scr(), "{name}: scr");
        assert_eq!(*a.scrt(), x.scrt(), "{name}: scrt");
        for f in Fence::ALL {
            assert_eq!(*a.fence_rel(f), x.fence_rel(f), "{name}: fence_rel({f:?})");
        }
    }
}

#[test]
fn cat_models_agree_through_shared_builtins() {
    // The .cat evaluator now serves builtins from the analysis; its
    // verdicts must keep matching the native models on the catalog.
    for entry in catalog::all() {
        for (model_name, _) in &entry.expect {
            let Some(cat) = txmm::cat::cat_model(model_name) else {
                continue;
            };
            let native = txmm::models::registry::by_name(model_name).expect("native model");
            assert_eq!(
                cat.consistent(&entry.exec).expect("cat evaluates"),
                native.consistent(&entry.exec),
                "{} under {model_name}",
                entry.name
            );
        }
    }
}
