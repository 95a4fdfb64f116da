//! Integration: every named execution from the paper gets the paper's
//! verdict from the native models, the `.cat` models, and — where an
//! architecture applies — the operational simulators.

use txmm::cat::cat_model;
use txmm::hwsim::observable;
use txmm::litmus::litmus_from_execution;
use txmm::models::catalog::{self, Expect};
use txmm::models::registry::by_name;
use txmm::prelude::*;

#[test]
fn native_models_match_paper() {
    for entry in catalog::all() {
        for (model_name, expect) in &entry.expect {
            let model = by_name(model_name).expect("registered model");
            assert_eq!(
                model.consistent(&entry.exec),
                matches!(expect, Expect::Consistent),
                "{} under {}",
                entry.name,
                model_name
            );
        }
    }
}

#[test]
fn cat_models_match_paper() {
    for entry in catalog::all() {
        for (model_name, expect) in &entry.expect {
            let m = cat_model(model_name).expect("shipped cat model");
            assert_eq!(
                m.consistent(&entry.exec).expect("evaluates"),
                matches!(expect, Expect::Consistent),
                "{} under cat {}",
                entry.name,
                model_name
            );
        }
    }
}

/// The simulators must never observe what the TM model forbids, and the
/// paper's key allowed behaviours must be observable.
#[test]
fn simulators_respect_model_verdicts() {
    for entry in catalog::all() {
        if !entry.exec.calls().is_empty() {
            continue; // abstract executions have no machine semantics
        }
        for (model_name, expect) in &entry.expect {
            let arch = match *model_name {
                "x86-tm" => Arch::X86,
                "armv8-tm" => Arch::Armv8,
                "power-tm" => Arch::Power,
                _ => continue,
            };
            let t = litmus_from_execution(entry.name, &entry.exec, arch);
            let seen = observable(&t).expect("a hardware architecture's machine runs it");
            match expect {
                Expect::Forbidden => {
                    assert!(
                        !seen,
                        "{}: forbidden by {} but observable on its simulator",
                        entry.name, model_name
                    );
                }
                Expect::Consistent => {
                    // Consistent does not force observability (hardware
                    // may be conservative), but the flagship allowed
                    // behaviours must show up.
                    if matches!(
                        entry.name,
                        "sb" | "mp" | "armv8-elision" | "armv8-elision-appb" | "fig1"
                    ) {
                        assert!(
                            seen,
                            "{}: expected observable on the {} simulator",
                            entry.name,
                            arch.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn isolation_bounds_hold_on_catalog() {
    // §3.3/§3.4: StrongIsol is implied by TxnOrder (TSC) on every
    // catalog execution: anything TSC admits satisfies strong isolation.
    for entry in catalog::all() {
        if Tsc.consistent(&entry.exec) {
            assert!(
                txmm::models::strong_isolation(&entry.exec),
                "{}: TSC-consistent but not strongly isolated",
                entry.name
            );
        }
        // And weak isolation is weaker than strong isolation.
        if txmm::models::strong_isolation(&entry.exec) {
            assert!(txmm::models::weak_isolation(&entry.exec), "{}", entry.name);
        }
    }
}

#[test]
fn dongol_separation() {
    // §9: the Dongol et al. comparison — our Power model forbids the
    // MP-with-transactions execution (needed for sound compilation from
    // C++), and the C++ model forbids its source. Models "significantly
    // weaker than ours" (no lifted-communication axioms at all) admit
    // it; in our framework even the isolation lifts detect the cycle,
    // confirming our models sit strictly above Dongol et al.'s.
    let x = catalog::dongol();
    assert!(!Power::tm().consistent(&x));
    assert!(!Cpp::tm().consistent(&x));
    assert!(!txmm::models::weak_isolation(&x));
    // The non-transactional baseline allows the underlying MP shape, so
    // the verdict is genuinely transactional.
    assert!(Power::base().consistent(&x.erase_txns()));
}
