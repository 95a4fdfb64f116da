//! End-to-end lock-elision validation (§1.1, §8.3, Appendix B): the
//! checker, the catalog witnesses, the simulators and the litmus
//! machinery all tell the same story.

use txmm::hwsim::observable;
use txmm::models::catalog;
use txmm::prelude::*;
use txmm::synth::canon_key;
use txmm::verify::{expand, violates_cr_order};

#[test]
fn armv8_counterexample_matches_example_1_1() {
    let r = check_lock_elision(ElisionTarget::Armv8, None);
    let (abs, conc) = r.counterexample.expect("ARMv8 elision is unsound");
    assert!(violates_cr_order(&abs));
    assert!(Armv8::tm().consistent(&conc));
    // The concrete witness is executable on the ARMv8 simulator.
    let t = litmus_from_execution("witness", &conc, Arch::Armv8);
    assert!(
        observable(&t) == Some(true),
        "the bug is dynamically reachable"
    );
}

#[test]
fn fig10_expansion_yields_example_1_1() {
    let ys = expand(&catalog::elision_abstract(), ElisionTarget::Armv8);
    let key = canon_key(&catalog::armv8_elision(false));
    assert!(ys.iter().any(|y| canon_key(y) == key));
}

#[test]
fn dmb_repair_closes_every_expansion() {
    // Every concrete completion of Fig. 10's abstract execution is
    // forbidden once the DMB is in place.
    let ys = expand(&catalog::elision_abstract(), ElisionTarget::Armv8Fixed);
    assert!(!ys.is_empty());
    for y in &ys {
        assert!(
            !Armv8::tm().consistent(y),
            "a DMB-fixed expansion is still consistent"
        );
    }
}

#[test]
fn x86_expansions_all_forbidden() {
    let ys = expand(&catalog::elision_abstract(), ElisionTarget::X86);
    assert!(!ys.is_empty());
    for y in &ys {
        assert!(!X86::tm().consistent(y), "x86 lock elision must hold");
    }
}

#[test]
fn sound_targets_have_no_counterexample() {
    for target in [ElisionTarget::X86, ElisionTarget::Armv8Fixed] {
        let r = check_lock_elision(target, None);
        assert!(
            r.counterexample.is_none(),
            "{} must be sound",
            target.name()
        );
        assert!(r.complete);
    }
}

#[test]
fn power_divergence_documented() {
    // Fig. 6 as printed admits a candidate pair (the paper's own check
    // timed out: Table 2 reports Unknown). The operational Power
    // simulator does NOT exhibit the candidate — evidence that the
    // printed axioms, not the hardware, are the weak point. Both facts
    // are part of the reproduction (README, Fidelity).
    let r = check_lock_elision(ElisionTarget::Power, None);
    let (_, conc) = r
        .counterexample
        .expect("candidate pair under Fig. 6 as printed");
    assert!(Power::tm().consistent(&conc));
    let t = litmus_from_execution("power-candidate", &conc, Arch::Power);
    assert!(
        observable(&t) == Some(false),
        "the operational machine refuses the candidate outcome"
    );
}

#[test]
fn appendix_b_witness_story() {
    // Second witness: an external load sees an intermediate CR write.
    let x = catalog::armv8_elision_appendix_b(false);
    assert!(Armv8::tm().consistent(&x), "Appendix B witness is admitted");
    let t = litmus_from_execution("appb", &x, Arch::Armv8);
    assert!(observable(&t) == Some(true));
    let fixed = catalog::armv8_elision_appendix_b(true);
    assert!(!Armv8::tm().consistent(&fixed));
    let t2 = litmus_from_execution("appb-dmb", &fixed, Arch::Armv8);
    assert!(observable(&t2) == Some(false));
}

#[test]
fn elision_witnesses_cross_checked_in_cat() {
    // The .cat ARMv8 model agrees with the native one on both witnesses
    // and their repairs.
    let m = txmm::cat::cat_model("armv8-tm").expect("shipped");
    assert!(m.consistent(&catalog::armv8_elision(false)).unwrap());
    assert!(!m.consistent(&catalog::armv8_elision(true)).unwrap());
    assert!(m
        .consistent(&catalog::armv8_elision_appendix_b(false))
        .unwrap());
    assert!(!m
        .consistent(&catalog::armv8_elision_appendix_b(true))
        .unwrap());
}
