//! The paper's headline finding, end to end: lock elision is unsound
//! under the proposed ARMv8 TM extension (Example 1.1 / Fig. 10 / §8.3),
//! sound on x86, and repaired on ARMv8 by a DMB.
//!
//! ```sh
//! cargo run --example lock_elision
//! ```

use txmm::core::display;
use txmm::hwsim::observable;
use txmm::litmus::render;
use txmm::models::catalog;
use txmm::prelude::*;
use txmm::verify::violates_cr_order;

fn main() {
    // 1. The abstract program (Fig. 10, left): two critical regions on
    //    x, the second elided. Its communication edges violate mutual
    //    exclusion — CROrder rejects it.
    let abstract_x = catalog::elision_abstract();
    println!(
        "== abstract execution (Fig. 10, left) ==\n{}",
        display::render(&abstract_x)
    );
    println!(
        "violates CROrder (mutual exclusion): {}\n",
        violates_cr_order(&abstract_x)
    );

    // 2. The concrete ARMv8 execution (Example 1.1): the recommended
    //    spinlock on thread 0, lock elision on thread 1. CONSISTENT
    //    under the transactional ARMv8 model — the bug.
    let concrete = catalog::armv8_elision(false);
    println!(
        "== concrete ARMv8 execution (Example 1.1) ==\n{}",
        display::render(&concrete)
    );
    println!("ARMv8-TM verdict: {}", Armv8::tm().check(&concrete));

    // 3. It is not just an axiom artefact: the operational ARMv8
    //    simulator executes the forbidden outcome (x = 2).
    let test = litmus_from_execution("example-1.1", &concrete, Arch::Armv8);
    println!("\n== litmus test ==\n{}", render::assembly(&test));
    println!(
        "observable on the ARMv8 simulator: {}",
        observable(&test) == Some(true)
    );

    // 4. The §1.1 repair: append a DMB to lock(). Now the model forbids
    //    the execution and the simulator cannot reach it.
    let fixed = catalog::armv8_elision(true);
    let fixed_test = litmus_from_execution("example-1.1+dmb", &fixed, Arch::Armv8);
    println!("\n== with the DMB repair ==");
    println!("ARMv8-TM verdict: {}", Armv8::tm().check(&fixed));
    println!(
        "observable on the ARMv8 simulator: {}",
        observable(&fixed_test) == Some(true)
    );

    // 5. The automated §8.3 check across all four Table 3 columns.
    println!("\n== automated lock-elision check (§8.3) ==");
    for target in [
        ElisionTarget::X86,
        ElisionTarget::Power,
        ElisionTarget::Armv8,
        ElisionTarget::Armv8Fixed,
    ] {
        let r = check_lock_elision(target, None);
        println!(
            "  {:<14} {:>8.2?}  {}",
            target.name(),
            r.elapsed,
            match r.counterexample {
                Some(_) => "counterexample found",
                None => "no counterexample (bounded-exhaustive)",
            }
        );
    }

    // 6. Appendix B: the second witness — stores float too.
    let appb = catalog::armv8_elision_appendix_b(false);
    println!("\n== Appendix B witness ==");
    println!("ARMv8-TM verdict: {}", Armv8::tm().check(&appb));
    let appb_test = litmus_from_execution("appendix-b", &appb, Arch::Armv8);
    println!(
        "observable on the ARMv8 simulator: {}",
        observable(&appb_test) == Some(true)
    );
}
