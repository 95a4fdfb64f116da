//! Regenerates **Table 2**: the metatheory matrix — monotonicity (§8.1),
//! C++-to-hardware compilation (§8.2) and lock elision (§8.3).
//!
//! Expected shape (matching the paper): monotonicity counterexamples for
//! Power and ARMv8 at |E| = 2 (found in well under a second), none for
//! x86/C++; compilation sound everywhere; a lock-elision counterexample
//! for ARMv8 only — with one documented divergence: for Power the paper
//! timed out (Unknown), while our bounded checker finds a candidate pair
//! under Fig. 6 as printed (see the README's Fidelity section).

use txmm::session::Session;
use txmm_bench::secs;
use txmm_core::display;
use txmm_models::Arch;
use txmm_synth::EnumConfig;
use txmm_verify::ElisionTarget;

fn mono_cfg(arch: Arch, events: usize) -> EnumConfig {
    EnumConfig {
        arch,
        events,
        max_threads: 2,
        max_locs: 2,
        fences: true,
        deps: matches!(arch, Arch::Power | Arch::Armv8),
        rmws: true,
        txns: true,
        attrs: matches!(arch, Arch::Armv8 | Arch::Cpp),
        atomic_txns: arch == Arch::Cpp,
    }
}

fn main() {
    let verbose = std::env::var("TXMM_VERBOSE").is_ok();
    println!("== Table 2: metatheoretical results ==\n");
    println!(
        "{:<14} {:<14} {:>7} {:>10}   C'ex?",
        "Property", "Target", "Events", "Time"
    );
    let session = Session::new();

    // Monotonicity (paper: x86@6 ✗, Power@2 ✓, ARMv8@2 ✓, C++@6 ✗).
    let mono: Vec<(&str, &str, Arch, usize)> = vec![
        ("Monotonicity", "x86-tm", Arch::X86, 4),
        ("Monotonicity", "power-tm", Arch::Power, 2),
        ("Monotonicity", "armv8-tm", Arch::Armv8, 2),
        ("Monotonicity", "cpp-tm", Arch::Cpp, 3),
    ];
    for (prop, model, arch, events) in mono {
        let model = session.resolve(model).expect("registered model");
        let r = session.check_monotonicity(&mono_cfg(arch, events), model, None);
        println!(
            "{:<14} {:<14} {:>7} {:>10}   {}",
            prop,
            arch.name(),
            events,
            secs(r.elapsed),
            match &r.counterexample {
                Some(_) => "YES (paper: YES for Power/ARMv8)",
                None => "no",
            }
        );
        if verbose {
            if let Some((x, y)) = &r.counterexample {
                println!("--- inconsistent X:\n{}", display::render(x));
                println!("--- consistent Y (more stxn):\n{}", display::render(y));
            }
        }
    }

    // Compilation (paper: sound to all three at 6 events).
    for target in [Arch::X86, Arch::Power, Arch::Armv8] {
        let r = session.check_compilation(3, target, None);
        println!(
            "{:<14} {:<14} {:>7} {:>10}   {}",
            "Compilation",
            format!("C++/{}", target.name()),
            3,
            secs(r.elapsed),
            if r.counterexample.is_some() {
                "YES (unexpected!)"
            } else {
                "no"
            }
        );
    }

    // Lock elision (paper: x86 U, Power U, ARMv8 YES in 63s, fixed U).
    for target in [
        ElisionTarget::X86,
        ElisionTarget::Power,
        ElisionTarget::Armv8,
        ElisionTarget::Armv8Fixed,
    ] {
        let r = session.check_lock_elision(target, None);
        let verdict = match (&r.counterexample, target) {
            (Some(_), ElisionTarget::Armv8) => "YES — Example 1.1 (paper: YES, 63s)",
            (Some(_), ElisionTarget::Power) => {
                "YES candidate (paper: timeout/Unknown — see README, Fidelity)"
            }
            (Some(_), _) => "YES (unexpected!)",
            (None, _) => "no (exhaustive at this bound)",
        };
        println!(
            "{:<14} {:<14} {:>7} {:>10}   {}",
            "Lock elision",
            target.name(),
            9,
            secs(r.elapsed),
            verdict
        );
        if verbose {
            if let Some((x, y)) = &r.counterexample {
                println!("--- abstract X (violates CROrder):\n{}", display::render(x));
                println!("--- concrete Y (consistent):\n{}", display::render(y));
            }
        }
    }

    println!("\nRun with TXMM_VERBOSE=1 to print the counterexample executions.");
}
