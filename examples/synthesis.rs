//! Conformance-test synthesis (§4.2): generate the minimally-forbidden
//! and maximally-allowed suites for the transactional x86 model and run
//! them on the simulated hardware — a miniature Table 1 row.
//!
//! ```sh
//! cargo run --release --example synthesis
//! ```

use txmm::hwsim::observable;
use txmm::litmus::render;
use txmm::prelude::*;

fn main() {
    let events = txmm::corpus::event_bound_from_env(3).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let cfg = EnumConfig {
        arch: Arch::X86,
        events,
        max_threads: 3,
        max_locs: 2,
        fences: true,
        deps: false,
        rmws: true,
        txns: true,
        attrs: false,
        atomic_txns: false,
    };
    println!("synthesising x86 Forbid/Allow suites at |E| = {events} ...");
    let r = synthesise(&Walk::new(&cfg), &X86::tm(), &X86::base(), None);
    println!(
        "{} candidates -> {} Forbid, {} Allow ({:.2}s, {})\n",
        r.candidates,
        r.forbid.len(),
        r.allow.len(),
        r.elapsed.as_secs_f64(),
        if r.complete {
            "complete"
        } else {
            "non-exhaustive"
        },
    );

    for (i, f) in r.forbid.iter().enumerate() {
        let t = litmus_from_execution(&format!("forbid-{i}"), &f.exec, Arch::X86);
        println!("--- Forbid test {i} ---");
        println!("{}", render::pseudocode(&t));
        let verdict = X86::tm().check(&f.exec);
        println!("forbidden by: {}", verdict.violations().join(", "));
        println!(
            "observable on the x86 simulator: {} (must be false)\n",
            observable(&t) == Some(true)
        );
    }

    let seen = r
        .allow
        .iter()
        .filter(|a| {
            let t = litmus_from_execution("allow", a, Arch::X86);
            observable(&t) == Some(true)
        })
        .count();
    println!(
        "Allow suite: {}/{} observable on the simulator (the paper reports 83% across all sizes)",
        seen,
        r.allow.len()
    );
}
