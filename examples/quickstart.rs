//! Quickstart: build an execution, check it against the models, turn it
//! into a litmus test, and run it on the simulated hardware.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use txmm::core::display;
use txmm::hwsim::observable;
use txmm::litmus::render;
use txmm::prelude::*;

fn main() {
    // Store buffering — the hallmark weak behaviour: each thread writes
    // one location and reads the other; both reads see initial values.
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let w0 = b.write(t0, 0); // x = 1
    let r0 = b.read(t0, 1); //  r0 = y (reads 0)
    let t1 = b.new_thread();
    let w1 = b.write(t1, 1); // y = 1
    let r1 = b.read(t1, 0); //  r1 = x (reads 0)
    let sb = b.build().expect("well-formed");

    println!(
        "== the store-buffering execution ==\n{}",
        display::render(&sb)
    );

    // Model verdicts: SC forbids it, every hardware model allows it.
    for model in txmm::models::registry::all_models() {
        if model.arch() == Arch::Cpp {
            continue; // needs C++ mode annotations
        }
        println!("  {:<8} -> {}", model.name(), model.check(&sb));
    }

    // Wrap both threads in transactions: now every transactional model
    // forbids it (transactions appear atomic, §3.4).
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let w0b = b.write(t0, 0);
    let r0b = b.read(t0, 1);
    let t1 = b.new_thread();
    let w1b = b.write(t1, 1);
    let r1b = b.read(t1, 0);
    b.txn(&[w0b, r0b]);
    b.txn(&[w1b, r1b]);
    let sb_txn = b.build().expect("well-formed");
    println!("\n== with both sides transactional ==");
    for name in ["x86-tm", "power-tm", "armv8-tm", "TSC"] {
        let m = txmm::models::registry::by_name(name).expect("registered");
        println!("  {:<8} -> {}", name, m.check(&sb_txn));
    }

    // Convert to a litmus test and run it on the exhaustive x86-TSO
    // simulator: the plain version is observable, the transactional one
    // is not.
    let plain = litmus_from_execution("SB", &sb, Arch::X86);
    let txn = litmus_from_execution("SB+txns", &sb_txn, Arch::X86);
    println!("\n== x86 litmus test ==\n{}", render::assembly(&plain));
    println!(
        "observable on the x86-TSO+TSX simulator: {}",
        observable(&plain) == Some(true)
    );
    println!(
        "transactional version observable:        {}",
        observable(&txn) == Some(true)
    );

    let _ = (w0, r0, w1, r1);
}
