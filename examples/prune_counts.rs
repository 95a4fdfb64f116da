//! Measurement driver for the pruned-enumeration numbers cited in the
//! README and pinned in `tests/enumeration_golden.rs`.
//!
//! Subcommands: `quick` (the |E| ≤ 4 spaces plus x86 |E| = 5) and
//! `x866`/`power5`/`power6`/`armv85`/`armv86` (one heavyweight bound
//! each, hours+ for the latter three on one core).
//!
//! Every subcommand also takes `--progress[=SECS]` (heartbeat JSONL
//! frames on stderr, or in FILE with `--progress-file FILE`) and
//! `--metrics-listen ADDR` (scrapeable live metrics) so the hours-long
//! bounds can be watched; see "Watching long runs" in the README.
use std::time::Instant;
use txmm::models::{Arch, Armv8, Model, Power, X86};
use txmm::obs::Telemetry;
use txmm::synth::{EnumConfig, Walk};

fn run(tele: Option<&Telemetry>, name: &str, arch: Arch, model: &dyn Model, events: usize) {
    let t0 = Instant::now();
    let (n, st) = Walk::new(&EnumConfig::hw(arch, events))
        .consistent(model)
        .progress(tele.map(|t| t.progress.as_ref()))
        .count();
    println!(
        "{name} |E|={events}: {n} consistent in {:.2}s (cut={} skipped={} calls={} delta={} fallback={} batches={})",
        t0.elapsed().as_secs_f64(),
        st.subtrees_cut,
        st.candidates_skipped,
        st.oracle_calls,
        st.delta_answers,
        st.fallbacks,
        st.batches,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().cloned().unwrap_or_default();
    // One telemetry setup for the whole invocation: multi-bound
    // subcommands (`quick`) accumulate into the same progress stream
    // and keep one sidecar socket.
    let tele = Telemetry::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let t = tele.as_ref();
    match which.as_str() {
        "power5" => run(t, "power", Arch::Power, &Power::tm(), 5),
        "armv85" => run(t, "armv8", Arch::Armv8, &Armv8::tm(), 5),
        "x866" => run(t, "x86", Arch::X86, &X86::tm(), 6),
        "power6" => run(t, "power", Arch::Power, &Power::tm(), 6),
        "armv86" => run(t, "armv8", Arch::Armv8, &Armv8::tm(), 6),
        "quick" => {
            run(t, "x86", Arch::X86, &X86::tm(), 4);
            run(t, "x86", Arch::X86, &X86::tm(), 5);
            run(t, "power", Arch::Power, &Power::tm(), 4);
            run(t, "armv8", Arch::Armv8, &Armv8::tm(), 4);
        }
        other => eprintln!("unknown target {other:?}"),
    }
    if let Some(t) = tele {
        t.finish();
    }
}
