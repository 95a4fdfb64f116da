//! Measurement driver for the pruned-enumeration numbers cited in the
//! README and pinned in `tests/enumeration_golden.rs`.
//!
//! Targets: `quick` (the |E| ≤ 4 spaces plus x86 |E| = 5) and
//! `x866`/`power5`/`power6`/`armv85`/`armv86` (one heavyweight bound
//! each, hours+ for the latter three on one core). A missing or unknown
//! target, or any other word that is not a telemetry flag, exits 1 with
//! `error: ...`.
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

/// Every target.
const TARGETS: [&str; 6] = ["quick", "x866", "power5", "power6", "armv85", "armv86"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One telemetry setup for the whole invocation: multi-bound
    // targets (`quick`) accumulate into the same progress stream and
    // keep one sidecar socket. The target is the only other argument.
    let targets = TARGETS.join(", ");
    let (tele, which) = Telemetry::from_args(&args)
        .and_then(|(tele, rest)| match rest[..] {
            [which] if TARGETS.contains(&which) => Ok((tele, which)),
            [which] => Err(format!("unknown target {which:?} (targets: {targets})")),
            [] => Err(format!("no target (targets: {targets})")),
            [_, extra, ..] => Err(format!("unknown argument {extra:?}")),
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    let t = tele.as_ref();
    match which {
        "power5" => run(t, "power", Arch::Power, &Power::tm(), 5),
        "armv85" => run(t, "armv8", Arch::Armv8, &Armv8::tm(), 5),
        "x866" => run(t, "x86", Arch::X86, &X86::tm(), 6),
        "power6" => run(t, "power", Arch::Power, &Power::tm(), 6),
        "armv86" => run(t, "armv8", Arch::Armv8, &Armv8::tm(), 6),
        _ => {
            run(t, "x86", Arch::X86, &X86::tm(), 4);
            run(t, "x86", Arch::X86, &X86::tm(), 5);
            run(t, "power", Arch::Power, &Power::tm(), 4);
            run(t, "armv8", Arch::Armv8, &Armv8::tm(), 4);
        }
    }
    if let Some(t) = tele {
        t.finish();
    }
}
