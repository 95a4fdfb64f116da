//! Regenerates **Table 1**: synthesis of transactional conformance tests
//! for x86 and Power, with each test "run" on the simulated hardware.
//!
//! Columns follow the paper: per event count, synthesis time, the number
//! of Forbid tests (T) with how many were seen (S) / not seen (¬S) on
//! the implementation, and the same for the Allow tests.
//!
//! Bounds: the paper reaches |E| = 7 (x86) / 6 (Power) with a SAT
//! backend and multi-hour budgets; the default here is |E| ≤ 4 so the
//! table regenerates in minutes. Set `TXMM_MAX_EVENTS=5` (and some
//! patience) for a deeper run. Expected *shape*: Forbid tests are never
//! observed; most Allow tests are observed, with the Power gap coming
//! from load-buffering shapes (§5.3).

use txmm::session::Session;
use txmm_bench::{secs, table1_config};
use txmm_models::Arch;
use txmm_synth::{txn_histogram, FoundTest};

fn run_arch(session: &mut Session, arch: Arch, tm: &str, base: &str, max_events: usize) {
    let tm = session.resolve(tm).expect("registered model");
    let base = session.resolve(base).expect("registered model");
    println!("Arch.  |E|  Synth(s)  Forbid:  T    S   ¬S   Allow:  T    S   ¬S");
    let mut totals = [0usize; 6];
    let mut all_forbid: Vec<FoundTest> = Vec::new();
    for events in 2..=max_events {
        let cfg = table1_config(arch, events);
        let r = session.synthesise(&cfg, tm, base, None);
        let fs = r.forbid.len();
        let f_seen = r
            .forbid
            .iter()
            .filter(|f| session.observable(&f.exec, arch) == Some(true))
            .count();
        let a_seen = r
            .allow
            .iter()
            .filter(|a| session.observable(a, arch) == Some(true))
            .count();
        let als = r.allow.len();
        println!(
            "{:<6} {:<4} {:<9} {:>10} {:>4} {:>4} {:>10} {:>4} {:>4}{}",
            arch.name(),
            events,
            secs(r.elapsed),
            fs,
            f_seen,
            fs - f_seen,
            als,
            a_seen,
            als - a_seen,
            if r.complete { "" } else { "  (non-exhaustive)" },
        );
        totals[0] += fs;
        totals[1] += f_seen;
        totals[2] += fs - f_seen;
        totals[3] += als;
        totals[4] += a_seen;
        totals[5] += als - a_seen;
        all_forbid.extend(r.forbid);
    }
    println!(
        "Total ({}):            {:>10} {:>4} {:>4} {:>10} {:>4} {:>4}",
        arch.name(),
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        totals[4],
        totals[5],
    );
    let h = txn_histogram(&all_forbid);
    let total = totals[0].max(1);
    println!(
        "Forbid transaction histogram: 1 txn {}%, 2 txns {}%, 3 txns {}%",
        h[1] * 100 / total,
        h[2] * 100 / total,
        h[3] * 100 / total
    );
    if totals[1] == 0 {
        println!(
            "=> no Forbid test observable on the simulated hardware: the {} model is not too strong",
            arch.name()
        );
    } else {
        println!(
            "=> WARNING: {} Forbid tests observed — model too strong!",
            totals[1]
        );
    }
    if let Some(pct) = (totals[4] * 100).checked_div(totals[3]) {
        println!(
            "=> {pct}% of Allow tests observable (paper: 83% x86 / 88% Power; Power gap = LB shapes)"
        );
    }
    println!();
}

fn main() {
    let (max_events, tele) = txmm_bench::driver_args();
    println!("== Table 1: testing the transactional x86 and Power models ==");
    println!("   (paper bounds: |E| ≤ 7/6 with SAT + hours; ours: |E| ≤ {max_events})\n");
    let mut session = Session::new();
    if let Some(t) = &tele {
        session.set_walk_progress(Some(t.progress.clone()));
    }
    run_arch(&mut session, Arch::X86, "x86-tm", "x86", max_events);
    run_arch(&mut session, Arch::Power, "power-tm", "power", max_events);
    if let Some(t) = tele {
        t.finish();
    }
}
