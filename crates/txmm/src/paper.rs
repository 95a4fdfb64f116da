//! The paper's evaluation runs, behind `txmm table1|fig7|table2|catalog|walk`:
//!
//! * [`table1`] — Forbid/Allow synthesis per event count for the
//!   transactional x86 and Power models, each test "run" on the
//!   hardware machine (Table 1);
//! * [`fig7`] — the distribution of synthesis times for the largest x86
//!   Forbid suite (Fig. 7);
//! * [`table2`] — the metatheory matrix: monotonicity, C++ compilation,
//!   lock elision (Table 2);
//! * [`catalog()`] — every named execution of the paper with model
//!   verdicts, litmus renderings and machine observability (Figs. 1–3,
//!   10, §5.2, §8.1, §9, Ex. 1.1, App. B);
//! * [`walk`] — one consistent walk of a model with its prune counters,
//!   the counts pinned in `tests/enumeration_golden.rs`.
//!
//! Each run writes its report to the caller's writer and returns the
//! first write error. The walking runs take the caller's [`Session`],
//! so they report into the progress accumulator it attaches
//! ([`Session::set_walk_progress`]).

use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use txmm_core::{display, Execution};
use txmm_litmus::{litmus_from_execution, render};
use txmm_models::{catalog, registry, Arch};
use txmm_synth::{table1_config, txn_histogram, EnumConfig, FoundTest, Walk};
use txmm_verify::ElisionTarget;

use crate::session::{ModelRef, Session};

/// Regenerates **Table 1**: synthesis of transactional conformance
/// tests for x86 and Power at every `|E|` in `2..=max_events`, with
/// each test "run" on the hardware machine.
///
/// Columns follow the paper: per event count, synthesis time, the
/// number of Forbid tests (T) with how many were seen (S) / not seen
/// (¬S) on the implementation, and the same for the Allow tests.
///
/// Bounds: the paper reaches |E| = 7 (x86) / 6 (Power) with a SAT
/// backend and multi-hour budgets; `txmm table1` defaults to |E| ≤ 4
/// so the table regenerates in minutes. Expected *shape*: Forbid tests
/// are never observed; most Allow tests are observed, with the Power
/// gap coming from load-buffering shapes (§5.3).
pub fn table1(out: &mut impl Write, session: &mut Session, max_events: usize) -> io::Result<()> {
    writeln!(
        out,
        "== Table 1: testing the transactional x86 and Power models =="
    )?;
    writeln!(
        out,
        "   (paper bounds: |E| ≤ 7/6 with SAT + hours; ours: |E| ≤ {max_events})\n"
    )?;
    table1_rows(out, session, Arch::X86, "x86-tm", "x86", max_events)?;
    table1_rows(out, session, Arch::Power, "power-tm", "power", max_events)
}

/// One architecture's rows of Table 1, its totals and verdict lines.
fn table1_rows(
    out: &mut impl Write,
    session: &mut Session,
    arch: Arch,
    tm: &str,
    base: &str,
    max_events: usize,
) -> io::Result<()> {
    let tm = session.resolve(tm).expect("registered model");
    let base = session.resolve(base).expect("registered model");
    writeln!(
        out,
        "Arch.  |E|  Synth(s)  Forbid:  T    S   ¬S   Allow:  T    S   ¬S"
    )?;
    let mut totals = [0usize; 6];
    let mut all_forbid: Vec<FoundTest> = Vec::new();
    for events in 2..=max_events {
        let cfg = table1_config(arch, events);
        let r = session.synthesise(&cfg, tm, base, None);
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
        let (fs, als) = (r.forbid.len(), r.allow.len());
        // Forbid T, S, ¬S, then Allow T, S, ¬S.
        let row = [fs, f_seen, fs - f_seen, als, a_seen, als - a_seen];
        writeln!(
            out,
            "{:<6} {:<4} {:<9} {:>10} {:>4} {:>4} {:>10} {:>4} {:>4}{}",
            arch.name(),
            events,
            secs(r.elapsed),
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5],
            if r.complete { "" } else { "  (non-exhaustive)" },
        )?;
        for (total, n) in totals.iter_mut().zip(row) {
            *total += n;
        }
        all_forbid.extend(r.forbid);
    }
    writeln!(
        out,
        "Total ({}):            {:>10} {:>4} {:>4} {:>10} {:>4} {:>4}",
        arch.name(),
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        totals[4],
        totals[5],
    )?;
    let h = txn_histogram(&all_forbid);
    let total = totals[0].max(1);
    writeln!(
        out,
        "Forbid transaction histogram: 1 txn {}%, 2 txns {}%, 3 txns {}%",
        h[1] * 100 / total,
        h[2] * 100 / total,
        h[3] * 100 / total
    )?;
    if totals[1] == 0 {
        writeln!(
            out,
            "=> no Forbid test observable on the simulated hardware: the {} model is not too strong",
            arch.name()
        )?;
    } else {
        writeln!(
            out,
            "=> WARNING: {} Forbid tests observed — model too strong!",
            totals[1]
        )?;
    }
    if let Some(pct) = (totals[4] * 100).checked_div(totals[3]) {
        writeln!(
            out,
            "=> {pct}% of Allow tests observable (paper: 83% x86 / 88% Power; Power gap = LB shapes)"
        )?;
    }
    writeln!(out)
}

/// Regenerates **Fig. 7**: the distribution of synthesis times for the
/// x86 Forbid suite at `events` events.
///
/// The paper's observation: 98% of the 7-event tests are found within
/// 6% of the 34-hour total synthesis time (the tail merely confirms
/// exhaustion). The enumerative engine at the default |E| = 4 exhibits
/// the same front-loaded shape; the curve is printed as an ASCII plot
/// plus the percentile table.
pub fn fig7(out: &mut impl Write, session: &mut Session, events: usize) -> io::Result<()> {
    writeln!(
        out,
        "== Fig. 7: distribution of synthesis times ({events}-event x86 Forbid tests) ==\n"
    )?;
    let r = session.synthesise(
        &table1_config(Arch::X86, events),
        session.resolve("x86-tm").expect("registered"),
        session.resolve("x86").expect("registered"),
        None,
    );
    let total = r.elapsed;
    let mut times: Vec<f64> = r.forbid.iter().map(|f| f.at.as_secs_f64()).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = times.len();
    if n == 0 {
        return writeln!(out, "no Forbid tests at |E| = {events}");
    }
    writeln!(
        out,
        "{} tests found; total synthesis time {:.2}s ({} candidates examined)\n",
        n,
        total.as_secs_f64(),
        r.candidates
    )?;

    // ASCII cumulative curve: 50 columns of time, 20 rows of percentage.
    let width = 50usize;
    let height = 20usize;
    let tmax = total.as_secs_f64().max(1e-9);
    let rows: Vec<usize> = (0..width)
        .map(|col| {
            let t = tmax * (col as f64 + 1.0) / width as f64;
            let found = times.iter().filter(|&&x| x <= t).count();
            let pct = found as f64 / n as f64;
            (((1.0 - pct) * (height as f64 - 1.0)).round() as usize).min(height - 1)
        })
        .collect();
    writeln!(out, "Tests found (%)")?;
    for i in 0..height {
        let label = 100 - i * 100 / (height - 1);
        let line: String = rows
            .iter()
            .map(|&r| if r == i { '*' } else { ' ' })
            .collect();
        writeln!(out, "{label:>4}% |{line}")?;
    }
    writeln!(out, "      +{}", "-".repeat(width))?;
    writeln!(
        out,
        "       0{:>width$}",
        format!("{:.2}s", tmax),
        width = width - 1
    )?;

    writeln!(
        out,
        "\nPercentiles of discovery time (fraction of total synthesis time):"
    )?;
    for pct in [50, 75, 90, 95, 98, 100] {
        let idx = ((pct * n).div_ceil(100)).clamp(1, n) - 1;
        writeln!(
            out,
            "  {pct:>3}% of tests found within {:>6.2}% of total time",
            times[idx] / tmax * 100.0
        )?;
    }
    writeln!(
        out,
        "\n(paper: 98% of tests within 6% of total; the long tail only confirms exhaustion)"
    )
}

/// The monotonicity space of one architecture.
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

/// Regenerates **Table 2**: the metatheory matrix — monotonicity
/// (§8.1), C++-to-hardware compilation (§8.2) and lock elision (§8.3).
/// `verbose` also prints every counterexample execution.
///
/// Expected shape (matching the paper): monotonicity counterexamples
/// for Power and ARMv8 at |E| = 2 (found in well under a second), none
/// for x86/C++; compilation sound everywhere; a lock-elision
/// counterexample for ARMv8 only — with one documented divergence: for
/// Power the paper timed out (Unknown), while the bounded checker finds
/// a candidate pair under Fig. 6 as printed (see the README's Fidelity
/// section).
pub fn table2(out: &mut impl Write, verbose: bool) -> io::Result<()> {
    writeln!(out, "== Table 2: metatheoretical results ==\n")?;
    writeln!(
        out,
        "{:<14} {:<14} {:>7} {:>10}   C'ex?",
        "Property", "Target", "Events", "Time"
    )?;

    // Monotonicity (paper: x86@6 ✗, Power@2 ✓, ARMv8@2 ✓, C++@6 ✗).
    for (model, arch, events) in [
        ("x86-tm", Arch::X86, 4),
        ("power-tm", Arch::Power, 2),
        ("armv8-tm", Arch::Armv8, 2),
        ("cpp-tm", Arch::Cpp, 3),
    ] {
        let model = registry::by_name(model).expect("registered model");
        let walk = Walk::new(&mono_cfg(arch, events));
        let r = txmm_verify::check_monotonicity(&walk, model.as_ref(), None);
        let verdict = match &r.counterexample {
            Some(_) => "YES (paper: YES for Power/ARMv8)",
            None => "no",
        };
        table2_row(out, "Monotonicity", arch.name(), events, r.elapsed, verdict)?;
        let labels = ["inconsistent X", "consistent Y (more stxn)"];
        counterexample(out, verbose, &r.counterexample, labels)?;
    }

    // Compilation (paper: sound to all three at 6 events).
    for target in [Arch::X86, Arch::Power, Arch::Armv8] {
        let walk = Walk::new(&txmm_verify::compile_cfg(3));
        let r = txmm_verify::check_compilation(&walk, target, None);
        let verdict = match r.counterexample {
            Some(_) => "YES (unexpected!)",
            None => "no",
        };
        let target = format!("C++/{}", target.name());
        table2_row(out, "Compilation", &target, 3, r.elapsed, verdict)?;
    }

    // Lock elision (paper: x86 U, Power U, ARMv8 YES in 63s, fixed U).
    for target in [
        ElisionTarget::X86,
        ElisionTarget::Power,
        ElisionTarget::Armv8,
        ElisionTarget::Armv8Fixed,
    ] {
        let r = txmm_verify::check_lock_elision(target, None);
        let verdict = match (&r.counterexample, target) {
            (Some(_), ElisionTarget::Armv8) => "YES — Example 1.1 (paper: YES, 63s)",
            (Some(_), ElisionTarget::Power) => {
                "YES candidate (paper: timeout/Unknown — see README, Fidelity)"
            }
            (Some(_), _) => "YES (unexpected!)",
            (None, _) => "no (exhaustive at this bound)",
        };
        table2_row(out, "Lock elision", target.name(), 9, r.elapsed, verdict)?;
        let labels = ["abstract X (violates CROrder)", "concrete Y (consistent)"];
        counterexample(out, verbose, &r.counterexample, labels)?;
    }

    writeln!(
        out,
        "\nRun with --verbose to print the counterexample executions."
    )
}

/// One row of Table 2.
fn table2_row(
    out: &mut impl Write,
    property: &str,
    target: &str,
    events: usize,
    time: Duration,
    verdict: &str,
) -> io::Result<()> {
    let time = secs(time);
    writeln!(
        out,
        "{property:<14} {target:<14} {events:>7} {time:>10}   {verdict}"
    )
}

/// A counterexample pair of Table 2 under its two labels, when
/// `verbose`.
fn counterexample(
    out: &mut impl Write,
    verbose: bool,
    pair: &Option<(Execution, Execution)>,
    labels: [&str; 2],
) -> io::Result<()> {
    if let (true, Some((x, y))) = (verbose, pair) {
        writeln!(out, "--- {}:\n{}", labels[0], display::render(x))?;
        writeln!(out, "--- {}:\n{}", labels[1], display::render(y))?;
    }
    Ok(())
}

/// Prints every named execution from the paper — Figs. 1, 2, 3, 10,
/// the §5.2 Power executions, Remark 5.1, §8.1, §9, Example 1.1 and
/// Appendix B — with model verdicts (native and `.cat`) and machine
/// observability; `verbose` adds each one's litmus assembly listing.
///
/// All checking goes through one [`Session`]: native and `.cat` models
/// resolve from its unified registry, verdicts and observability are
/// served from its per-execution caches.
pub fn catalog(out: &mut impl Write, verbose: bool) -> io::Result<()> {
    let mut session = Session::with_shipped_cat();
    for entry in catalog::all() {
        writeln!(out, "==== {} ({}) ====", entry.name, entry.paper_ref)?;
        writeln!(out, "{}", entry.description)?;
        writeln!(out, "{}", display::render(&entry.exec))?;
        // Warm the verdict cache for every model this entry mentions
        // (native and .cat twin) with one shared analysis; the loop
        // below then prints pure cache hits.
        let mentioned: Vec<_> = entry
            .expect
            .iter()
            .flat_map(|(name, _)| {
                [
                    session.resolve(name),
                    session.resolve(&format!("{name}.cat")),
                ]
            })
            .flatten()
            .collect();
        session.verdicts_for(&entry.exec, &mentioned);
        for (model_name, expect) in &entry.expect {
            let model = session.resolve(model_name).expect("registered model");
            let line = verdict_str(&mut session, &entry.exec, model);
            let ok =
                line.starts_with("consistent") == matches!(expect, catalog::Expect::Consistent);
            let cat_note = match session.resolve(&format!("{model_name}.cat")) {
                Some(cat) => {
                    let cv = session.verdict(&entry.exec, cat);
                    if cv
                        .violations()
                        .iter()
                        .any(|v| v.starts_with("cat-eval-error"))
                    {
                        format!(" [cat error: {}]", cv.violations().join(", "))
                    } else if cv.is_consistent() == line.starts_with("consistent") {
                        " [cat agrees]".to_string()
                    } else {
                        " [cat DISAGREES]".to_string()
                    }
                }
                None => String::new(),
            };
            writeln!(
                out,
                "  {:<10} {}{}{}",
                model_name,
                line,
                if ok { "" } else { "  <-- MISMATCH" },
                cat_note
            )?;
        }
        // Observability on the hardware machine where one applies (the
        // session returns None for SC/C++ and for abstract lock-call
        // executions).
        let arch = crate::corpus::entry_arch(&entry.expect);
        if let Some(seen) = session.observable(&entry.exec, arch) {
            writeln!(
                out,
                "  hardware simulator ({}): {}",
                arch.name(),
                if seen { "SEEN" } else { "not seen" }
            )?;
            if verbose {
                let t = litmus_from_execution(entry.name, &entry.exec, arch);
                writeln!(out, "\n{}", render::assembly(&t))?;
            }
        }
        writeln!(out)?;
    }
    let stats = session.stats();
    writeln!(
        out,
        "session: {} executions interned, {} verdict misses, {} hits",
        stats.interned, stats.verdict_misses, stats.verdict_hits
    )?;
    writeln!(
        out,
        "Run with --verbose to print the per-architecture litmus listings."
    )
}

/// One consistent walk: every class of `model`'s architecture at
/// `events` events (`EnumConfig::hw`) that `model` deems consistent,
/// pruned by its oracle and reported into the session's progress
/// accumulator. Writes one line: the count, the time and the prune
/// counters.
pub fn walk(
    out: &mut impl Write,
    session: &Session,
    model: ModelRef,
    events: usize,
) -> io::Result<()> {
    let m = session.model(model);
    let t0 = Instant::now();
    let (n, st) = Walk::new(&EnumConfig::hw(m.arch(), events))
        .consistent(m)
        .progress(session.walk_progress().map(Arc::as_ref))
        .count();
    writeln!(
        out,
        "{} |E|={events}: {n} consistent in {:.2}s (cut={} skipped={} calls={} delta={} fallback={} batches={})",
        m.name(),
        t0.elapsed().as_secs_f64(),
        st.subtrees_cut,
        st.candidates_skipped,
        st.oracle_calls,
        st.delta_answers,
        st.fallbacks,
        st.batches,
    )
}

/// Pretty seconds.
fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// A consistency verdict as the paper's tables print it, served (and
/// cached) by the session.
fn verdict_str(session: &mut Session, x: &Execution, m: ModelRef) -> String {
    let v = session.verdict(x, m);
    if v.is_consistent() {
        "consistent".to_string()
    } else {
        format!("forbidden ({})", v.violations().join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(run: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
        let mut out = Vec::new();
        run(&mut out).expect("writes to a Vec");
        String::from_utf8(out).expect("utf-8 report")
    }

    #[test]
    fn helpers() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.50s");
        let mut s = Session::new();
        let sc = s.resolve("SC").unwrap();
        let x = txmm_models::catalog::fig1();
        assert!(verdict_str(&mut s, &x, sc).contains("consistent"));
        let y = txmm_models::catalog::sb(None, false, false);
        assert!(verdict_str(&mut s, &y, sc).contains("Order"));
    }

    /// Table 1 at |E| ≤ 3: the x86 and Power totals, and no Forbid test
    /// seen on the machine.
    #[test]
    fn table1_totals_at_three_events() {
        let t = text(|out| table1(out, &mut Session::new(), 3));
        // Forbid T, S, ¬S, then Allow T, S, ¬S.
        let totals: Vec<Vec<usize>> = t
            .lines()
            .filter(|l| l.starts_with("Total ("))
            .map(|l| {
                let counts = l.split_once(':').expect("totals line").1;
                counts
                    .split_whitespace()
                    .map(|w| w.parse().unwrap())
                    .collect()
            })
            .collect();
        assert_eq!(totals.len(), 2, "{t}");
        assert_eq!(totals[0][..3], [4, 0, 4], "x86 Forbid: {t}");
        assert_eq!(totals[0][3], 17, "x86 Allow: {t}");
        assert_eq!(totals[1][..3], [6, 0, 6], "Power Forbid: {t}");
        assert_eq!(totals[1][3], 24, "Power Allow: {t}");
        assert_eq!(t.matches("=> no Forbid test observable").count(), 2, "{t}");
    }

    #[test]
    fn walk_counts_the_x86_golden() {
        let session = Session::new();
        let x86 = session.resolve("x86-tm").expect("registered");
        let t = text(|out| walk(out, &session, x86, 4));
        assert!(t.starts_with("x86-tm |E|=4: 60352 consistent in "), "{t}");
        assert_eq!(t.lines().count(), 1, "{t}");
    }

    #[test]
    fn catalog_verdicts_all_match() {
        let t = text(|out| catalog(out, false));
        for bad in ["MISMATCH", "DISAGREES", "cat error"] {
            assert!(!t.contains(bad), "{bad}: {t}");
        }
        assert!(t.contains("[cat agrees]"), "{t}");
    }
}
