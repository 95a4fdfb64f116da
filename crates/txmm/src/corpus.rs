//! Litmus-corpus generation: the shared builder behind `txmm gen`, the
//! CI smoke corpus, and the serving integration tests (one definition,
//! so they cannot silently diverge).

use txmm_core::MAX_EVENTS;
use txmm_litmus::{litmus_from_execution, render};
use txmm_models::{catalog, Arch};
use txmm_synth::table1_config;

use crate::session::Session;

/// The serving architecture of a catalog entry: the first hardware
/// model it states expectations for, C++ if only C++ models do, SC
/// otherwise.
pub(crate) fn entry_arch(expect: &[(&str, catalog::Expect)]) -> Arch {
    for (m, _) in expect {
        match *m {
            "x86" | "x86-tm" => return Arch::X86,
            "power" | "power-tm" => return Arch::Power,
            "armv8" | "armv8-tm" => return Arch::Armv8,
            _ => {}
        }
    }
    if expect.iter().any(|(m, _)| m.starts_with("cpp")) {
        Arch::Cpp
    } else {
        Arch::Sc
    }
}

/// File-system-safe test name.
pub(crate) fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Parse a synthesis event bound (`txmm gen|table1|fig7|walk --events
/// N`): an integer in `1..=MAX_EVENTS`. No relation holds more than
/// [`MAX_EVENTS`] events, so a larger bound would only panic inside the
/// walk.
pub fn parse_event_bound(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if (1..=MAX_EVENTS).contains(&n) => Ok(n),
        _ => Err(format!(
            "event bound must be an integer in 1..={MAX_EVENTS}, got {s:?}"
        )),
    }
}

/// The standard generated corpus as `(file-stem, litmus source)` pairs:
/// every named execution of the paper plus the synthesised x86
/// Forbid/Allow suites of Table 1's row at `events` events. At the
/// default `events = 3` this is 50 tests.
pub fn generate(events: usize) -> Vec<(String, String)> {
    generate_on(&Session::new(), events)
}

/// [`generate`] against a caller-supplied session, so drivers that
/// attach walk-progress telemetry (`txmm gen --progress`) observe the
/// synthesis walk they asked for.
pub fn generate_on(session: &Session, events: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in catalog::all() {
        let arch = entry_arch(&entry.expect);
        let t = litmus_from_execution(entry.name, &entry.exec, arch);
        out.push((sanitise(entry.name), render::pseudocode(&t)));
    }
    // Synthesised conformance tests, via the same Session pipeline the
    // server uses.
    let tm = session.resolve("x86-tm").expect("registered");
    let base = session.resolve("x86").expect("registered");
    let suite = session.synthesise(&table1_config(Arch::X86, events), tm, base, None);
    for (i, f) in suite.forbid.iter().enumerate() {
        let name = format!("x86-forbid-{i}");
        let t = litmus_from_execution(&name, &f.exec, Arch::X86);
        out.push((name, render::pseudocode(&t)));
    }
    for (i, a) in suite.allow.iter().enumerate() {
        let name = format!("x86-allow-{i}");
        let t = litmus_from_execution(&name, a, Arch::X86);
        out.push((name, render::pseudocode(&t)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_corpus_meets_the_serving_floor() {
        let corpus = generate(3);
        assert!(corpus.len() >= 20, "got {}", corpus.len());
        // Names are filesystem-safe and unique.
        let mut names: Vec<&String> = corpus.iter().map(|(n, _)| n).collect();
        assert!(names
            .iter()
            .all(|n| n.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn event_bounds_past_the_cap_are_refused() {
        assert_eq!(parse_event_bound("1"), Ok(1));
        assert_eq!(parse_event_bound("16"), Ok(MAX_EVENTS));
        for bad in ["0", "17", "65", "-3", "four", ""] {
            let e = parse_event_bound(bad).unwrap_err();
            assert!(e.contains("1..=16"), "{bad}: {e}");
        }
    }

    #[test]
    fn entry_arch_prefers_hardware_models() {
        use txmm_models::catalog::Expect;
        assert_eq!(
            entry_arch(&[("SC", Expect::Consistent), ("power", Expect::Forbidden)]),
            Arch::Power
        );
        assert_eq!(entry_arch(&[("cpp-tm", Expect::Consistent)]), Arch::Cpp);
        assert_eq!(entry_arch(&[("TSC", Expect::Consistent)]), Arch::Sc);
    }
}
