//! # txmm-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation:
//!
//! * `table1` (bin) — Forbid/Allow synthesis per event count for the
//!   transactional x86 and Power models, each test "run" on the
//!   simulated hardware (Table 1);
//! * `fig7` (bin) — the distribution of synthesis times for the largest
//!   x86 Forbid suite (Fig. 7);
//! * `table2` (bin) — the metatheory matrix: monotonicity, C++
//!   compilation, lock elision (Table 2);
//! * `catalog` (bin) — every named execution of the paper with model
//!   verdicts and litmus renderings (Figs. 1–3, 10, §5.2, §8.1, §9,
//!   Ex. 1.1, App. B);
//! * criterion benches (`synthesis`, `metatheory`, `models`, `hwsim`)
//!   measuring the underlying engines.

use std::time::Duration;

use txmm::obs::Telemetry;
use txmm::session::{ModelRef, Session};
use txmm_models::Arch;
use txmm_synth::EnumConfig;

/// A Table 1/Fig. 7 driver's command line: the `TXMM_MAX_EVENTS` bound
/// (4 when unset) and the telemetry its arguments ask for. A bad bound,
/// a bad telemetry flag or any other argument exits 1 with
/// `error: ...`.
pub fn driver_args() -> (usize, Option<Telemetry>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    txmm::corpus::event_bound_from_env(4)
        .and_then(|events| {
            let (tele, rest) = Telemetry::from_args(&args)?;
            match rest.first() {
                None => Ok((events, tele)),
                Some(w) => Err(format!("unknown argument {w:?}")),
            }
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
}

/// The synthesis configuration used for Table 1 rows.
pub fn table1_config(arch: Arch, events: usize) -> EnumConfig {
    EnumConfig {
        max_locs: 2,
        deps: arch == Arch::Power,
        attrs: false,
        ..EnumConfig::hw(arch, events)
    }
}

/// Pretty seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// Format a consistency verdict like the paper's tables, served (and
/// cached) by the session.
pub fn verdict_str(session: &mut Session, x: &txmm_core::Execution, m: ModelRef) -> String {
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

    #[test]
    fn config_shapes() {
        let c = table1_config(Arch::X86, 4);
        assert_eq!(c.events, 4);
        assert!(!c.deps);
        assert!(table1_config(Arch::Power, 3).deps);
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
}
