//! The txmm benchmark: one command, three workloads, every output
//! checked. See README.md for why each workload exists and what each
//! metric should move.
//!
//! ```text
//! perfbench --workload <sweeps|serve-cold|serve-warm> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced
//! runs (`--trace 1`) print the per-layer metrics. The last stdout line
//! is the JSON result; lines before it starting with `#` are
//! informational (workload-specific timings with sample counts, the
//! request-stream digest, reconciliation figures).

mod gen;
mod metrics;
mod procfs;
mod serving;
mod stats;
mod sweeps;

use std::process::ExitCode;

use metrics::Report;

/// Every checked output of a run: how many were attempted, how many
/// failed, and the first few failure messages (echoed on stderr).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; `ok == false` is a failure whose
    /// message is built only when needed.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(msg());
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // A fresh process timing `sweeps` set-up for its parent run.
    if std::env::args().nth(1).as_deref() == Some("--setup-probe") {
        println!("{:?}", sweeps::setup_seconds());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <sweeps|serve-cold|serve-warm> --seed N \
                 --seconds S --trace <0|1>"
            );
            return ExitCode::FAILURE;
        }
    };
    let mut out = Outcome::default();
    let mut report = Report::default();
    let steal_before = procfs::steal_jiffies();
    let run = match args.workload.as_str() {
        "sweeps" if args.trace => {
            sweeps::run_traced(args.seed, &mut out, &mut report);
            Ok(())
        }
        "sweeps" => sweeps::run(args.seconds, &mut out, &mut report),
        "serve-cold" | "serve-warm" => {
            let warm = args.workload == "serve-warm";
            serving::run(
                warm,
                args.seed,
                args.seconds,
                args.trace,
                &mut out,
                &mut report,
            )
        }
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = run {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    for m in &out.messages {
        eprintln!("check failed: {m}");
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, procfs::steal_jiffies()) {
        report.note(format!(
            "host steal: {:.2}% of the host's CPU time during the run",
            100.0 * stats::ratio((s1 - s0) as f64, (t1 - t0) as f64)
        ));
    }
    report.info(
        "error_rate",
        stats::ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        out.attempted as usize,
    );
    report.print(
        args.trace,
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
    );
    ExitCode::SUCCESS
}
