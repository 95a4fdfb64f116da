//! Regenerates **Fig. 7**: the distribution of synthesis times for the
//! largest x86 Forbid suite.
//!
//! The paper's observation: 98% of the 7-event tests are found within 6%
//! of the 34-hour total synthesis time (the tail merely confirms
//! exhaustion). Our enumerative engine at the default |E| = 4 exhibits
//! the same front-loaded shape; the curve is printed as an ASCII plot
//! plus the percentile table.

use txmm::session::Session;
use txmm_bench::table1_config;
use txmm_models::Arch;

fn main() {
    let events = txmm::corpus::event_bound_from_env(4).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tele = txmm::obs::Telemetry::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("== Fig. 7: distribution of synthesis times ({events}-event x86 Forbid tests) ==\n");
    let mut session = Session::new();
    if let Some(t) = &tele {
        session.set_walk_progress(Some(t.progress.clone()));
    }
    let r = session.synthesise(
        &table1_config(Arch::X86, events),
        session.resolve("x86-tm").expect("registered"),
        session.resolve("x86").expect("registered"),
        None,
    );
    if let Some(t) = tele {
        t.finish();
    }
    let total = r.elapsed;
    let mut times: Vec<f64> = r.forbid.iter().map(|f| f.at.as_secs_f64()).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = times.len();
    if n == 0 {
        println!("no Forbid tests at |E| = {events}");
        return;
    }
    println!(
        "{} tests found; total synthesis time {:.2}s ({} candidates examined)\n",
        n,
        total.as_secs_f64(),
        r.candidates
    );

    // ASCII cumulative curve: 50 columns of time, 20 rows of percentage.
    let width = 50usize;
    let height = 20usize;
    let tmax = total.as_secs_f64().max(1e-9);
    let mut grid = vec![vec![' '; width]; height];
    let rows: Vec<usize> = (0..width)
        .map(|col| {
            let t = tmax * (col as f64 + 1.0) / width as f64;
            let found = times.iter().filter(|&&x| x <= t).count();
            let pct = found as f64 / n as f64;
            (((1.0 - pct) * (height as f64 - 1.0)).round() as usize).min(height - 1)
        })
        .collect();
    for (col, &row) in rows.iter().enumerate() {
        grid[row][col] = '*';
    }
    println!("Tests found (%)");
    for (i, row) in grid.iter().enumerate() {
        let label = 100 - i * 100 / (height - 1);
        println!("{label:>4}% |{}", row.iter().collect::<String>());
    }
    println!("      +{}", "-".repeat(width));
    println!(
        "       0{:>width$}",
        format!("{:.2}s", tmax),
        width = width - 1
    );

    println!("\nPercentiles of discovery time (fraction of total synthesis time):");
    for pct in [50, 75, 90, 95, 98, 100] {
        let idx = ((pct * n).div_ceil(100)).clamp(1, n) - 1;
        println!(
            "  {pct:>3}% of tests found within {:>6.2}% of total time",
            times[idx] / tmax * 100.0
        );
    }
    println!("\n(paper: 98% of tests within 6% of total; the long tail only confirms exhaustion)");
}
