//! Consistency-guided pruning: pruned enumeration vs naive
//! enumerate-then-filter, per architecture, plus pruned outcome-table
//! throughput over the generated corpus.
//!
//! The headline prints before the criterion measurements:
//!
//! ```text
//! pruning/headline x86 |E|=4: naive 0.32s | pruned 0.16s (2.0x) | 60352 consistent
//! pruning/headline x86 |E|=5: naive 12.6s | pruned 4.0s (3.1x) | 1715002 consistent
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use txmm::serve::{outcomes_jsonl_line, serve_outcomes_source};
use txmm::session::Session;
use txmm_models::{Arch, Armv8, Model, Power, Sc, X86};
use txmm_synth::{EnumConfig, Walk};

/// Enumerate-then-filter: every canonical class is constructed, then
/// the full model votes — the baseline pruning competes against.
fn naive_count(cfg: &EnumConfig, model: &dyn Model) -> usize {
    let n = AtomicUsize::new(0);
    Walk::new(cfg).visit(
        |_| (),
        |_, x, _| {
            if model.consistent(x) {
                n.fetch_add(1, Ordering::Relaxed);
            }
        },
    );
    n.into_inner()
}

/// One machine-readable headline row, serialised into `BENCH_prune.json`.
struct Headline {
    name: String,
    events: usize,
    naive_micros: u128,
    pruned_micros: u128,
    consistent: usize,
    subtrees_cut: u64,
    candidates_skipped: u64,
    oracle_calls: u64,
    delta_answers: u64,
    fallbacks: u64,
    batches: u64,
}

fn headline(rows: &mut Vec<Headline>, name: &str, cfg: &EnumConfig, model: &dyn Model) {
    let t0 = Instant::now();
    let naive = naive_count(cfg, model);
    let naive_t = t0.elapsed();
    let t0 = Instant::now();
    let (pruned, st) = Walk::new(cfg).consistent(model).count();
    let pruned_t = t0.elapsed();
    assert_eq!(naive, pruned, "{name}: pruned walk drifted from the filter");
    println!(
        "pruning/headline {name} |E|={}: naive {:.2}s | pruned {:.2}s ({:.1}x) | \
         {pruned} consistent, {} subtrees cut, {} skipped",
        cfg.events,
        naive_t.as_secs_f64(),
        pruned_t.as_secs_f64(),
        naive_t.as_secs_f64() / pruned_t.as_secs_f64(),
        st.subtrees_cut,
        st.candidates_skipped,
    );
    rows.push(Headline {
        name: name.to_string(),
        events: cfg.events,
        naive_micros: naive_t.as_micros(),
        pruned_micros: pruned_t.as_micros(),
        consistent: pruned,
        subtrees_cut: st.subtrees_cut,
        candidates_skipped: st.candidates_skipped,
        oracle_calls: st.oracle_calls,
        delta_answers: st.delta_answers,
        fallbacks: st.fallbacks,
        batches: st.batches,
    });
}

/// Write the headline rows as `BENCH_prune.json` at the workspace root
/// so CI and the README numbers have a machine-readable source.
fn write_bench_json(rows: &[Headline]) {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\":\"{}\",\"events\":{},\"naive_micros\":{},\"pruned_micros\":{},\
             \"consistent_classes\":{},\"subtrees_cut\":{},\"candidates_skipped\":{},\
             \"oracle_calls\":{},\"delta_answers\":{},\"fallbacks\":{},\"batches\":{}}}{}\n",
            r.name,
            r.events,
            r.naive_micros,
            r.pruned_micros,
            r.consistent,
            r.subtrees_cut,
            r.candidates_skipped,
            r.oracle_calls,
            r.delta_answers,
            r.fallbacks,
            r.batches,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prune.json");
    match std::fs::write(path, out) {
        Ok(()) => println!("pruning/headline wrote {path}"),
        Err(e) => eprintln!("pruning/headline could not write {path}: {e}"),
    }
}

fn corpus() -> Vec<(String, String)> {
    txmm::corpus::generate(3)
        .into_iter()
        .map(|(name, src)| (format!("{name}.litmus"), src))
        .collect()
}

fn outcome_pass(session: &mut Session, corpus: &[(String, String)]) -> usize {
    let mut bytes = 0usize;
    for (file, src) in corpus {
        let served = serve_outcomes_source(session, file, src, None);
        bytes += outcomes_jsonl_line(&served).len();
    }
    bytes
}

fn bench_pruning(c: &mut Criterion) {
    // Quick headlines for every architecture with a native oracle.
    // The README numbers — Power |E| = 4 (3.0x) and single-core x86
    // |E| = 5 (3.1x) — take tens of seconds naive and run only under
    // PRUNE_BENCH_FULL=1.
    let mut rows = Vec::new();
    headline(&mut rows, "x86", &EnumConfig::hw(Arch::X86, 4), &X86::tm());
    headline(&mut rows, "sc", &EnumConfig::hw(Arch::Sc, 4), &Sc);
    headline(
        &mut rows,
        "power",
        &EnumConfig::hw(Arch::Power, 3),
        &Power::tm(),
    );
    headline(
        &mut rows,
        "armv8",
        &EnumConfig::hw(Arch::Armv8, 3),
        &Armv8::tm(),
    );
    if std::env::var_os("PRUNE_BENCH_FULL").is_some() {
        headline(
            &mut rows,
            "power",
            &EnumConfig::hw(Arch::Power, 4),
            &Power::tm(),
        );
        headline(&mut rows, "x86", &EnumConfig::hw(Arch::X86, 5), &X86::tm());
    }
    write_bench_json(&rows);

    let x86 = EnumConfig::hw(Arch::X86, 4);
    let model = X86::tm();
    c.bench_function("pruning/x86-e4-naive", |b| {
        b.iter(|| naive_count(&x86, &model))
    });
    c.bench_function("pruning/x86-e4-pruned", |b| {
        b.iter(|| Walk::new(&x86).consistent(&model).count().0)
    });

    // Outcome tables through the pruned per-mask walk, cold Session per
    // iteration.
    let corpus = corpus();
    c.bench_function("pruning/outcomes-pruned", |b| {
        b.iter(|| {
            let mut s = Session::new();
            outcome_pass(&mut s, &corpus)
        })
    });
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
