//! Enumeration-throughput benchmarks: the streaming, incrementally
//! canonicalised engine against the seed generate-then-dedup path.
//!
//! The headline is the bound push: `x86-5-stream` enumerates the full
//! |E| = 5 x86 hardware space (6,094,392 canonical classes) in seconds
//! with bounded memory, where the seed path pays |threads|! full-
//! execution serialisations per candidate plus a canonical-key set the
//! size of the space per shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txmm_models::Arch;
use txmm_synth::{enumerate_reference, EnumConfig, Walk};

/// Candidates of the seed generate-then-dedup path.
fn count_reference(cfg: &EnumConfig) -> usize {
    let mut n = 0usize;
    enumerate_reference(cfg, &mut |_| n += 1);
    n
}

fn bench_streaming_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerate");
    g.sample_size(10);
    for events in [3, 4] {
        let cfg = EnumConfig::hw(Arch::X86, events);
        g.bench_with_input(BenchmarkId::new("x86-stream", events), &cfg, |b, cfg| {
            b.iter(|| Walk::new(std::hint::black_box(cfg)).workers(1).count())
        });
        g.bench_with_input(BenchmarkId::new("x86-reference", events), &cfg, |b, cfg| {
            b.iter(|| count_reference(std::hint::black_box(cfg)))
        });
    }
    let power = EnumConfig::hw(Arch::Power, 3);
    g.bench_with_input(BenchmarkId::new("power-stream", 3), &power, |b, cfg| {
        b.iter(|| Walk::new(std::hint::black_box(cfg)).workers(1).count())
    });
    g.bench_with_input(BenchmarkId::new("power-reference", 3), &power, |b, cfg| {
        b.iter(|| count_reference(std::hint::black_box(cfg)))
    });
    g.finish();
}

fn bench_five_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("bound-push");
    g.sample_size(10);
    // The |E| = 5 full x86 hardware space: streaming + work stealing
    // completes it in seconds with bounded memory (no candidate vector,
    // no dedup set). The seed path is not benchmarked here — it pays
    // minutes and a space-sized key set.
    let cfg = EnumConfig::hw(Arch::X86, 5);
    g.bench_with_input(BenchmarkId::new("x86-5-stream", 5), &cfg, |b, cfg| {
        b.iter(|| Walk::new(std::hint::black_box(cfg)).count())
    });
    g.finish();
}

fn bench_bounded_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream");
    g.sample_size(10);
    // Consuming through the bounded channel (the Session interning
    // path) versus raw counting: the price of streaming delivery.
    let cfg = EnumConfig::hw(Arch::X86, 3);
    g.bench_with_input(BenchmarkId::new("x86-channel", 3), &cfg, |b, cfg| {
        b.iter(|| Walk::new(cfg).stream(256).count())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_streaming_vs_reference,
    bench_five_events,
    bench_bounded_stream
);
criterion_main!(benches);
