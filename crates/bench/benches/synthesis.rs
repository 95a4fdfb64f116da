//! Table 1 engine benchmarks: enumeration and Forbid/Allow synthesis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txmm_bench::table1_config;
use txmm_models::{Arch, Model, Power, Sc, Tsc, X86};
use txmm_synth::{synthesise, EnumConfig, Walk};

fn bench_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerate");
    g.sample_size(10);
    for events in [2, 3] {
        let cfg = table1_config(Arch::X86, events);
        g.bench_with_input(BenchmarkId::new("x86", events), &cfg, |b, cfg| {
            b.iter(|| Walk::new(std::hint::black_box(cfg)).workers(1).count())
        });
        g.bench_with_input(BenchmarkId::new("x86-par", events), &cfg, |b, cfg| {
            b.iter(|| Walk::new(std::hint::black_box(cfg)).count())
        });
    }
    g.finish();
}

/// One Table 1 style row at |E| = 3, on every worker and on one.
fn synthesis_row(
    c: &mut Criterion,
    name: &str,
    tm: &dyn Model,
    base: &dyn Model,
    cfg: &EnumConfig,
) {
    let mut g = c.benchmark_group("synthesise");
    g.sample_size(10);
    for (suffix, walk) in [("", Walk::new(cfg)), ("-seq", Walk::new(cfg).workers(1))] {
        g.bench_function(format!("{name}-forbid-3{suffix}"), |b| {
            b.iter(|| synthesise(&walk, tm, base, None).forbid.len())
        });
    }
    g.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    let x86 = table1_config(Arch::X86, 3);
    synthesis_row(c, "x86", &X86::tm(), &X86::base(), &x86);
    let power = table1_config(Arch::Power, 3);
    synthesis_row(c, "power", &Power::tm(), &Power::base(), &power);
    let tsc = EnumConfig {
        max_threads: 2,
        max_locs: 2,
        fences: false,
        rmws: false,
        ..EnumConfig::hw(Arch::Sc, 3)
    };
    synthesis_row(c, "tsc", &Tsc, &Sc, &tsc);
}

criterion_group!(benches, bench_enumeration, bench_synthesis);
criterion_main!(benches);
