//! Hardware-machine benchmarks: exhaustive exploration cost per test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txmm_litmus::litmus_from_execution;
use txmm_models::{catalog, Arch};

fn bench_sims(c: &mut Criterion) {
    let mut g = c.benchmark_group("hwsim");
    let cases = vec![
        ("sb", catalog::sb(None, false, false)),
        ("sb+txns", catalog::sb(None, true, true)),
        ("mp", catalog::mp(None, false, false)),
        ("iriw+txns", catalog::power_exec3(true)),
    ];
    for (name, x) in &cases {
        for (id, arch) in [
            ("tso", Arch::X86),
            ("armv8", Arch::Armv8),
            ("power", Arch::Power),
        ] {
            let t = litmus_from_execution(name, x, arch);
            g.bench_with_input(BenchmarkId::new(id, name), &t, |b, t| {
                b.iter(|| txmm_hwsim::run(std::hint::black_box(t)).map(|set| set.len()))
            });
        }
    }
    g.bench_function("elision-armv8", |b| {
        let t = litmus_from_execution("elision", &catalog::armv8_elision(false), Arch::Armv8);
        b.iter(|| txmm_hwsim::observable(std::hint::black_box(&t)))
    });
    g.finish();
}

criterion_group!(benches, bench_sims);
criterion_main!(benches);
