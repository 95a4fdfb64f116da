//! Differential fuzzing between the `.cat` evaluator and the native
//! models at |E| = 4 — one event past the per-crate differential tests,
//! on the full enumerated candidate space.
//!
//! Release builds sweep every enumerated execution; debug builds sample
//! the space with a SplitMix64-driven coin so the suite stays fast. The
//! sampler also drives a second pass with independently randomised
//! transaction layouts, exercising `.cat` lift combinators on shapes the
//! interval enumerator visits in a different order.
//!
//! Since the compile pipeline landed, `CatModel::consistent` runs the
//! bytecode VM, so the native twins above already fuzz the compiled
//! path. The compiled-vs-reference tests below close the loop the other
//! way: every shipped model (and the fencerel twins) must be
//! byte-identical — violation labels included — to the retained AST
//! reference interpreter on the same sampled space.

use txmm::cat::cat_model;
use txmm::core::rng::SplitMix64;
use txmm::core::TxnClass;
use txmm::models::registry::by_name;
use txmm::models::Arch;
use txmm::synth::{EnumConfig, Walk};

fn fuzz_config(arch: Arch, fences: bool, rmws: bool) -> EnumConfig {
    EnumConfig {
        arch,
        events: 4,
        max_threads: 2,
        max_locs: 2,
        fences,
        deps: false,
        rmws,
        txns: true,
        attrs: false,
        atomic_txns: false,
    }
}

/// Sweep (or sample) the enumerated space, asserting verdict agreement
/// between a `.cat` model and its native twin on every visited
/// execution. `denominator = 1` sweeps the space; larger values sample
/// ~1/denominator of it with the seeded coin.
fn differential_fuzz_sampled(cfg: &EnumConfig, names: &[&str], seed: u64, denominator: usize) {
    for name in names {
        let cat = cat_model(name).expect("shipped model");
        let native = by_name(name).expect("native model");
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut checked = 0usize;
        Walk::new(cfg).for_each(|x| {
            if denominator > 1 && rng.below(denominator) != 0 {
                return;
            }
            checked += 1;
            let c = cat.consistent(x).expect("cat evaluates");
            let n = native.consistent(x);
            assert_eq!(
                c,
                n,
                "cat vs native {name} disagree on:\n{}",
                txmm::core::display::render(x)
            );
        });
        assert!(checked > 100, "{name}: sampled too little ({checked})");
    }
}

/// The seed behaviour: debug builds sample ~1/24, release sweeps all.
fn differential_fuzz(cfg: &EnumConfig, names: &[&str], seed: u64) {
    let denominator = if cfg!(debug_assertions) { 24 } else { 1 };
    differential_fuzz_sampled(cfg, names, seed, denominator);
}

#[test]
fn x86_cat_matches_native_at_four_events() {
    differential_fuzz(
        &fuzz_config(Arch::X86, true, true),
        &["x86", "x86-tm"],
        0x1234,
    );
}

#[test]
fn sc_cat_matches_native_at_four_events() {
    differential_fuzz(&fuzz_config(Arch::Sc, false, false), &["SC", "TSC"], 0x5678);
}

#[test]
fn power_cat_matches_native_at_four_events() {
    // The Power pair carries the recursive ppo fixpoint on both sides,
    // so even release builds sample (densely) rather than sweep.
    let denominator = if cfg!(debug_assertions) { 48 } else { 6 };
    differential_fuzz_sampled(
        &fuzz_config(Arch::Power, true, true),
        &["power", "power-tm"],
        0x7001,
        denominator,
    );
}

#[test]
fn armv8_cat_matches_native_at_four_events() {
    let denominator = if cfg!(debug_assertions) { 48 } else { 6 };
    differential_fuzz_sampled(
        &fuzz_config(Arch::Armv8, true, true),
        &["armv8", "armv8-tm"],
        0x7002,
        denominator,
    );
}

/// Replace standalone occurrences of `ident` (herd builtin fence
/// relations) with a `fencerel(...)` phrasing, leaving compound
/// identifiers like `ctrlisync` or `synct` alone.
fn replace_ident(src: &str, ident: &str, with: &str) -> String {
    let bytes = src.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = String::new();
    let mut i = 0;
    while i < src.len() {
        if src[i..].starts_with(ident)
            && (i == 0 || !is_word(bytes[i - 1]))
            && (i + ident.len() >= src.len() || !is_word(bytes[i + ident.len()]))
        {
            out.push_str(with);
            i += ident.len();
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

/// The shipped `.cat` source rewritten through herd's `fencerel`
/// combinator — `sync` becomes `fencerel(SYNC)` and so on — asserting
/// that the rewrite actually fired.
fn fencerel_twin_source(name: &str) -> String {
    let (_, src) = txmm::cat::SOURCES
        .iter()
        .find(|(n, _)| *n == name)
        .expect("shipped model");
    let mut s = src.to_string();
    if name.starts_with("power") {
        s = replace_ident(&s, "sync", "fencerel(SYNC)");
        s = replace_ident(&s, "lwsync", "fencerel(LWSYNC)");
        s = replace_ident(&s, "isync", "fencerel(ISYNC)");
    } else {
        s = s.replace("(po ; [DMB] ; po)", "fencerel(DMB)");
        s = s.replace("([R] ; po ; [DMBLD] ; po)", "([R] ; fencerel(DMBLD))");
        s = s.replace(
            "([W] ; po ; [DMBST] ; po ; [W])",
            "([W] ; fencerel(DMBST) ; [W])",
        );
    }
    assert!(s.contains("fencerel("), "{name}: rewrite must fire\n{s}");
    assert_ne!(s, *src);
    s
}

/// SplitMix64-randomised transaction relayouts on top of enumerated
/// transaction-free executions: a different distribution over `stxn`
/// shapes than the interval enumerator's, checked against both models.
fn randomised_txn_fuzz(
    arch: Arch,
    fences: bool,
    cat: &txmm::cat::CatModel,
    native_name: &str,
    seed: u64,
    budget: usize,
) {
    let mut cfg = fuzz_config(arch, fences, false);
    cfg.txns = false;
    let native = by_name(native_name).expect("native model");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut checked = 0usize;
    Walk::new(&cfg).for_each(|x| {
        if checked >= budget || rng.below(8) != 0 {
            return;
        }
        // Random per-thread transaction brackets.
        let mut txns = Vec::new();
        for t in 0..x.num_threads() {
            let evs: Vec<usize> = x.thread_events(t as u8).collect();
            let mut i = 0;
            while i < evs.len() {
                if rng.below(2) == 0 {
                    let len = 1 + rng.below(evs.len() - i);
                    txns.push(TxnClass {
                        events: evs[i..i + len].to_vec(),
                        atomic: false,
                    });
                    i += len;
                } else {
                    i += 1;
                }
            }
        }
        let y = x.with_txns(txns);
        assert!(y.check_wf().is_ok());
        checked += 1;
        assert_eq!(
            cat.consistent(&y).expect("cat evaluates"),
            native.consistent(&y),
            "cat vs native {native_name} disagree on randomised txn layout:\n{}",
            txmm::core::display::render(&y)
        );
    });
    assert!(checked > 100, "sampled too little ({checked})");
}

/// An enumeration config exercising the architecture a shipped model
/// targets, attrs included where the model reads access modes.
fn config_for(name: &str) -> EnumConfig {
    match name {
        "SC" | "TSC" => fuzz_config(Arch::Sc, false, false),
        n if n.starts_with("x86") => fuzz_config(Arch::X86, true, true),
        n if n.starts_with("power") => fuzz_config(Arch::Power, true, true),
        n if n.starts_with("armv8") => {
            let mut cfg = fuzz_config(Arch::Armv8, true, true);
            cfg.attrs = true;
            cfg
        }
        _ => {
            // C++ access modes multiply the space by 4 per event; three
            // events keep the sweep tractable while still driving every
            // mode-dependent builtin set through the compiled path.
            let mut cfg = fuzz_config(Arch::Cpp, true, false);
            cfg.attrs = true;
            cfg.events = 3;
            cfg
        }
    }
}

/// Sample the enumerated space and assert the compiled pipeline (via
/// the tiered program cache and VM) reproduces the reference AST
/// interpreter's verdict byte-for-byte, violation lists included.
fn vm_reference_differential(
    cfg: &EnumConfig,
    cat: &txmm::cat::CatModel,
    seed: u64,
    denominator: usize,
) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut checked = 0usize;
    Walk::new(cfg).for_each(|x| {
        if denominator > 1 && rng.below(denominator) != 0 {
            return;
        }
        checked += 1;
        let a = x.analysis();
        let got = cat.check_analysis(&a).expect("compiled model evaluates");
        let want = cat
            .check_analysis_reference(&a)
            .expect("reference interpreter evaluates");
        assert_eq!(
            got.violations(),
            want.violations(),
            "compiled vs reference disagree on:\n{}",
            txmm::core::display::render(x)
        );
    });
    assert!(checked > 100, "sampled too little ({checked})");
}

#[test]
fn compiled_verdicts_match_reference_on_all_shipped_models() {
    let denominator = if cfg!(debug_assertions) { 48 } else { 6 };
    for (i, (name, _)) in txmm::cat::SOURCES.iter().enumerate() {
        let cat = cat_model(name).expect("shipped model");
        vm_reference_differential(&config_for(name), &cat, 0xbeef + i as u64, denominator);
    }
}

/// The fencerel twins go through a different lowering (the dedicated
/// `Fencerel` opcode) than the shipped sources; they too must match the
/// reference interpreter exactly.
#[test]
fn compiled_fencerel_twins_match_reference() {
    let denominator = if cfg!(debug_assertions) { 64 } else { 8 };
    for (name, leaked) in [
        ("power-tm", "power-tm-fencerel-vm"),
        ("armv8-tm", "armv8-tm-fencerel-vm"),
    ] {
        let twin_src = fencerel_twin_source(name);
        let file = txmm::cat::parse(&twin_src).expect("fencerel twin parses");
        let cat = txmm::cat::CatModel::new(leaked, file);
        vm_reference_differential(&config_for(name), &cat, 0x77aa, denominator);
    }
}

#[test]
fn randomised_txn_layouts_agree() {
    let cat = cat_model("x86-tm").expect("shipped model");
    let budget = if cfg!(debug_assertions) { 400 } else { 4000 };
    randomised_txn_fuzz(Arch::X86, false, &cat, "x86-tm", 0x9abc, budget);
}

/// The PR 4 `fencerel` evaluation path under randomised transaction
/// layouts: the shipped Power/ARMv8 transactional models re-phrased
/// through `fencerel(SYNC)` / `fencerel(DMB)` (the herd idiom) must
/// agree with the native models on fence-heavy executions carrying
/// arbitrary `stxn` shapes.
#[test]
fn fencerel_twins_agree_under_randomised_txn_layouts() {
    let budget = if cfg!(debug_assertions) { 150 } else { 600 };
    for (arch, name, leaked) in [
        (Arch::Power, "power-tm", "power-tm-fencerel"),
        (Arch::Armv8, "armv8-tm", "armv8-tm-fencerel"),
    ] {
        let twin_src = fencerel_twin_source(name);
        let file = txmm::cat::parse(&twin_src).expect("fencerel twin parses");
        let cat = txmm::cat::CatModel::new(leaked, file);
        randomised_txn_fuzz(arch, true, &cat, name, 0xfe7c + arch as u64, budget);
    }
}
