//! Golden `Walk::count` values per architecture, pinned so canonicalisation
//! regressions — over-pruning (counts drop) or under-pruning (counts
//! rise) — fail fast. The counts equal the number of canonical
//! (symmetry-reduced) classes of the default hardware spaces, and were
//! cross-checked against the seed generate-then-dedup path by the
//! differential suite.
//!
//! The CI `enumeration-smoke` job runs this in release mode including
//! the `#[ignore]`d heavyweight bounds.

use txmm::core::Execution;
use txmm::models::{Arch, Armv8, Cpp, Model, Power, X86};
use txmm::synth::{canon_key, EnumConfig, Walk};

fn golden(arch: Arch, events: usize, expect: usize) {
    let (got, _) = Walk::new(&EnumConfig::hw(arch, events)).count();
    assert_eq!(
        got, expect,
        "{arch:?} |E|={events}: canonical class count drifted (over- or under-pruning)"
    );
}

/// Golden *consistent*-class counts through the pruned walk: drops
/// mean over-pruning, rises mean the oracle or the model weakened.
fn golden_consistent(arch: Arch, model: &dyn Model, events: usize, expect: usize) {
    let (got, _) = Walk::new(&EnumConfig::hw(arch, events))
        .consistent(model)
        .count();
    assert_eq!(
        got, expect,
        "{arch:?} |E|={events}: consistent class count drifted"
    );
}

/// FNV-1a over the canonical keys of a candidate stream, in the order
/// the stream emits them (each key length-prefixed, so the digest pins
/// the class set, the class count and the emission order at once).
fn emission_digest(walk: impl FnOnce(&mut dyn FnMut(&Execution))) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    walk(&mut |x| {
        let key = canon_key(x);
        for b in (key.len() as u32).to_le_bytes() {
            eat(b);
        }
        for b in key {
            eat(b);
        }
    });
    h
}

/// The streaming engine and the pruned consistent walk emit their
/// representatives in a pinned order: the same classes, the same
/// representatives and the same sequence as when these digests were
/// taken. The consistent walk's order is the unpruned order filtered by
/// the model. Parallel walks stamp candidates with their sequential
/// position, so this order is also what Table 1's Forbid list and the
/// benchmark's seeded leaf samples are built on.
#[test]
fn emission_order_is_pinned() {
    let cpp_atomic = EnumConfig {
        arch: Arch::Cpp,
        events: 3,
        max_threads: 2,
        max_locs: 2,
        fences: false,
        deps: false,
        rmws: false,
        txns: true,
        attrs: true,
        atomic_txns: true,
    };
    let cases: [(&str, EnumConfig, &dyn Model, u64, u64); 3] = [
        (
            "x86 |E|=4",
            EnumConfig::hw(Arch::X86, 4),
            &X86::tm(),
            0xce49_5aa3_f60b_04fd,
            0x8dcc_1805_7b19_264b,
        ),
        (
            "power |E|=3",
            EnumConfig::hw(Arch::Power, 3),
            &Power::tm(),
            0x84bc_7146_894a_2373,
            0xc05e_00fd_397e_9ec3,
        ),
        (
            "cpp atomic-txns |E|=3",
            cpp_atomic,
            &Cpp::tm(),
            0x7412_5010_1141_b805,
            0x47ee_1b17_dedd_8415,
        ),
    ];
    let mut drifted = Vec::new();
    for (name, cfg, model, all, consistent) in cases {
        let got_all = emission_digest(|f| {
            Walk::new(&cfg).for_each(f);
        });
        let got_consistent = emission_digest(|f| {
            Walk::new(&cfg).consistent(model).for_each(f);
        });
        if (got_all, got_consistent) != (all, consistent) {
            drifted.push(format!(
                "{name}: enumerate {got_all:#018x}, consistent {got_consistent:#018x}"
            ));
        }
    }
    assert!(drifted.is_empty(), "emission order drifted: {drifted:#?}");
}

#[test]
fn three_event_counts() {
    golden(Arch::Sc, 3, 2_641);
    golden(Arch::X86, 3, 3_699);
    golden(Arch::Power, 3, 33_193);
    golden(Arch::Armv8, 3, 232_796);
    golden(Arch::Cpp, 3, 3_123);
}

#[test]
fn four_event_counts_cheap_spaces() {
    golden(Arch::Sc, 4, 97_898);
    golden(Arch::X86, 4, 138_678);
    golden(Arch::Cpp, 4, 107_350);
}

#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in release"]
fn four_event_count_power() {
    golden(Arch::Power, 4, 11_221_961);
}

#[test]
#[ignore = "about a minute in release on one core; CI runs it in release"]
fn four_event_count_armv8() {
    golden(Arch::Armv8, 4, 168_076_198);
}

#[test]
#[ignore = "the |E| = 5 bound the streaming engine unlocks; CI runs it in release"]
fn five_event_count_x86() {
    golden(Arch::X86, 5, 6_094_392);
}

#[test]
fn four_event_consistent_count_x86() {
    golden_consistent(Arch::X86, &X86::tm(), 4, 60_352);
}

#[test]
#[ignore = "seconds in release; the CI prune-smoke job runs it"]
fn five_event_consistent_count_x86() {
    golden_consistent(Arch::X86, &X86::tm(), 5, 1_715_002);
}

#[test]
#[ignore = "the |E| = 6 bound consistency-guided pruning unlocks (~1 min \
            single-core in release); the CI prune-smoke job runs it"]
fn six_event_consistent_count_x86() {
    golden_consistent(Arch::X86, &X86::tm(), 6, 51_415_611);
}

#[test]
#[ignore = "~10 s in release; the CI prune-smoke job runs it"]
fn four_event_consistent_count_power() {
    golden_consistent(Arch::Power, &Power::tm(), 4, 3_441_758);
}

#[test]
#[ignore = "~1 min in release; the CI prune-smoke job runs it"]
fn four_event_consistent_count_armv8() {
    golden_consistent(Arch::Armv8, &Armv8::tm(), 4, 48_749_694);
}

#[test]
#[ignore = "~2 h single-core in release (2,479,467,883 classes; ~11.4B \
            candidates pruned); the CI prune-smoke job runs it"]
fn five_event_consistent_count_power() {
    golden_consistent(Arch::Power, &Power::tm(), 5, 2_479_467_883);
}

// ---- ARMv8 |E| = 5 and |E| = 6: measure-and-pin harnesses ------------
//
// None of these bounds has completed on a single core yet: the
// Power |E| = 4 → 5 wall-clock scale factor is ~700x, which projects
// ARMv8 |E| = 5 to half a day and the |E| = 6 bounds to weeks. There
// is no literal to pin,
// so the harnesses stay behind the existing slow-bench flag: a
// `PRUNE_BENCH_FULL=1` run prints the count, and the first completed
// run promotes it into the `Option` constants below, after which the
// test asserts it like every other golden.

/// Pinned heavyweight consistent-class counts; `None` until a full
/// run has completed (see ROADMAP "Push the pruned frontier").
const FIVE_EVENT_ARMV8: Option<usize> = None;
const SIX_EVENT_POWER: Option<usize> = None;
const SIX_EVENT_ARMV8: Option<usize> = None;

fn golden_consistent_full(arch: Arch, model: &dyn Model, events: usize, pinned: Option<usize>) {
    if std::env::var_os("PRUNE_BENCH_FULL").is_none() {
        eprintln!("{arch:?} |E|={events}: skipped (set PRUNE_BENCH_FULL=1 to run)");
        return;
    }
    let (got, _) = Walk::new(&EnumConfig::hw(arch, events))
        .consistent(model)
        .count();
    match pinned {
        Some(expect) => assert_eq!(
            got, expect,
            "{arch:?} |E|={events}: consistent class count drifted"
        ),
        None => println!("{arch:?} |E|={events}: {got} consistent classes — pin this value"),
    }
}

#[test]
#[ignore = "hours single-core; runs only under PRUNE_BENCH_FULL=1"]
fn five_event_consistent_count_armv8() {
    golden_consistent_full(Arch::Armv8, &Armv8::tm(), 5, FIVE_EVENT_ARMV8);
}

#[test]
#[ignore = "most of a day single-core; runs only under PRUNE_BENCH_FULL=1"]
fn six_event_consistent_count_power() {
    golden_consistent_full(Arch::Power, &Power::tm(), 6, SIX_EVENT_POWER);
}

#[test]
#[ignore = "days single-core; runs only under PRUNE_BENCH_FULL=1"]
fn six_event_consistent_count_armv8() {
    golden_consistent_full(Arch::Armv8, &Armv8::tm(), 6, SIX_EVENT_ARMV8);
}
