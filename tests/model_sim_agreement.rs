//! Cross-validation of the axiomatic models against the operational
//! simulators, over *every* enumerated execution at a small bound.
//!
//! Soundness direction (must always hold): anything a simulator can
//! observe is consistent under the architecture's transactional model —
//! the simulated hardware never exceeds the architecture.
//!
//! (The converse — everything consistent is observable — deliberately
//! fails in places: real implementations are conservative, e.g. the
//! Power simulator never exhibits load buffering, §5.3.)

use txmm::litmus::litmus_from_execution;
use txmm::prelude::*;
use txmm::synth::Walk;

fn soundness(arch: Arch, events: usize) {
    let model = txmm::models::registry::by_name(match arch {
        Arch::X86 => "x86-tm",
        Arch::Power => "power-tm",
        Arch::Armv8 => "armv8-tm",
        _ => unreachable!(),
    })
    .expect("registered");
    let cfg = EnumConfig {
        arch,
        events,
        max_threads: 2,
        max_locs: 2,
        fences: true,
        deps: arch != Arch::X86,
        rmws: true,
        txns: true,
        attrs: arch == Arch::Armv8,
        atomic_txns: false,
    };
    let stride = if cfg!(debug_assertions) { 5 } else { 1 };
    let mut seen = 0usize;
    let mut observable_count = 0usize;
    let mut total = 0usize;
    Walk::new(&cfg).for_each(|x| {
        seen += 1;
        if !seen.is_multiple_of(stride) {
            return;
        }
        total += 1;
        let t = litmus_from_execution("t", x, arch);
        let observable = match arch {
            Arch::X86 => TsoSim.observable(&t),
            Arch::Power => PowerSim::default().observable(&t),
            Arch::Armv8 => ArmSim::default().observable(&t),
            _ => unreachable!(),
        };
        if observable {
            observable_count += 1;
            assert!(
                model.consistent(x),
                "{} simulator observes a model-forbidden execution:\n{}",
                arch.name(),
                txmm::core::display::render(x)
            );
        }
    });
    assert!(total > 0);
    assert!(observable_count > 0, "simulator must observe something");
}

#[test]
fn x86_sim_sound_wrt_model() {
    soundness(Arch::X86, 3);
}

#[test]
fn power_sim_sound_wrt_model() {
    soundness(Arch::Power, 3);
}

#[test]
fn armv8_sim_sound_wrt_model() {
    soundness(Arch::Armv8, 3);
}

/// The oracle "hardware" coincides with its model by construction; the
/// conservative Power oracle differs exactly on po∪rf cycles.
#[test]
fn oracle_conservatism_scope() {
    let exact = Oracle::exact(Box::new(Power::tm()));
    let p8 = Oracle::conservative(
        Box::new(Power::tm()),
        vec![txmm::hwsim::Conservatism::NoLoadBuffering],
    );
    let cfg = EnumConfig {
        arch: Arch::Power,
        events: 3,
        max_threads: 2,
        max_locs: 2,
        fences: false,
        deps: true,
        rmws: false,
        txns: true,
        attrs: false,
        atomic_txns: false,
    };
    let mut diffs = 0usize;
    Walk::new(&cfg).for_each(|x| {
        if exact.admits(x) != p8.admits(x) {
            diffs += 1;
            assert!(
                !x.po().union(x.rf()).is_acyclic(),
                "conservatism must only remove LB shapes"
            );
        }
    });
    let _ = diffs;
}

/// Completeness spot checks: the simulators observe the canonical
/// allowed relaxations of their architectures.
#[test]
fn sims_observe_canonical_relaxations() {
    use txmm::models::catalog;
    let sb = litmus_from_execution("sb", &catalog::sb(None, false, false), Arch::X86);
    assert!(TsoSim.observable(&sb));
    let mp = litmus_from_execution("mp", &catalog::mp(None, false, false), Arch::Power);
    assert!(PowerSim::default().observable(&mp));
    let lb = litmus_from_execution("lb", &catalog::lb(false), Arch::Armv8);
    assert!(ArmSim::default().observable(&lb));
    // And the conservatism knob mirrors POWER8.
    let lbp = litmus_from_execution("lb", &catalog::lb(false), Arch::Power);
    assert!(!PowerSim::default().observable(&lbp));
}
