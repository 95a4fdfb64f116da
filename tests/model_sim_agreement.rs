//! Cross-validation of the axiomatic models against the operational
//! machine, over *every* enumerated execution at a small bound.
//!
//! Soundness direction (must always hold): anything the machine can
//! observe is consistent under the architecture's transactional model —
//! the simulated hardware never exceeds the architecture.
//!
//! (The converse — everything consistent is observable — deliberately
//! fails in places: real implementations are conservative, e.g. the
//! Power machine never exhibits load buffering, §5.3.)

use txmm::hwsim::{observable, run};
use txmm::litmus::{litmus_from_execution, parse_litmus};
use txmm::models::catalog;
use txmm::prelude::*;
use txmm::synth::Walk;

/// The soundness space of `arch` at `events` events.
fn space(arch: Arch, events: usize) -> EnumConfig {
    EnumConfig {
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
    }
}

fn soundness(arch: Arch, events: usize) {
    let model = txmm::models::registry::by_name(match arch {
        Arch::X86 => "x86-tm",
        Arch::Power => "power-tm",
        Arch::Armv8 => "armv8-tm",
        _ => unreachable!(),
    })
    .expect("registered");
    let cfg = space(arch, events);
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
        if observable(&t).expect("a hardware architecture's machine runs it") {
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

/// Ways a real implementation is more conservative than its
/// architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conservatism {
    /// The implementation never exhibits load buffering:
    /// `acyclic(po ∪ rf)` (POWER8, §5.3).
    NoLoadBuffering,
}

/// An axiomatic stand-in for hardware: an execution is observable when
/// it is consistent under the architecture's model **and** passes the
/// implementation's conservatism rules.
struct Oracle {
    model: Box<dyn Model>,
    rules: Vec<Conservatism>,
    name: String,
}

impl Oracle {
    /// An implementation that exactly realises its architecture model.
    fn exact(model: Box<dyn Model>) -> Oracle {
        let name = format!("{}-hw", model.name());
        Oracle {
            model,
            rules: Vec::new(),
            name,
        }
    }

    /// An implementation with conservatism rules.
    fn conservative(model: Box<dyn Model>, rules: Vec<Conservatism>) -> Oracle {
        let name = format!("{}-hw-conservative", model.name());
        Oracle { model, rules, name }
    }

    /// Would this execution be observable on the simulated machine?
    fn admits(&self, x: &Execution) -> bool {
        let a = x.analysis();
        self.model.consistent_analysis(&a)
            && self.rules.iter().all(|r| match r {
                Conservatism::NoLoadBuffering => a.po().union(a.rf()).is_acyclic(),
            })
    }
}

#[test]
fn exact_oracle_mirrors_model() {
    let o = Oracle::exact(Box::new(X86::tm()));
    assert!(o.admits(&catalog::sb(None, false, false)));
    assert!(!o.admits(&catalog::sb(None, true, true)));
    assert_eq!(o.name, "x86-tm-hw");
}

#[test]
fn power8_oracle_hides_lb() {
    let exact = Oracle::exact(Box::new(Power::tm()));
    let p8 = Oracle::conservative(Box::new(Power::tm()), vec![Conservatism::NoLoadBuffering]);
    let lb = catalog::lb(false);
    assert!(exact.admits(&lb), "the model allows LB");
    assert!(!p8.admits(&lb), "the hardware never shows it");
    // Non-LB behaviours unaffected.
    let sbx = catalog::sb(None, false, false);
    assert_eq!(exact.admits(&sbx), p8.admits(&sbx));
}

#[test]
fn armv8_oracle_admits_elision_witness() {
    let o = Oracle::exact(Box::new(Armv8::tm()));
    assert!(o.admits(&catalog::armv8_elision(false)));
    assert!(!o.admits(&catalog::armv8_elision(true)));
}

/// The oracle "hardware" coincides with its model by construction; the
/// conservative Power oracle differs exactly on po∪rf cycles.
#[test]
fn oracle_conservatism_scope() {
    let exact = Oracle::exact(Box::new(Power::tm()));
    let p8 = Oracle::conservative(Box::new(Power::tm()), vec![Conservatism::NoLoadBuffering]);
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

/// Completeness spot checks: the machine observes the canonical
/// allowed relaxations of each architecture.
#[test]
fn sims_observe_canonical_relaxations() {
    let sb = litmus_from_execution("sb", &catalog::sb(None, false, false), Arch::X86);
    assert!(observable(&sb) == Some(true));
    let mp = litmus_from_execution("mp", &catalog::mp(None, false, false), Arch::Power);
    assert!(observable(&mp) == Some(true));
    let lb = litmus_from_execution("lb", &catalog::lb(false), Arch::Armv8);
    assert!(observable(&lb) == Some(true));
    // And Power's ordering table mirrors POWER8's missing load buffering.
    let lbp = litmus_from_execution("lb", &catalog::lb(false), Arch::Power);
    assert!(observable(&lbp) == Some(false));
}

const MACHINES: [Arch; 3] = [Arch::X86, Arch::Armv8, Arch::Power];

/// An FNV-1a digest of outcome sets, in the order they were folded in,
/// with the number of machine runs and of outcomes behind it.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    runs: usize,
    outcomes: usize,
    fnv: u64,
}

fn digest(runs: usize, outcomes: usize, fnv: u64) -> Digest {
    Digest {
        runs,
        outcomes,
        fnv,
    }
}

impl Digest {
    fn new() -> Digest {
        Digest {
            runs: 0,
            outcomes: 0,
            fnv: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.fnv = (self.fnv ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }

    /// Fold in `t`'s outcome set on its own architecture's machine.
    fn machine(&mut self, t: &LitmusTest) {
        let Some(set) = run(t) else {
            return;
        };
        self.runs += 1;
        self.outcomes += set.len();
        self.word(
            MACHINES
                .iter()
                .position(|&a| a == t.arch)
                .expect("a machine") as u64,
        );
        self.word(set.len() as u64);
        for o in &set {
            self.word(o.regs.len() as u64);
            for r in &o.regs {
                self.words(r.iter().map(|&v| u64::from(v)));
            }
            self.words(o.memory.iter().map(|&v| u64::from(v)));
            self.words(o.txn_ok.iter().map(|&ok| u64::from(ok)));
            self.word(o.co_order.len() as u64);
            for c in &o.co_order {
                self.words(c.iter().map(|&v| u64::from(v)));
            }
        }
    }

    /// Fold in `t` run on every machine that accepts it.
    fn every_machine(&mut self, t: &LitmusTest) {
        for arch in MACHINES {
            self.machine(&LitmusTest { arch, ..t.clone() });
        }
    }
}

/// The outcome sets of the paper's catalog and of both `txmm gen`
/// corpora, on every machine, are pinned: a change to any machine's
/// rules that adds, drops or alters one reachable final state shows.
#[test]
fn outcome_sets_are_pinned() {
    let mut d = Digest::new();
    for entry in catalog::all() {
        for arch in MACHINES {
            d.machine(&litmus_from_execution(entry.name, &entry.exec, arch));
        }
    }
    assert_eq!(d, digest(87, 611, 9_006_667_017_033_184_118), "catalog");
    for (events, programs, want) in [
        (3, 50, digest(150, 802, 11_062_373_390_965_998_932)),
        (4, 143, digest(429, 2_198, 2_084_592_940_064_873_716)),
    ] {
        let corpus = txmm::corpus::generate(events);
        assert_eq!(corpus.len(), programs);
        let mut d = Digest::new();
        for (name, src) in &corpus {
            d.every_machine(&parse_litmus(src).unwrap_or_else(|e| panic!("{name}: {e}")));
        }
        assert_eq!(d, want, "txmm gen --events {events}");
    }
}

/// Every execution of the soundness spaces above, and every Table 1
/// Forbid and Allow test at the benchmark's bounds (x86 |E| <= 4,
/// Power |E| <= 3), on its own architecture's machine.
#[test]
#[ignore = "minutes in debug; the CI prune-smoke job runs it in release"]
fn outcome_sets_at_release_bounds_are_pinned() {
    for (arch, want) in [
        (Arch::X86, digest(3_313, 4_819, 13_239_856_963_252_435_015)),
        (
            Arch::Armv8,
            digest(217_544, 211_464, 1_576_977_160_691_551_013),
        ),
        (
            Arch::Power,
            digest(31_131, 30_473, 1_010_128_403_572_330_117),
        ),
    ] {
        let mut d = Digest::new();
        Walk::new(&space(arch, 3)).for_each(|x| d.machine(&litmus_from_execution("t", x, arch)));
        assert_eq!(d, want, "{} |E| = 3", arch.name());
    }
    let s = Session::new();
    for (arch, tm, base, events, want) in [
        (
            Arch::X86,
            "x86-tm",
            "x86",
            4,
            digest(114, 496, 11_191_239_713_646_216_997),
        ),
        (
            Arch::Power,
            "power-tm",
            "power",
            3,
            digest(21, 66, 5_808_742_461_766_326_564),
        ),
    ] {
        let cfg = EnumConfig {
            max_locs: 2,
            deps: arch == Arch::Power,
            attrs: false,
            ..EnumConfig::hw(arch, events)
        };
        let (tm, base) = (s.resolve(tm).unwrap(), s.resolve(base).unwrap());
        let r = s.synthesise(&cfg, tm, base, None);
        let mut d = Digest::new();
        for x in r.forbid.iter().map(|f| &f.exec).chain(&r.allow) {
            d.machine(&litmus_from_execution("t", x, arch));
        }
        assert_eq!(d, want, "Table 1 {} |E| <= {events}", arch.name());
    }
}
