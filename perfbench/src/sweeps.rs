//! The `sweeps` workload: the paper's offline runs inside this process
//! on a 2-worker steal pool, with no serving layer in the way.
//!
//! One pass is both Table 1 rows (`Session::synthesise` with the Table 1
//! configuration, each Forbid and Allow test then run through
//! `Session::observable`) followed by the two golden consistent walks.
//! The three tasks use the walk layer three different ways — Table 1
//! walks unpruned, the x86 oracle answers every probe from delta state,
//! the Power oracle falls back on nearly every probe — so a change to
//! one path moves one task's time and leaves the other two flat.

use std::sync::Arc;
use std::time::Instant;

use txmm::core::arena::{ExecArena, PackedExecution};
use txmm::core::rng::SplitMix64;
use txmm::core::{Execution, PruneStats, Rel};
use txmm::models::{Arch, Model, Power, X86};
use txmm::obs::WalkProgress;
use txmm::session::Session;
use txmm::synth::{
    canon_key, count_consistent_par_progress, oracle_for, visit_pruned_par_progress, EnumConfig,
    LeafChecker,
};

use crate::metrics::Report;
use crate::stats;
use crate::Outcome;

/// The steal pool's width: the benchmark's load comes from one process
/// with at most two threads, matching the two cores it is sized for.
const WORKERS: usize = 2;

/// The golden consistent walks with their pinned class counts (the
/// values `tests/enumeration_golden.rs` asserts).
const WALKS: [(&str, Arch, usize, usize); 2] = [
    ("walk_x86", Arch::X86, 5, 1_715_002),
    ("walk_power", Arch::Power, 4, 3_441_758),
];

/// Table 1 rows: `(tm model, baseline, arch, |E|, Forbid, Allow)` as
/// the seed commit synthesises them. The x86 row stops at |E| = 4: the
/// |E| = 5 row (4.8M candidates, ~15 s) made a run 25-30 s long, and
/// over ten such runs the shared host's speed drift spread the times
/// by 15-35% (IQR over median).
const TABLE1: [(&str, &str, Arch, usize, usize, usize); 2] = [
    ("x86-tm", "x86", Arch::X86, 4, 22, 92),
    ("power-tm", "power", Arch::Power, 3, 4, 17),
];

/// Nominal seconds of one pass, used to turn `--seconds` into a fixed
/// pass count (equal on every commit, so memory and CPU compare).
const PASS_NOMINAL_S: f64 = 11.0;

/// Set-up repetitions per probe process, and rounds of probes per run.
const SETUP_REPS: usize = 201;
const SETUP_ROUNDS: usize = 5;

/// One leaf in this many is kept (seeded) for the per-call cost sample.
const SAMPLE_EVERY: u64 = 1500;
/// Upper bound on kept leaves per walk.
const SAMPLE_CAP: usize = 2048;

fn model_for(arch: Arch) -> Box<dyn Model> {
    match arch {
        Arch::X86 => Box::new(X86::tm()),
        _ => Box::new(Power::tm()),
    }
}

/// Session and model construction: what a sweep pays before its first
/// candidate.
fn setup() -> (Session, Vec<Box<dyn Model>>) {
    let session = Session::new();
    for (tm, base, ..) in TABLE1 {
        session.resolve(tm).expect("registered TM model");
        session.resolve(base).expect("registered baseline");
    }
    let models = WALKS.iter().map(|w| model_for(w.1)).collect();
    (session, models)
}

/// Median of [`SETUP_REPS`] constructions in this process: the body of
/// `perfbench --setup-probe`.
pub fn setup_seconds() -> f64 {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        std::hint::black_box(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    stats::median(&times).expect("at least one set-up")
}

/// `setup_s`: [`setup_seconds`] measured in fresh processes, [`WORKERS`]
/// at a time, so every round runs one probe per core; the value is the
/// median over [`SETUP_ROUNDS`] of each round's mean. A construction
/// takes microseconds, and on a shared host one core can run it 1.7x
/// slower than the other for a whole run, so a single-core measurement
/// reads bimodal from run to run.
fn setup_seconds_probed() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    for _ in 0..SETUP_ROUNDS {
        let probes = (0..WORKERS)
            .map(|_| {
                std::process::Command::new(&exe)
                    .arg("--setup-probe")
                    .stdout(std::process::Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("cannot run the set-up probe: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut times = Vec::with_capacity(WORKERS);
        for probe in probes {
            let done = probe
                .wait_with_output()
                .map_err(|e| format!("set-up probe failed: {e}"))?;
            let text = String::from_utf8_lossy(&done.stdout);
            times.push(
                text.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("set-up probe printed {text:?}"))?,
            );
        }
        rounds.push(stats::mean(&times));
    }
    Ok(stats::median(&rounds).expect("at least one round"))
}

/// One Table 1 pass: both rows synthesised, every test observed.
struct Table1 {
    candidates: u64,
    forbid: u64,
    allow: u64,
    observe_s: f64,
    busy_us: u64,
    idle_us: u64,
    pool_s: f64,
}

fn table1(out: &mut Outcome, traced: bool) -> Table1 {
    let mut session = Session::new();
    let mut t = Table1 {
        candidates: 0,
        forbid: 0,
        allow: 0,
        observe_s: 0.0,
        busy_us: 0,
        idle_us: 0,
        pool_s: 0.0,
    };
    for (tm, base, arch, events, forbid, allow) in TABLE1 {
        let progress = traced.then(|| Arc::new(WalkProgress::new()));
        session.set_walk_progress(progress.clone());
        let (tm, base) = (
            session.resolve(tm).expect("registered"),
            session.resolve(base).expect("registered"),
        );
        let start = Instant::now();
        let r = session.synthesise(&txmm_bench::table1_config(arch, events), tm, base, None);
        t.pool_s += start.elapsed().as_secs_f64();
        if let Some(p) = progress {
            for lane in p.snapshot().workers {
                t.busy_us += lane.busy_micros;
                t.idle_us += lane.idle_micros;
            }
        }
        out.check(
            r.complete && r.forbid.len() == forbid && r.allow.len() == allow,
            || {
                format!(
                    "Table 1 {arch:?} |E|={events}: {} Forbid / {} Allow, expected {forbid} / {allow}",
                    r.forbid.len(),
                    r.allow.len()
                )
            },
        );
        t.candidates += r.candidates as u64;
        t.forbid += r.forbid.len() as u64;
        t.allow += r.allow.len() as u64;
        // The paper's check that the model is not too strong: no
        // Forbid test is observable on the simulated hardware.
        let start = Instant::now();
        for f in &r.forbid {
            let seen = session.observable(&f.exec, arch);
            out.check(seen == Some(false), || {
                format!("Table 1 {arch:?}: Forbid test observed ({seen:?})")
            });
        }
        for a in &r.allow {
            std::hint::black_box(session.observable(a, arch));
        }
        t.observe_s += start.elapsed().as_secs_f64();
    }
    t
}

fn untraced_walk(out: &mut Outcome, name: &str, arch: Arch, events: usize, golden: usize) {
    let model = model_for(arch);
    let (classes, _) =
        count_consistent_par_progress(&EnumConfig::hw(arch, events), model.as_ref(), WORKERS, None);
    out.check(classes == golden, || {
        format!("{name}: {classes} consistent classes, golden {golden}")
    });
}

/// Run the untraced workload: `passes` timed passes after set-up.
pub fn run(seconds: u64, out: &mut Outcome, report: &mut Report) -> Result<(), String> {
    let setup_s = setup_seconds_probed()?;
    let passes = ((seconds as f64 / PASS_NOMINAL_S).round() as usize).max(1);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut tasks: [Vec<f64>; 3] = Default::default();
    for _ in 0..passes {
        let cpu0 = crate::procfs::cpu_seconds("self").expect("own /proc/self/stat");
        let start = Instant::now();
        table1(out, false);
        let t1 = start.elapsed().as_secs_f64();
        for (i, (name, arch, events, golden)) in WALKS.into_iter().enumerate() {
            let start = Instant::now();
            untraced_walk(out, name, arch, events, golden);
            tasks[i + 1].push(start.elapsed().as_secs_f64());
        }
        tasks[0].push(t1);
        walls.push(start.elapsed().as_secs_f64());
        cpus.push(crate::procfs::cpu_seconds("self").expect("own /proc/self/stat") - cpu0);
    }
    report.set("setup_s", setup_s);
    report.set("wall_s", stats::median(&walls).expect("a pass"));
    report.set("cpu_s", stats::median(&cpus).expect("a pass"));
    report.set(
        "peak_rss_mb",
        crate::procfs::peak_rss_mb("self").expect("own VmHWM"),
    );
    for (name, times) in ["table1_s", "walk_x86_s", "walk_power_s"]
        .iter()
        .zip(&tasks)
    {
        report.info(
            name,
            stats::median(times).expect("a pass"),
            "s",
            times.len(),
        );
    }
    Ok(())
}

/// Per-worker state of a traced walk: the leaf checker plus the
/// benchmark's own counters around it.
struct WalkState<'m> {
    check: LeafChecker<'m>,
    leaves: u64,
    classes: u64,
    leaf_ns: u64,
    sample: Vec<Execution>,
}

struct WalkTrace {
    wall_s: f64,
    busy_us: u64,
    idle_us: u64,
    leaf_us: f64,
    leaves: u64,
    classes: u64,
    prune: PruneStats,
    sample: Vec<Execution>,
}

/// The walk `count_consistent_par_progress` runs, rebuilt from the same
/// public pieces so each leaf check can be timed from outside.
fn traced_walk(arch: Arch, events: usize, seed: u64) -> WalkTrace {
    let model = model_for(arch);
    let model = model.as_ref();
    let progress = WalkProgress::new();
    let start = Instant::now();
    let (states, prune, _) = visit_pruned_par_progress(
        &EnumConfig::hw(arch, events),
        oracle_for(model, false),
        WORKERS,
        Some(&progress),
        |_| WalkState {
            check: LeafChecker::new(model),
            leaves: 0,
            classes: 0,
            leaf_ns: 0,
            sample: Vec::new(),
        },
        |(sub, emit), x, s: &mut WalkState| {
            let t0 = Instant::now();
            let ok = s.check.consistent(x);
            s.leaf_ns += t0.elapsed().as_nanos() as u64;
            s.leaves += 1;
            s.classes += u64::from(ok);
            // A leaf's (subtree, emit) position is the same on every
            // run, so the seed alone picks the sample.
            let h = SplitMix64::seed_from_u64(seed ^ (sub << 24) ^ u64::from(emit)).next_u64();
            if h.is_multiple_of(SAMPLE_EVERY) && s.sample.len() < SAMPLE_CAP {
                s.sample.push(x.clone());
            }
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let mut t = WalkTrace {
        wall_s,
        busy_us: 0,
        idle_us: 0,
        leaf_us: 0.0,
        leaves: 0,
        classes: 0,
        prune,
        sample: Vec::new(),
    };
    for lane in progress.snapshot().workers {
        t.busy_us += lane.busy_micros;
        t.idle_us += lane.idle_micros;
    }
    for s in states {
        t.leaves += s.leaves;
        t.classes += s.classes;
        t.leaf_us += s.leaf_ns as f64 / 1e3;
        t.sample.extend(s.sample);
    }
    t
}

/// Mean nanoseconds per call of `f` over `items`, repeated until the
/// measurement spans at least 50 ms.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let (mut calls, mut elapsed) = (0u64, 0f64);
    while elapsed < 0.05 && !items.is_empty() {
        let start = Instant::now();
        for x in items {
            f(x);
        }
        elapsed += start.elapsed().as_secs_f64();
        calls += items.len() as u64;
    }
    stats::ratio(elapsed * 1e9, calls as f64)
}

/// Mean nanoseconds of `model.check_analysis` over fresh analyses of
/// `xs` (analyses cache derived relations, so each is checked once).
fn check_ns(model: &dyn Model, xs: &[Execution]) -> f64 {
    let (mut calls, mut elapsed) = (0u64, 0f64);
    while elapsed < 0.05 && !xs.is_empty() {
        for chunk in xs.chunks(256) {
            let analyses: Vec<_> = chunk.iter().map(Execution::analysis).collect();
            let start = Instant::now();
            for a in &analyses {
                std::hint::black_box(model.check_analysis(a));
            }
            elapsed += start.elapsed().as_secs_f64();
            calls += analyses.len() as u64;
        }
    }
    stats::ratio(elapsed * 1e9, calls as f64)
}

fn per_call_costs(report: &mut Report, x86: &[Execution], power: &[Execution]) {
    let all: Vec<Execution> = x86.iter().chain(power).cloned().collect();
    report.set(
        "core.analysis_ns",
        ns_per_call(&all, |x| {
            std::hint::black_box(x.analysis());
        }),
    );
    report.set("models.check_ns.x86-tm", check_ns(&X86::tm(), x86));
    report.set("models.check_ns.power-tm", check_ns(&Power::tm(), power));
    let cat = Session::with_shipped_cat();
    for (name, metric, xs) in [
        ("x86-tm.cat", "cat.vm_check_ns.x86-tm", x86),
        ("power-tm.cat", "cat.vm_check_ns.power-tm", power),
    ] {
        let model = cat.model(cat.resolve(name).expect("shipped .cat twin"));
        // The first check per event count specialises the VM program.
        for x in xs {
            model.check_analysis(&x.analysis());
        }
        report.set(metric, check_ns(model, xs));
    }
    report.set(
        "synth.canon_key_ns",
        ns_per_call(&all, |x| {
            std::hint::black_box(canon_key(x));
        }),
    );
    let (mut calls, mut elapsed) = (0u64, 0f64);
    while elapsed < 0.05 && !all.is_empty() {
        let mut arena = ExecArena::new();
        let start = Instant::now();
        for x in &all {
            std::hint::black_box(arena.intern(x));
        }
        elapsed += start.elapsed().as_secs_f64();
        calls += all.len() as u64;
    }
    report.set(
        "core.arena_intern_ns",
        stats::ratio(elapsed * 1e9, calls as f64),
    );
    report.set("core.rel_bytes", std::mem::size_of::<Rel>() as f64);
    report.set(
        "core.execution_bytes",
        std::mem::size_of::<Execution>() as f64,
    );
    report.set(
        "core.packed_execution_bytes",
        std::mem::size_of::<PackedExecution>() as f64,
    );
}

/// Largest tolerated `bench.unattributed_share`: pool threads spawn,
/// claim jobs and retire outside the lanes' busy/idle clocks.
pub const TOLERANCE: f64 = 0.10;

/// Run the traced workload: each task untraced (the overhead base) and
/// then traced, back to back so both see the same host conditions, then
/// the per-call costs on the walks' leaves.
pub fn run_traced(seed: u64, out: &mut Outcome, report: &mut Report) {
    let start = Instant::now();
    table1(out, false);
    let mut untraced_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let t = table1(out, true);
    let table1_s = start.elapsed().as_secs_f64();
    report.set("synth.busy_us.table1", t.busy_us as f64);
    report.set("synth.idle_us.table1", t.idle_us as f64);
    report.set("synth.candidates.table1", t.candidates as f64);
    report.set("synth.forbid.table1", t.forbid as f64);
    report.set("synth.allow.table1", t.allow as f64);
    report.set("hwsim.observe_us.table1", t.observe_s * 1e6);
    // Table 1 wall time the layers account for: the pool's worker time
    // spread over its workers, plus the sequential observe loop.
    let mut attributed_s = (t.busy_us + t.idle_us) as f64 / 1e6 / WORKERS as f64 + t.observe_s;
    let mut traced_s = table1_s;
    report.note(format!(
        "table1: wall {table1_s:.3} s, synthesise {:.3} s, observe {:.3} s",
        t.pool_s, t.observe_s
    ));

    let mut samples: Vec<Vec<Execution>> = Vec::new();
    for (name, arch, events, golden) in WALKS {
        let start = Instant::now();
        untraced_walk(out, name, arch, events, golden);
        untraced_s += start.elapsed().as_secs_f64();
        let w = traced_walk(arch, events, seed);
        out.check(w.classes as usize == golden, || {
            format!(
                "traced {name}: {} consistent classes, golden {golden}",
                w.classes
            )
        });
        traced_s += w.wall_s;
        attributed_s += (w.busy_us + w.idle_us) as f64 / 1e6 / WORKERS as f64;
        let oracle_us = w.prune.oracle_micros as f64;
        let set =
            |report: &mut Report, metric: &str, v: f64| report.set(&format!("{metric}.{name}"), v);
        set(report, "synth.busy_us", w.busy_us as f64);
        set(report, "synth.idle_us", w.idle_us as f64);
        set(report, "models.leaf_check_us", w.leaf_us);
        set(report, "core.incr.oracle_us", oracle_us);
        set(
            report,
            "synth.self_us",
            w.busy_us as f64 - w.leaf_us - oracle_us,
        );
        set(report, "synth.leaves", w.leaves as f64);
        set(report, "synth.classes", w.classes as f64);
        set(
            report,
            "synth.useful_ratio",
            stats::ratio(w.classes as f64, w.leaves as f64),
        );
        let p = &w.prune;
        set(report, "core.incr.fallbacks", p.fallbacks as f64);
        set(report, "core.incr.delta_answers", p.delta_answers as f64);
        set(
            report,
            "core.incr.delta_share",
            stats::ratio(
                p.delta_answers as f64,
                (p.delta_answers + p.fallbacks) as f64,
            ),
        );
        set(report, "core.incr.subtrees_cut", p.subtrees_cut as f64);
        set(
            report,
            "core.incr.candidates_skipped",
            p.candidates_skipped as f64,
        );
        set(report, "core.incr.batches", p.batches as f64);
        let coverage = (w.busy_us + w.idle_us) as f64 / 1e6 / (WORKERS as f64 * w.wall_s);
        report.note(format!(
            "{name}: wall {:.3} s, busy+idle covers {:.4} of {WORKERS} x wall, {} sampled leaves",
            w.wall_s,
            coverage,
            w.sample.len()
        ));
        out.check(
            stats::unattributed_share(coverage, 1.0) <= TOLERANCE,
            || format!("{name}: busy+idle covers {coverage:.4} of workers x wall"),
        );
        samples.push(w.sample);
    }
    report.set(
        "bench.trace_overhead",
        stats::overhead(traced_s, untraced_s),
    );
    let unattributed = stats::unattributed_share(attributed_s, traced_s);
    report.set("bench.unattributed_share", unattributed);
    out.check(unattributed <= TOLERANCE, || {
        format!("sweeps: unattributed share {unattributed:.4} exceeds {TOLERANCE}")
    });
    per_call_costs(report, &samples[0], &samples[1]);
}
