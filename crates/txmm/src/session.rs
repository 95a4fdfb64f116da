//! The long-lived checking engine: one pipeline, many drivers.
//!
//! Chong–Sorensen–Wickerson's methodology is a single pipeline —
//! enumerate or parse executions, derive their relations, check them
//! against models and the hardware oracle — that the paper runs in many
//! configurations. [`Session`] is that pipeline as a value:
//!
//! * a **unified model registry**: the native Rust models, the shipped
//!   `.cat` sources, and user-supplied `.cat` files all resolve to
//!   `dyn Model`s and are checked identically;
//! * an **arena of executions** ([`txmm_core::arena`]): every execution
//!   the session sees is interned as a flat `Copy` value, keyed by its
//!   *canonical* (symmetry-reduced) form, so structurally different but
//!   symmetric tests share one entry;
//! * **per-execution caches**: model verdicts and hardware-simulator
//!   observability are computed once per (interned execution, model /
//!   architecture) pair and served from the cache afterwards — the warm
//!   path of batch litmus serving never rebuilds an analysis;
//! * the **sweep drivers**: synthesis, model-difference search,
//!   monotonicity / compilation / lock-elision / theorem checking are
//!   exposed as methods, so binaries configure one `Session` instead of
//!   hand-wiring enumerate-and-check loops.
//!
//! ```
//! use txmm::session::Session;
//! use txmm::models::catalog;
//!
//! let mut s = Session::new();
//! let tsc = s.resolve("TSC").unwrap();
//! let v = s.verdict(&catalog::fig2(), tsc);
//! assert!(!v.is_consistent());
//! // Same execution again: served from the verdict cache.
//! let v2 = s.verdict(&catalog::fig2(), tsc);
//! assert_eq!(v, v2);
//! assert_eq!(s.stats().verdict_hits, 1);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use txmm_cat::{parse as parse_cat, CatModel};
use txmm_core::arena::{ExecArena, ExecId};
use txmm_core::{Execution, ExecutionAnalysis};
use txmm_litmus::litmus_from_execution;
use txmm_models::{registry, Arch, Checker, Derived, Model, Verdict};
use txmm_synth::{canon_key, EnumConfig, PruneCounters, SuiteResult, Walk};
use txmm_verify::{CompileResult, ElisionResult, ElisionTarget, MonotonicityResult, TheoremResult};

/// Handle of a registered model within one [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelRef(usize);

impl ModelRef {
    /// The registry slot behind the handle (cache keys use this).
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A `.cat` model adapted to the [`Model`] trait, which is what lets
/// the registry treat native and `.cat`-defined models uniformly. The
/// whole `.cat` evaluation runs in [`Model::axioms`]; evaluation errors
/// surface as a `cat-eval-error: ...` violation rather than a panic, so
/// a broken user model cannot take the serving process down.
struct CatBackend {
    name: &'static str,
    /// Shared with [`SessionTelemetry::cat_models`], so stats snapshots
    /// read the same compile-cache counters the serving path bumps.
    model: Arc<CatModel>,
    arch: Arch,
    tm: bool,
    /// First evaluation error, leaked once: a broken model fails the
    /// same way on every execution, and a long-lived serving process
    /// must not leak per-verdict.
    eval_error: std::sync::OnceLock<&'static str>,
    /// Lazily derived monotone-core prune oracles, indexed by the
    /// transactions-known phase. `None` caches "no check survives";
    /// hot-reload replaces the whole backend, so stale oracles cannot
    /// outlive the program they were extracted from.
    oracles: [std::sync::OnceLock<Option<txmm_cat::CatPruneOracle>>; 2],
}

/// Guess the architecture and transactionality of a `.cat` model from
/// its name (used for user-supplied files; the vocabulary only matters
/// for sweeps, never for plain verdict serving).
fn classify_cat_name(name: &str) -> (Arch, bool) {
    let lower = name.to_ascii_lowercase();
    let arch = if lower.starts_with("x86") {
        Arch::X86
    } else if lower.starts_with("power") {
        Arch::Power
    } else if lower.starts_with("armv8") || lower.starts_with("arm") {
        Arch::Armv8
    } else if lower.starts_with("cpp") || lower.starts_with("c++") {
        Arch::Cpp
    } else {
        Arch::Sc
    };
    let tm = lower.contains("-tm") || lower.contains("tsc");
    (arch, tm)
}

impl Model for CatBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn arch(&self) -> Arch {
        self.arch
    }

    fn is_tm(&self) -> bool {
        self.tm
    }

    fn derived(&self, _a: &ExecutionAnalysis<'_>) -> Derived {
        Derived::new()
    }

    fn axioms(&self, a: &ExecutionAnalysis<'_>, _d: &Derived, c: &mut Checker) {
        match self.model.check_analysis(a) {
            Ok(v) => {
                for axiom in v.violations() {
                    c.fail(axiom);
                }
            }
            Err(e) => {
                let msg = self
                    .eval_error
                    .get_or_init(|| Box::leak(format!("cat-eval-error: {e}").into_boxed_str()));
                c.fail(msg);
            }
        }
    }

    fn prune_oracle(&self, txns_known: bool) -> Option<&dyn txmm_core::incr::PruneOracle> {
        self.oracles[txns_known as usize]
            .get_or_init(|| {
                let _s = txmm_obs::span!("cat.prune_derive");
                txmm_cat::CatPruneOracle::derive(self.name, &self.model, txns_known)
            })
            .as_ref()
            .map(|o| o as &dyn txmm_core::incr::PruneOracle)
    }
}

/// Cache and arena counters of one [`Session`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Distinct executions interned (after canonical aliasing).
    pub interned: usize,
    /// Verdicts served from the cache.
    pub verdict_hits: u64,
    /// Verdicts computed fresh.
    pub verdict_misses: u64,
    /// Observability answers served from the cache.
    pub observability_hits: u64,
    /// Observability answers computed fresh.
    pub observability_misses: u64,
    /// Per-(program, model) outcome sets served from the cache.
    pub outcome_hits: u64,
    /// Per-(program, model) outcome sets computed fresh.
    pub outcome_misses: u64,
    /// Entries in the outcome-set cache.
    pub outcome_entries: usize,
    /// Candidate executions enumerated by the outcome engine (before
    /// canonical pruning), cumulative.
    pub outcome_candidates: u64,
    /// Canonical candidate classes actually checked, cumulative — the
    /// gap to `outcome_candidates` is the work symmetry pruning saved.
    pub outcome_classes: u64,
    /// Construction subtrees the consistency oracles cut, cumulative.
    pub prune_subtrees_cut: u64,
    /// Complete candidates those cuts skipped before they were built,
    /// cumulative.
    pub prune_candidates_skipped: u64,
    /// Prune-oracle invocations (coherence-gate fast rejects not
    /// included), cumulative.
    pub prune_oracle_calls: u64,
    /// Wall-clock microseconds spent inside prune-oracle calls,
    /// cumulative.
    pub prune_oracle_micros: u64,
    /// Viability probes answered from incremental delta state alone
    /// (no analysis rebuilt), cumulative.
    pub prune_delta_answers: u64,
    /// Viability probes the delta state could not decide, falling back
    /// to a full analysis re-check, cumulative.
    pub prune_fallbacks: u64,
    /// Batched sibling-placement oracle calls, cumulative.
    pub prune_batches: u64,
    /// Placements judged across all batches (mean batch size is
    /// `prune_batched_placements / prune_batches`), cumulative.
    pub prune_batched_placements: u64,
    /// `.cat` checks served by an already-specialised program tier.
    pub compile_hits: u64,
    /// `.cat` checks that specialised their program tier first.
    pub compile_misses: u64,
    /// Specialised program tiers resident across all `.cat` models.
    pub compile_entries: u64,
    /// Cumulative `.cat` compile + specialise time, microseconds.
    pub compile_micros: u64,
}

impl SessionStats {
    /// Every counter as `(key, value)`, in the order the daemon's
    /// `stats` answer lists them.
    pub fn fields(&self) -> [(&'static str, u64); 22] {
        [
            ("interned", self.interned as u64),
            ("verdict_hits", self.verdict_hits),
            ("verdict_misses", self.verdict_misses),
            ("observability_hits", self.observability_hits),
            ("observability_misses", self.observability_misses),
            ("outcome_entries", self.outcome_entries as u64),
            ("outcome_hits", self.outcome_hits),
            ("outcome_misses", self.outcome_misses),
            ("outcome_candidates", self.outcome_candidates),
            ("outcome_classes", self.outcome_classes),
            ("compile_hits", self.compile_hits),
            ("compile_misses", self.compile_misses),
            ("compile_entries", self.compile_entries),
            ("compile_micros", self.compile_micros),
            ("prune_subtrees_cut", self.prune_subtrees_cut),
            ("prune_candidates_skipped", self.prune_candidates_skipped),
            ("prune_oracle_calls", self.prune_oracle_calls),
            ("prune_oracle_micros", self.prune_oracle_micros),
            ("prune_delta_answers", self.prune_delta_answers),
            ("prune_fallbacks", self.prune_fallbacks),
            ("prune_batches", self.prune_batches),
            ("prune_batched_placements", self.prune_batched_placements),
        ]
    }
}

/// The session's cache counters as registry handles. Every `Session`
/// creates its own handles (the registry sums live handles of a series
/// for global exposition, so N shard sessions aggregate there) while
/// [`Session::stats`] reads this session's own handles back out —
/// which is what keeps the per-shard `stats` JSON exact. The Session
/// holds it behind an `Arc`, so the daemon's `stats` reads a shard's
/// counters without taking the shard's Session lock.
pub(crate) struct SessionTelemetry {
    pub(crate) interned: txmm_obs::Gauge,
    pub(crate) verdict_hits: txmm_obs::Counter,
    pub(crate) verdict_misses: txmm_obs::Counter,
    pub(crate) observability_hits: txmm_obs::Counter,
    pub(crate) observability_misses: txmm_obs::Counter,
    pub(crate) outcome_hits: txmm_obs::Counter,
    pub(crate) outcome_misses: txmm_obs::Counter,
    pub(crate) outcome_entries: txmm_obs::Gauge,
    pub(crate) outcome_candidates: txmm_obs::Counter,
    pub(crate) outcome_classes: txmm_obs::Counter,
    /// The `txmm_prune_*` series this session's outcome walks add to.
    pub(crate) prune: PruneCounters,
    /// Registry slot → compiled `.cat` model, for aggregating
    /// compile-cache stats; reload replaces the slot's entry.
    cat_models: Mutex<Vec<(usize, Arc<CatModel>)>>,
}

impl SessionTelemetry {
    fn new() -> SessionTelemetry {
        let obs = txmm_obs::global();
        SessionTelemetry {
            interned: obs.gauge(
                "txmm_session_interned_executions",
                "Distinct executions interned (after canonical aliasing).",
            ),
            verdict_hits: obs.counter(
                "txmm_verdict_cache_hits_total",
                "Verdicts served from the cache.",
            ),
            verdict_misses: obs.counter(
                "txmm_verdict_cache_misses_total",
                "Verdicts computed fresh.",
            ),
            observability_hits: obs.counter(
                "txmm_observability_cache_hits_total",
                "Observability answers served from the cache.",
            ),
            observability_misses: obs.counter(
                "txmm_observability_cache_misses_total",
                "Observability answers computed fresh.",
            ),
            outcome_hits: obs.counter(
                "txmm_outcome_cache_hits_total",
                "Per-(program, model) outcome sets served from the cache.",
            ),
            outcome_misses: obs.counter(
                "txmm_outcome_cache_misses_total",
                "Per-(program, model) outcome sets computed fresh.",
            ),
            outcome_entries: obs.gauge(
                "txmm_outcome_cache_entries",
                "Entries in the outcome-set cache.",
            ),
            outcome_candidates: obs.counter(
                "txmm_outcome_candidates_total",
                "Candidate executions enumerated by the outcome engine.",
            ),
            outcome_classes: obs.counter(
                "txmm_outcome_classes_total",
                "Canonical candidate classes actually checked.",
            ),
            prune: PruneCounters::new(),
            cat_models: Mutex::new(Vec::new()),
        }
    }

    /// The `.cat` compile-stat sources; see [`SessionTelemetry::snapshot`].
    pub(crate) fn cat_models(&self) -> MutexGuard<'_, Vec<(usize, Arc<CatModel>)>> {
        // Only pushes and slot swaps run under this lock, so a poisoned
        // list is still whole.
        self.cat_models
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Current cache and arena counters, read back through these
    /// handles. Compile-cache numbers are aggregated from the registered
    /// `.cat` models at snapshot time.
    pub(crate) fn snapshot(&self) -> SessionStats {
        let prune = self.prune.totals();
        let mut s = SessionStats {
            interned: self.interned.get() as usize,
            verdict_hits: self.verdict_hits.get(),
            verdict_misses: self.verdict_misses.get(),
            observability_hits: self.observability_hits.get(),
            observability_misses: self.observability_misses.get(),
            outcome_hits: self.outcome_hits.get(),
            outcome_misses: self.outcome_misses.get(),
            outcome_entries: self.outcome_entries.get() as usize,
            outcome_candidates: self.outcome_candidates.get(),
            outcome_classes: self.outcome_classes.get(),
            prune_subtrees_cut: prune.subtrees_cut,
            prune_candidates_skipped: prune.candidates_skipped,
            prune_oracle_calls: prune.oracle_calls,
            prune_oracle_micros: prune.oracle_micros,
            prune_delta_answers: prune.delta_answers,
            prune_fallbacks: prune.fallbacks,
            prune_batches: prune.batches,
            prune_batched_placements: prune.batched_placements,
            ..SessionStats::default()
        };
        for (_, model) in self.cat_models().iter() {
            let c = model.compile_stats();
            s.compile_hits += c.hits;
            s.compile_misses += c.misses;
            s.compile_entries += c.entries;
            s.compile_micros += c.micros;
        }
        s
    }
}

/// The long-lived engine described in the module docs. Fields are
/// crate-visible so the outcome engine (`crate::outcomes`) can split
/// borrows across the registry, arena and caches.
pub struct Session {
    pub(crate) models: Vec<Box<dyn Model>>,
    pub(crate) arena: ExecArena,
    /// Canonical (symmetry-reduced) key → interned representative.
    pub(crate) canon_ids: HashMap<Vec<u8>, ExecId>,
    pub(crate) verdicts: HashMap<(ExecId, usize), Verdict>,
    pub(crate) observability: HashMap<(ExecId, Arch), Option<bool>>,
    /// (program key, model slot) → allowed final states.
    pub(crate) outcome_sets: HashMap<(Vec<u8>, usize), txmm_hwsim::OutcomeSet>,
    /// (program key, model slot) → what that model's outcome walk
    /// actually visited (see `crate::outcomes`).
    pub(crate) outcome_visits: HashMap<(Vec<u8>, usize), crate::outcomes::OutcomeVisit>,
    /// Refuse programs with more candidate executions than this.
    pub(crate) max_candidates: u128,
    pub(crate) stats: Arc<SessionTelemetry>,
    /// Live walk telemetry: when set, the synthesis sweeps and the
    /// outcome engine's pruned walks flush progress (work fractions,
    /// candidates, classes, prune cuts) into it as they run.
    pub(crate) walk_progress: Option<Arc<txmm_obs::WalkProgress>>,
}

/// The serving pool keeps each shard's `Session` in a `Mutex` that
/// every connection thread shares, and `Mutex<Session>` is `Sync` only
/// if `Session` is `Send`; this fails to compile if any registry or
/// cache member stops being `Send`.
const _: fn() = || {
    fn requires_send<T: Send>() {}
    requires_send::<Session>();
};

/// [`Session::intern`] with the arena and canonical-key map borrowed
/// apart, so the outcome engine can intern candidates while a model
/// borrowed from the registry (its prune oracle) is live.
pub(crate) fn intern_into(
    arena: &mut ExecArena,
    canon_ids: &mut HashMap<Vec<u8>, ExecId>,
    x: &Execution,
) -> ExecId {
    let key = canon_key(x);
    if let Some(&id) = canon_ids.get(&key) {
        return id;
    }
    let (id, _fresh) = arena.intern(x);
    canon_ids.insert(key, id);
    id
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session with every native model registered.
    pub fn new() -> Session {
        let mut s = Session {
            models: Vec::new(),
            arena: ExecArena::new(),
            canon_ids: HashMap::new(),
            verdicts: HashMap::new(),
            observability: HashMap::new(),
            outcome_sets: HashMap::new(),
            outcome_visits: HashMap::new(),
            max_candidates: crate::outcomes::MAX_CANDIDATES,
            stats: Arc::new(SessionTelemetry::new()),
            walk_progress: None,
        };
        for m in registry::all_models() {
            s.register_model(m);
        }
        s
    }

    /// A session with the native models plus every shipped `.cat` model
    /// registered under `<name>.cat` (the differential twin set).
    pub fn with_shipped_cat() -> Session {
        let mut s = Session::new();
        for (name, src) in txmm_cat::SOURCES {
            s.register_cat_source(&format!("{name}.cat"), src)
                .expect("shipped model compiles");
        }
        s
    }

    // ---- Registry --------------------------------------------------------

    /// Register any [`Model`]; returns its handle. Later registrations
    /// shadow earlier ones in [`Session::resolve`] lookups.
    pub fn register_model(&mut self, m: Box<dyn Model>) -> ModelRef {
        self.models.push(m);
        ModelRef(self.models.len() - 1)
    }

    /// Compile and register a `.cat` model from source text.
    pub fn register_cat_source(&mut self, name: &str, src: &str) -> Result<ModelRef, String> {
        let file = parse_cat(src).map_err(|e| format!("{name}: {e}"))?;
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        let (arch, tm) = classify_cat_name(name);
        let model = Arc::new(CatModel::new(leaked, file));
        let m = self.register_model(Box::new(CatBackend {
            name: leaked,
            model: model.clone(),
            arch,
            tm,
            eval_error: std::sync::OnceLock::new(),
            oracles: Default::default(),
        }));
        self.stats.cat_models().push((m.index(), model));
        Ok(m)
    }

    /// Load, compile and register a user-supplied `.cat` file; the model
    /// is named after the file stem.
    pub fn register_cat_file(&mut self, path: &std::path::Path) -> Result<ModelRef, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("user-model")
            .to_string();
        self.register_cat_source(&name, &src)
    }

    /// Hot-reload a `.cat` model: if `name` is already registered, the
    /// model is **replaced in its existing slot** (so `ModelRef`s stay
    /// valid) and every cached verdict and outcome set for that slot is
    /// invalidated; otherwise this is a plain registration. Parse
    /// errors leave the old model serving.
    pub fn reload_cat_source(&mut self, name: &str, src: &str) -> Result<ModelRef, String> {
        let file = parse_cat(src).map_err(|e| format!("{name}: {e}"))?;
        let Some(slot) = self.models.iter().rposition(|m| m.name() == name) else {
            return self.register_cat_source(name, src);
        };
        // Reuse the slot's already-leaked name: a daemon reloads
        // arbitrarily often, and leaking a fresh copy per reload would
        // grow without bound.
        let leaked: &'static str = self.models[slot].name();
        let (arch, tm) = classify_cat_name(name);
        // The swap is of the *compiled program*, not the AST: the new
        // `CatModel` arrives fully lowered and optimised, and replacing
        // the boxed backend is one pointer store. The daemon reloads one
        // shard at a time under that shard's lock, so no request sees a
        // half-swapped Session; shards not yet reached keep serving the
        // old program until their turn.
        let model = Arc::new(CatModel::new(leaked, file));
        self.models[slot] = Box::new(CatBackend {
            name: leaked,
            model: model.clone(),
            arch,
            tm,
            eval_error: std::sync::OnceLock::new(),
            oracles: Default::default(),
        });
        let mut cat_models = self.stats.cat_models();
        match cat_models.iter_mut().find(|(s, _)| *s == slot) {
            Some(entry) => entry.1 = model,
            None => cat_models.push((slot, model)),
        }
        drop(cat_models);
        // The replaced model may answer differently: drop its caches.
        self.verdicts.retain(|&(_, m), _| m != slot);
        self.outcome_sets.retain(|(_, m), _| *m != slot);
        self.outcome_visits.retain(|(_, m), _| *m != slot);
        self.stats
            .outcome_entries
            .set(self.outcome_sets.len() as i64);
        Ok(ModelRef(slot))
    }

    /// Replace the candidate-execution cap the outcome engine refuses
    /// programs above (default [`crate::outcomes::MAX_CANDIDATES`]).
    pub fn set_max_candidates(&mut self, cap: u128) {
        self.max_candidates = cap;
    }

    /// The current candidate-execution cap.
    pub fn max_candidates(&self) -> u128 {
        self.max_candidates
    }

    /// Attach (or detach) a live walk-progress accumulator. While set,
    /// the synthesis sweeps and the outcome engine's pruned walks
    /// declare their plans and flush per-subtree deltas into it, so a
    /// heartbeat reporter or the daemon's `stats` can watch them
    /// mid-run.
    pub fn set_walk_progress(&mut self, p: Option<Arc<txmm_obs::WalkProgress>>) {
        self.walk_progress = p;
    }

    /// The attached walk-progress accumulator, if any.
    pub fn walk_progress(&self) -> Option<&Arc<txmm_obs::WalkProgress>> {
        self.walk_progress.as_ref()
    }

    /// Every registered model handle, in registration order.
    pub fn models(&self) -> impl Iterator<Item = ModelRef> {
        (0..self.models.len()).map(ModelRef)
    }

    /// The model behind a handle.
    pub fn model(&self, m: ModelRef) -> &dyn Model {
        self.models[m.0].as_ref()
    }

    /// Resolve a model by name (native and `.cat` models uniformly;
    /// the most recent registration wins).
    pub fn resolve(&self, name: &str) -> Option<ModelRef> {
        self.models
            .iter()
            .rposition(|m| m.name() == name)
            .map(ModelRef)
    }

    // ---- Arena -----------------------------------------------------------

    /// Intern an execution, aliasing it to the representative of its
    /// canonical (thread/location symmetry-reduced) class. Verdicts and
    /// observability are symmetric under those permutations, so
    /// symmetric variants share every cache entry.
    pub fn intern(&mut self, x: &Execution) -> ExecId {
        let id = intern_into(&mut self.arena, &mut self.canon_ids, x);
        self.stats.interned.set(self.arena.len() as i64);
        id
    }

    /// The interned execution behind an id.
    pub fn execution(&self, id: ExecId) -> Execution {
        self.arena.unpack(id)
    }

    /// Intern an entire bounded enumeration into the arena by consuming
    /// the streaming work-stealing enumerator: candidates are produced
    /// on a background pool and flow through a bounded channel, so the
    /// space is never materialised as a `Vec<Execution>` — memory stays
    /// at the channel capacity plus the arena itself. Returns the ids
    /// of the interned executions (one per canonical class, since the
    /// streaming enumerator already emits exactly one representative
    /// each).
    pub fn intern_enumeration(&mut self, cfg: &EnumConfig) -> Vec<ExecId> {
        /// In-flight candidates between the enumeration pool and the
        /// interning loop; small, so a slow intern path back-pressures
        /// the producers instead of buffering the space.
        const STREAM_CAPACITY: usize = 256;
        Walk::new(cfg)
            .stream(STREAM_CAPACITY)
            .map(|x| self.intern(&x))
            .collect()
    }

    // ---- Cached checking -------------------------------------------------

    /// The verdict of one model on one execution, cached by interned id.
    pub fn verdict(&mut self, x: &Execution, m: ModelRef) -> Verdict {
        let id = self.intern(x);
        self.verdict_interned(id, m)
    }

    /// [`Session::verdict`] for an already-interned execution.
    pub fn verdict_interned(&mut self, id: ExecId, m: ModelRef) -> Verdict {
        if let Some(v) = self.verdicts.get(&(id, m.0)) {
            self.stats.verdict_hits.inc();
            return v.clone();
        }
        self.stats.verdict_misses.inc();
        let x = self.arena.unpack(id);
        let v = self.models[m.0].check_analysis(&x.analysis());
        self.verdicts.insert((id, m.0), v.clone());
        v
    }

    /// Convenience: is the execution consistent under the model?
    pub fn consistent(&mut self, x: &Execution, m: ModelRef) -> bool {
        self.verdict(x, m).is_consistent()
    }

    /// Verdicts of every registered model on one execution; see
    /// [`Session::verdicts_for`].
    pub fn verdicts(&mut self, x: &Execution) -> Vec<(ModelRef, Verdict)> {
        let all: Vec<ModelRef> = self.models().collect();
        self.verdicts_for(x, &all)
    }

    /// Verdicts of the given models on one execution. Uncached models
    /// share a single analysis built here — the only place the serving
    /// path constructs one — so derived relations are computed once per
    /// execution regardless of how many models look at it.
    pub fn verdicts_for(&mut self, x: &Execution, models: &[ModelRef]) -> Vec<(ModelRef, Verdict)> {
        let id = self.intern(x);
        let missing: Vec<usize> = models
            .iter()
            .map(|m| m.0)
            .filter(|&i| !self.verdicts.contains_key(&(id, i)))
            .collect();
        self.stats
            .verdict_hits
            .add((models.len() - missing.len()) as u64);
        self.stats.verdict_misses.add(missing.len() as u64);
        if !missing.is_empty() {
            let y = self.arena.unpack(id);
            let a = y.analysis();
            for i in missing {
                let v = self.models[i].check_analysis(&a);
                self.verdicts.insert((id, i), v);
            }
        }
        models
            .iter()
            .map(|&m| (m, self.verdicts[&(id, m.0)].clone()))
            .collect()
    }

    /// Would the execution be observable on the simulated hardware of
    /// `arch`? Answers come from the exhaustive operational machine
    /// ([`txmm_hwsim::observable`], `None` where no machine runs the
    /// test) and are cached per (execution, architecture).
    pub fn observable(&mut self, x: &Execution, arch: Arch) -> Option<bool> {
        let id = self.intern(x);
        if let Some(&seen) = self.observability.get(&(id, arch)) {
            self.stats.observability_hits.inc();
            return seen;
        }
        self.stats.observability_misses.inc();
        let t = litmus_from_execution("session", &self.arena.unpack(id), arch);
        let seen = txmm_hwsim::observable(&t);
        self.observability.insert((id, arch), seen);
        seen
    }

    /// Current cache and arena counters, read back through this
    /// session's registry handles. Compile-cache numbers are aggregated
    /// from the registered `.cat` models at snapshot time.
    pub fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }

    // ---- Sweep drivers ---------------------------------------------------
    //
    // The bounded enumerate-and-check pipelines, exposed here so driver
    // binaries configure one Session rather than wiring synth/verify by
    // hand. Each sweep is one `Walk` over the unpruned space on every
    // core, split into subtree jobs on the work-stealing pool. Sweeps
    // stream fresh candidates (every execution distinct), so they
    // bypass the verdict cache by design.

    /// Forbid/Allow conformance-suite synthesis (Table 1, Fig. 7).
    pub fn synthesise(
        &self,
        cfg: &EnumConfig,
        tm: ModelRef,
        base: ModelRef,
        budget: Option<Duration>,
    ) -> SuiteResult {
        let walk = Walk::new(cfg).progress(self.walk_progress.as_deref());
        txmm_synth::synthesise(&walk, self.model(tm), self.model(base), budget)
    }

    /// Model-difference search (§4.1).
    pub fn distinguish(
        &self,
        cfg: &EnumConfig,
        m: ModelRef,
        n: ModelRef,
        limit: Option<usize>,
    ) -> Vec<Execution> {
        txmm_synth::distinguish(&Walk::new(cfg), self.model(m), self.model(n), limit)
    }

    /// Bounded monotonicity check (§8.1).
    pub fn check_monotonicity(
        &self,
        cfg: &EnumConfig,
        m: ModelRef,
        budget: Option<Duration>,
    ) -> MonotonicityResult {
        txmm_verify::check_monotonicity(&Walk::new(cfg), self.model(m), budget)
    }

    /// Bounded C++-to-hardware compilation soundness (§8.2).
    pub fn check_compilation(
        &self,
        events: usize,
        target: Arch,
        budget: Option<Duration>,
    ) -> CompileResult {
        let walk = Walk::new(&txmm_verify::compile_cfg(events));
        txmm_verify::check_compilation(&walk, target, budget)
    }

    /// Bounded lock-elision soundness (§8.3).
    pub fn check_lock_elision(
        &self,
        target: ElisionTarget,
        budget: Option<Duration>,
    ) -> ElisionResult {
        txmm_verify::check_lock_elision(target, budget)
    }

    /// Bounded validation of Theorem 7.2.
    pub fn check_theorem_7_2(&self, events: usize, budget: Option<Duration>) -> TheoremResult {
        txmm_verify::check_theorem_7_2(&Walk::new(&txmm_verify::theorem_cfg(events)), budget)
    }

    /// Bounded validation of Theorem 7.3.
    pub fn check_theorem_7_3(&self, events: usize, budget: Option<Duration>) -> TheoremResult {
        txmm_verify::check_theorem_7_3(&Walk::new(&txmm_verify::theorem_cfg(events)), budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_models::catalog;

    #[test]
    fn registry_resolves_native_and_cat_uniformly() {
        let mut s = Session::with_shipped_cat();
        let native = s.resolve("x86-tm").expect("native model");
        let cat = s.resolve("x86-tm.cat").expect("cat twin");
        assert_ne!(native, cat);
        let x = catalog::fig2();
        assert_eq!(
            s.verdict(&x, native).is_consistent(),
            s.verdict(&x, cat).is_consistent()
        );
        assert!(s.resolve("no-such-model").is_none());
    }

    #[test]
    fn user_cat_source_registers_and_checks() {
        let mut s = Session::new();
        let m = s
            .register_cat_source("my-sc", "acyclic po | com as Order")
            .expect("compiles");
        assert_eq!(s.model(m).name(), "my-sc");
        assert!(s.consistent(&catalog::fig1(), m));
        assert!(!s.consistent(&catalog::sb(None, false, false), m));
        assert!(s.register_cat_source("broken", "acyclic ((").is_err());
    }

    #[test]
    fn broken_cat_builtin_reports_eval_error_not_panic() {
        let mut s = Session::new();
        let m = s
            .register_cat_source("bad-ref", "acyclic nosuchrel as Oops")
            .expect("parses");
        let v = s.verdict(&catalog::fig1(), m);
        assert!(!v.is_consistent());
        assert!(v.violations()[0].starts_with("cat-eval-error"));
    }

    #[test]
    fn cat_diagnostics_name_construct_and_line() {
        // End to end: an unsupported construct in a user-supplied model
        // surfaces with its name and source line, not a generic error.
        let mut s = Session::new();
        let src = "let hb = po | com\nacyclic hb as Order\nlet f = fold(MFENCE)\nempty f as F";
        let m = s.register_cat_source("diag", src).expect("parses");
        let v = s.verdict(&catalog::fig1(), m);
        assert_eq!(
            v.violations(),
            ["cat-eval-error: unsupported operator 'fold' at line 3"]
        );
        // Unsupported declarations are caught at registration instead.
        let e = s
            .register_cat_source("inc", "include \"x86fences.cat\"")
            .unwrap_err();
        assert_eq!(e, "inc: unsupported declaration 'include' at line 1");
    }

    #[test]
    fn compile_cache_stats_aggregate_over_cat_models() {
        let mut s = Session::new();
        assert_eq!(s.stats().compile_entries, 0, "no cat models yet");
        let m = s
            .register_cat_source("my-sc", "acyclic po | com as Order")
            .expect("compiles");
        // Two different executions with the same event count: the first
        // check specialises the tier, the second reuses it.
        assert!(!s.consistent(&catalog::sb(None, false, false), m));
        assert!(!s.consistent(&catalog::sb(None, true, true), m));
        let st = s.stats();
        assert_eq!(st.compile_misses, 1, "one tier specialised");
        assert_eq!(st.compile_hits, 1, "second check reused it");
        assert_eq!(st.compile_entries, 1);
        assert!(st.compile_micros > 0, "compilation took measurable time");
        // Reload swaps the compiled program: the fresh model starts
        // with an empty tier cache but keeps serving.
        s.reload_cat_source("my-sc", "acyclic poloc | com as Coherence")
            .expect("reloads");
        let st = s.stats();
        assert_eq!(st.compile_entries, 0, "tiers recompile after reload");
        assert!(s.consistent(&catalog::sb(None, false, false), m));
        let st = s.stats();
        assert_eq!(st.compile_entries, 1);
        assert_eq!(st.compile_misses, 1, "reload resets the slot's counters");
    }

    #[test]
    fn fencerel_models_serve_through_the_registry() {
        // fencerel-based herd models no longer degrade to eval errors:
        // an x86-style model phrased through fencerel(MFENCE) agrees
        // with the native x86 model on the fenced/unfenced SB pair.
        let mut s = Session::new();
        let m = s
            .register_cat_source(
                "x86-fencerel",
                "let ppo = po \\ (W * R)\nlet ord = ppo | fencerel(MFENCE) | rfe | co | fr\n\
                 acyclic ord as Tso",
            )
            .expect("compiles");
        let native = s.resolve("x86").expect("native model");
        let fenced = catalog::sb(Some(txmm_core::Fence::MFence), false, false);
        let unfenced = catalog::sb(None, false, false);
        assert!(!s.consistent(&fenced, m));
        assert_eq!(
            s.verdict(&fenced, m).is_consistent(),
            s.verdict(&fenced, native).is_consistent()
        );
        assert_eq!(
            s.verdict(&unfenced, m).is_consistent(),
            s.verdict(&unfenced, native).is_consistent()
        );
    }

    #[test]
    fn verdicts_cached_per_interned_execution() {
        let mut s = Session::new();
        let x = catalog::sb(None, false, false);
        let cold: Vec<_> = s.verdicts(&x);
        let misses = s.stats().verdict_misses;
        assert_eq!(misses, cold.len() as u64);
        let warm: Vec<_> = s.verdicts(&x);
        assert_eq!(s.stats().verdict_misses, misses, "no recomputation");
        assert_eq!(s.stats().verdict_hits, cold.len() as u64);
        assert_eq!(cold, warm);
        assert_eq!(s.stats().interned, 1);
    }

    #[test]
    fn symmetric_executions_share_cache_entries() {
        use txmm_core::ExecBuilder;
        // Message passing with the two locations swapped: canonically
        // identical, so the second intern aliases the first.
        let build = |first: u8, second: u8| {
            let mut b = ExecBuilder::new();
            let t0 = b.new_thread();
            b.write(t0, first);
            b.write(t0, second);
            let t1 = b.new_thread();
            b.read(t1, second);
            b.read(t1, first);
            b.build().unwrap()
        };
        let mut s = Session::new();
        let a = s.intern(&build(0, 1));
        let b = s.intern(&build(1, 0));
        assert_eq!(a, b, "location-symmetric variants intern to one id");
        assert_eq!(s.stats().interned, 1);
    }

    #[test]
    fn observability_cached_and_arch_guarded() {
        let mut s = Session::new();
        let sb = catalog::sb(None, false, false);
        assert_eq!(s.observable(&sb, Arch::X86), Some(true));
        assert_eq!(s.observable(&sb, Arch::X86), Some(true));
        assert_eq!(s.stats().observability_hits, 1);
        assert_eq!(s.stats().observability_misses, 1);
        assert_eq!(s.observable(&sb, Arch::Sc), None);
        let sb_fenced = catalog::sb(Some(txmm_core::Fence::MFence), false, false);
        assert_eq!(s.observable(&sb_fenced, Arch::X86), Some(false));
    }

    #[test]
    fn enumeration_streams_into_the_arena() {
        let mut s = Session::new();
        let cfg = EnumConfig {
            max_threads: 2,
            max_locs: 2,
            ..EnumConfig::hw(Arch::X86, 2)
        };
        let ids = s.intern_enumeration(&cfg);
        // One id per streamed candidate, all distinct: the streaming
        // enumerator emits one representative per canonical class and
        // the arena keys by that class.
        assert_eq!(ids.len(), Walk::new(&cfg).count().0);
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "no canonical aliasing collisions");
        assert_eq!(s.stats().interned, ids.len());
        // Re-running the stream interns nothing new.
        let again = s.intern_enumeration(&cfg);
        assert_eq!(s.stats().interned, ids.len());
        assert_eq!(again.len(), ids.len());
    }

    #[test]
    fn sweeps_route_through_session() {
        let s = Session::new();
        let tsc = s.resolve("TSC").unwrap();
        let sc = s.resolve("SC").unwrap();
        let cfg = EnumConfig {
            max_threads: 2,
            max_locs: 2,
            fences: false,
            rmws: false,
            ..EnumConfig::hw(Arch::Sc, 3)
        };
        let r = s.synthesise(&cfg, tsc, sc, None);
        assert!(r.forbid.len() >= 4);
        assert!(!s.distinguish(&cfg, tsc, sc, Some(1)).is_empty());
    }
}
