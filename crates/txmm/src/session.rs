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
//! * **synthesis** ([`Session::synthesise`]): the Forbid/Allow suite
//!   walk over two registered models, reporting into the session's
//!   walk progress.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use txmm_cat::{parse as parse_cat, CatModel};
use txmm_core::arena::{ExecArena, ExecId};
use txmm_core::{Execution, ExecutionAnalysis};
use txmm_litmus::litmus_from_execution;
use txmm_models::{registry, Arch, Checker, Model, Verdict};
use txmm_synth::{canon_key, EnumConfig, PruneCounters, SuiteResult, Walk};

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
    model: CatModel,
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

    fn axioms(&self, a: &ExecutionAnalysis<'_>, c: &mut Checker) {
        match self.model.check_analysis(a) {
            Ok(v) => {
                for axiom in v.violations() {
                    c.fail(axiom);
                }
            }
            Err(e) => {
                let msg = self
                    .eval_error
                    .get_or_init(|| txmm_cat::intern_label(&format!("cat-eval-error: {e}")));
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
    /// Cumulative `.cat` compile time, microseconds: each model
    /// registered or reloaded adds its own, rounded up.
    pub compile_micros: u64,
}

impl SessionStats {
    /// Every counter as `(key, value)`, in the order the daemon's
    /// `stats` answer lists them.
    pub(crate) fn fields(&self) -> [(&'static str, u64); 19] {
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
    /// [`SessionStats::compile_micros`]; each model's compile time is
    /// also its own `txmm_cat_compile_nanoseconds_total` series.
    compile_micros: AtomicU64,
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
            compile_micros: AtomicU64::new(0),
        }
    }

    /// Count a freshly compiled `.cat` model's compile time.
    fn compiled(&self, model: &CatModel) {
        let micros = model.compile_nanos().div_ceil(1_000);
        self.compile_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Current cache and arena counters, read back through these
    /// handles.
    pub(crate) fn snapshot(&self) -> SessionStats {
        let prune = self.prune.totals();
        SessionStats {
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
            compile_micros: self.compile_micros.load(Ordering::Relaxed),
        }
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
    /// Program key → that program's stored outcome answers, one per
    /// model slot that has walked it (see `crate::outcomes`).
    pub(crate) programs: HashMap<Vec<u8>, crate::outcomes::ProgramOutcomes>,
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

/// [`Session::intern_keyed`] with the arena and canonical-key map
/// borrowed apart, so the outcome engine can intern candidates while a
/// model borrowed from the registry (its prune oracle) is live.
pub(crate) fn intern_into(
    arena: &mut ExecArena,
    canon_ids: &mut HashMap<Vec<u8>, ExecId>,
    key: &[u8],
    x: &Execution,
) -> ExecId {
    if let Some(&id) = canon_ids.get(key) {
        return id;
    }
    let (id, _fresh) = arena.intern(x);
    canon_ids.insert(key.to_vec(), id);
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
            programs: HashMap::new(),
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
    pub(crate) fn register_model(&mut self, m: Box<dyn Model>) -> ModelRef {
        self.models.push(m);
        ModelRef(self.models.len() - 1)
    }

    /// Compile and register a `.cat` model from source text.
    pub fn register_cat_source(&mut self, name: &str, src: &str) -> Result<ModelRef, String> {
        let file = parse_cat(src).map_err(|e| format!("{name}: {e}"))?;
        let name = txmm_cat::intern_label(name);
        let (arch, tm) = classify_cat_name(name);
        let model = CatModel::new(name, file);
        self.stats.compiled(&model);
        Ok(self.register_model(Box::new(CatBackend {
            name,
            model,
            arch,
            tm,
            eval_error: std::sync::OnceLock::new(),
            oracles: Default::default(),
        })))
    }

    /// Load, compile and register a user-supplied `.cat` file; the model
    /// is named after the file stem.
    pub(crate) fn register_cat_file(&mut self, path: &std::path::Path) -> Result<ModelRef, String> {
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
    pub(crate) fn reload_cat_source(&mut self, name: &str, src: &str) -> Result<ModelRef, String> {
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
        let model = CatModel::new(leaked, file);
        self.stats.compiled(&model);
        self.models[slot] = Box::new(CatBackend {
            name: leaked,
            model,
            arch,
            tm,
            eval_error: std::sync::OnceLock::new(),
            oracles: Default::default(),
        });
        // The replaced model may answer differently: drop its caches.
        // Other slots keep their outcome answers, and their shared sets.
        self.verdicts.retain(|&(_, m), _| m != slot);
        let dropped: usize = self
            .programs
            .values_mut()
            .map(|p| usize::from(p.forget(slot)))
            .sum();
        let entries = &self.stats.outcome_entries;
        entries.set(entries.get() - dropped as i64);
        Ok(ModelRef(slot))
    }

    /// Replace the candidate-execution cap the outcome engine refuses
    /// programs above (default `MAX_CANDIDATES`, 65,536).
    pub fn set_max_candidates(&mut self, cap: u128) {
        self.max_candidates = cap;
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
    pub(crate) fn walk_progress(&self) -> Option<&Arc<txmm_obs::WalkProgress>> {
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
    pub(crate) fn intern(&mut self, x: &Execution) -> ExecId {
        self.intern_keyed(&canon_key(x), x)
    }

    /// [`Session::intern`] for an execution whose canonical key the
    /// caller already has (the daemon routes a `check` by it).
    pub(crate) fn intern_keyed(&mut self, key: &[u8], x: &Execution) -> ExecId {
        let id = intern_into(&mut self.arena, &mut self.canon_ids, key, x);
        self.stats.interned.set(self.arena.len() as i64);
        id
    }

    // ---- Cached checking -------------------------------------------------

    /// The verdict of one model on one execution, cached by interned id.
    pub fn verdict(&mut self, x: &Execution, m: ModelRef) -> Verdict {
        let id = self.intern(x);
        self.verdict_interned(id, m)
    }

    /// [`Session::verdict`] for an already-interned execution.
    pub(crate) fn verdict_interned(&mut self, id: ExecId, m: ModelRef) -> Verdict {
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
    #[cfg(test)]
    pub(crate) fn consistent(&mut self, x: &Execution, m: ModelRef) -> bool {
        self.verdict(x, m).is_consistent()
    }

    /// Verdicts of the given models on one execution. Uncached models
    /// share a single analysis built here — the only place the serving
    /// path constructs one — so derived relations are computed once per
    /// execution regardless of how many models look at it.
    pub fn verdicts_for(&mut self, x: &Execution, models: &[ModelRef]) -> Vec<(ModelRef, Verdict)> {
        let id = self.intern(x);
        self.verdicts_interned(id, models)
    }

    /// [`Session::verdicts_for`] for an already-interned execution.
    pub(crate) fn verdicts_interned(
        &mut self,
        id: ExecId,
        models: &[ModelRef],
    ) -> Vec<(ModelRef, Verdict)> {
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
        self.observable_interned(id, arch)
    }

    /// [`Session::observable`] for an already-interned execution.
    pub(crate) fn observable_interned(&mut self, id: ExecId, arch: Arch) -> Option<bool> {
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
    /// session's registry handles.
    pub fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }

    // ---- Synthesis -------------------------------------------------------

    /// Forbid/Allow conformance-suite synthesis (Table 1, Fig. 7): one
    /// `Walk` over the unpruned space on every core, reporting into the
    /// attached walk progress. The walk streams fresh candidates (every
    /// execution distinct), so it bypasses the verdict cache by design.
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
        assert_eq!(s.stats().compile_micros, 0, "no cat models yet");
        let m = s
            .register_cat_source("my-sc", "acyclic po | com as Order")
            .expect("compiles");
        let compiled = s.stats().compile_micros;
        assert!(compiled > 0, "registration counts the compile time");
        // Checks at any event count run the one compiled program.
        assert!(!s.consistent(&catalog::sb(None, false, false), m));
        assert!(!s.consistent(&catalog::power_exec3(true), m));
        assert_eq!(s.stats().compile_micros, compiled);
        // Reload swaps the compiled program and adds its compile time
        // to the cumulative count; the fresh model keeps serving.
        s.reload_cat_source("my-sc", "acyclic poloc | com as Coherence")
            .expect("reloads");
        assert!(s.stats().compile_micros > compiled, "reload compiles");
        assert!(s.consistent(&catalog::sb(None, false, false), m));
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
        let all: Vec<ModelRef> = s.models().collect();
        let cold: Vec<_> = s.verdicts_for(&x, &all);
        let misses = s.stats().verdict_misses;
        assert_eq!(misses, cold.len() as u64);
        let warm: Vec<_> = s.verdicts_for(&x, &all);
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
        let walk = Walk::new(&cfg);
        let mut ids = Vec::new();
        walk.for_each(|x| ids.push(s.intern(x)));
        // One id per walked candidate, all distinct: the walk emits one
        // representative per canonical class and the arena keys by that
        // class.
        assert_eq!(ids.len(), walk.count().0);
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "no canonical aliasing collisions");
        assert_eq!(s.stats().interned, ids.len());
        // Re-running the walk interns nothing new.
        let mut again = Vec::new();
        walk.for_each(|x| again.push(s.intern(x)));
        assert_eq!(s.stats().interned, ids.len());
        assert_eq!(again, ids);
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
        let walk = Walk::new(&cfg);
        let diff = txmm_synth::distinguish(&walk, s.model(tsc), s.model(sc), Some(1));
        assert!(!diff.is_empty());
    }
}
