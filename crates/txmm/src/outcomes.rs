//! The outcome engine's checking half: per-model **allowed final-state
//! sets** for litmus programs, served from a [`Session`].
//!
//! `txmm_litmus::outcomes` enumerates every candidate execution of a
//! program (all rf assignments, all per-location coherence orders, all
//! transaction commit/abort splits). This module turns that stream into
//! herd-style answers:
//!
//! * candidates are grouped into **canonical classes** through the
//!   Session arena (thread/location-symmetric candidates share one
//!   interned representative), so each model checks one execution per
//!   class instead of one per candidate — the same symmetry machinery
//!   `txmm_core::canon` gives the enumerator, reused as a pruning
//!   stage;
//! * class checking **fans out over the `txmm_synth::steal`
//!   work-stealing pool** when the class count is worth it, and lands
//!   in the Session's verdict cache either way;
//! * the resulting allowed outcome set per `(program, model)` is cached
//!   under the program's canonical key ([`txmm_litmus::program_key`]),
//!   so re-serving a test — or the same program under a different
//!   postcondition — is a lookup;
//! * each model's verdict on the test's postcondition (`Allowed` /
//!   `Forbidden`) is derived from the allowed set, which is the
//!   program-level answer the paper's modified-herd evaluation gives,
//!   rather than the single-execution answer `check` gives.
//!
//! The final states reuse [`txmm_hwsim::Outcome`], so hardware-simulator
//! observations can be cross-checked to be a **subset** of a sound
//! model's allowed set ([`unsound_sim_outcomes`]).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use txmm_core::arena::ExecId;
use txmm_core::{PruneOracle, PruneStats};
use txmm_hwsim::{Outcome, OutcomeSet, Simulator, MAX_LOCS};
use txmm_litmus::{
    enumerate_candidates, enumerate_mask_pruned, mask_candidate_count, program_key, Candidate,
    LitmusTest, Op, ProgramSkeleton,
};
use txmm_models::Arch;

use crate::session::{intern_into, ModelRef, Session};

/// Default cap on a program's candidate executions (the serving layers
/// surface the refusal as a structured error). The cap covers every
/// corpus test by orders of magnitude while bounding a daemon's
/// per-request work; [`Session::set_max_candidates`] (or a request's
/// `max_candidates` field) raises it for deliberately larger tables,
/// which consistency-guided pruning keeps affordable.
pub const MAX_CANDIDATES: u128 = 1 << 16;

/// One program's enumerated candidate table, cached per program key —
/// the unpruned reference path, used for models without a prune oracle
/// (and for every model when [`Session::set_prune`] turns pruning off).
pub(crate) struct OutcomeTable {
    /// Final state + canonical class per candidate.
    pub(crate) candidates: Vec<(Outcome, usize)>,
    /// Interned representative execution per class.
    pub(crate) classes: Vec<ExecId>,
}

/// What one `(program, model)` outcome computation actually walked:
/// the pruned path visits a per-model subset of the candidate space,
/// the table path all of it. Cached alongside the allowed set so
/// repeat requests can report class counts without re-walking.
pub(crate) struct OutcomeVisit {
    /// Distinct canonical classes visited, in first-visit order.
    pub(crate) classes: Vec<ExecId>,
}

/// A model's program-level answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelOutcomes {
    /// The model's registry name.
    pub model: String,
    /// Every final state some consistent candidate produces.
    pub allowed: OutcomeSet,
    /// Does the model allow the test's postcondition — i.e. does some
    /// allowed final state pass it? `None` when the test has no
    /// postcondition.
    pub post_allowed: Option<bool>,
}

/// The outcome engine's answer for one litmus test.
#[derive(Debug, Clone)]
pub struct OutcomeReport {
    /// File name (as given).
    pub file: String,
    /// Test name from the header line.
    pub name: String,
    /// Architecture from the header line.
    pub arch: Arch,
    /// Events in the fully-committed program.
    pub events: usize,
    /// Transactions in the program.
    pub txns: usize,
    /// Candidate executions of the program (closed form — pruned walks
    /// materialise only the subset their oracle cannot refute).
    pub candidates: usize,
    /// Distinct canonical candidate classes visited across the
    /// requested models (what was actually checked).
    pub classes: usize,
    /// Per requested model, in request order.
    pub per_model: Vec<ModelOutcomes>,
    /// Did every requested model's outcome set come from the cache?
    pub cached: bool,
}

/// Pad a location-indexed vector to the simulators' fixed width so
/// axiomatic and operational outcomes compare structurally.
fn pad_locs<T: Clone + Default>(mut v: Vec<T>) -> Vec<T> {
    v.resize(MAX_LOCS, T::default());
    v
}

/// Append-only, lock-free set of root-rejected abort masks, shared by
/// the parallel per-mask walk's workers. A worker that finds a split's
/// root non-viable under an event-monotone oracle publishes the mask;
/// every worker then skips masks the published ones subsume (`mask | d
/// == d`) without projecting the program. The set is capped — once
/// full, further dead masks are simply re-discovered at their own
/// roots, which costs one viability check and no correctness.
struct DeadMasks {
    slots: Vec<AtomicU64>,
    next: AtomicUsize,
}

/// No real mask is all-ones: a program with 64 single-event
/// transactions has no other events, and its split space is refused by
/// the candidate cap long before a walk starts.
const DEAD_EMPTY: u64 = u64::MAX;

impl DeadMasks {
    fn new(cap: usize) -> DeadMasks {
        DeadMasks {
            slots: (0..cap).map(|_| AtomicU64::new(DEAD_EMPTY)).collect(),
            next: AtomicUsize::new(0),
        }
    }

    fn push(&self, mask: u64) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(idx) {
            slot.store(mask, Ordering::Release);
        }
    }

    fn subsumes(&self, mask: u64) -> bool {
        let n = self.next.load(Ordering::Relaxed).min(self.slots.len());
        self.slots[..n].iter().any(|s| {
            // A claimed-but-unwritten slot still reads DEAD_EMPTY;
            // treating it as absent is conservative and safe.
            let d = s.load(Ordering::Acquire);
            d != DEAD_EMPTY && mask | d == d
        })
    }
}

/// The parallel analogue of
/// [`txmm_litmus::enumerate_candidates_pruned`]: abort masks fan out in
/// descending order over the work-stealing pool, each walked by
/// [`enumerate_mask_pruned`] with dead-mask subsumption maintained in a
/// shared [`DeadMasks`] set. Workers buffer their candidates per mask;
/// the caller's thread merges the buffers back into descending-mask
/// order, so the candidate stream is byte-identical to the sequential
/// walk's. (Which masks are *root-checked* vs subsumption-skipped can
/// differ from the sequential schedule — both charge the same
/// `subtrees_cut`/`candidates_skipped`, and a root-rejected mask emits
/// no candidates either way, so only the oracle-call counters wobble.)
type MaskBuffers = Vec<(u64, Vec<Candidate>)>;

fn pruned_candidates_par(
    t: &LitmusTest,
    oracle: &dyn PruneOracle,
    workers: usize,
    progress: Option<&txmm_obs::WalkProgress>,
) -> Result<(usize, PruneStats, MaskBuffers), String> {
    let sk = ProgramSkeleton::from_litmus(t).map_err(|e| e.to_string())?;
    let splits: u128 = 1u128 << sk.txns.len();
    if let Some(p) = progress {
        // One abort split = one unit of stealable work; its weight is
        // the closed-form candidate count below it, so "fraction done"
        // tracks candidates, not masks.
        let total = (0..splits)
            .map(|m| mask_candidate_count(&sk, m as u64))
            .fold(0u64, u64::saturating_add);
        p.add_total(total);
    }
    let dead = DeadMasks::new(256);
    let monotone = oracle.event_monotone();
    let masks = (0..splits).rev().map(|m| m as u64);
    let (states, _steal) = txmm_synth::steal::run_with_progress(
        masks,
        workers,
        progress,
        |_| (Vec::new(), PruneStats::default()),
        |mask: u64, (bufs, st): &mut (Vec<(u64, Vec<Candidate>)>, PruneStats)| {
            let work = mask_candidate_count(&sk, mask);
            if dead.subsumes(mask) {
                st.subtrees_cut += 1;
                st.candidates_skipped = st.candidates_skipped.saturating_add(work);
                if let Some(p) = progress {
                    p.subtree_done(work, 0, 1, work);
                }
                return;
            }
            let before = (st.subtrees_cut, st.candidates_skipped);
            let mut buf = Vec::new();
            let (_, root_live) = enumerate_mask_pruned(&sk, mask, oracle, st, &mut |c| buf.push(c));
            if !root_live && monotone {
                dead.push(mask);
            }
            if let Some(p) = progress {
                p.subtree_done(
                    work,
                    buf.len() as u64,
                    st.subtrees_cut - before.0,
                    st.candidates_skipped - before.1,
                );
            }
            if !buf.is_empty() {
                bufs.push((mask, buf));
            }
        },
    );
    let mut stats = PruneStats::default();
    let mut all: Vec<(u64, Vec<Candidate>)> = Vec::new();
    for (bufs, st) in states {
        all.extend(bufs);
        stats.merge(&st);
    }
    all.sort_unstable_by_key(|b| std::cmp::Reverse(b.0));
    let visited = all.iter().map(|(_, b)| b.len()).sum();
    Ok((visited, stats, all))
}

/// A sequential walk's single work unit: declared when the walk starts
/// and flushed when dropped, so a walk cut short by an error or by a
/// panicking model check still leaves `work_done` level with
/// `work_total`.
struct WalkUnit<'a> {
    progress: Option<&'a txmm_obs::WalkProgress>,
    total: u64,
    /// `(candidates, cuts, skipped)`, set once the walk has returned.
    tally: (u64, u64, u64),
}

impl<'a> WalkUnit<'a> {
    fn start(progress: Option<&'a txmm_obs::WalkProgress>, total: u64) -> WalkUnit<'a> {
        if let Some(p) = progress {
            p.add_total(total);
        }
        WalkUnit {
            progress,
            total,
            tally: (0, 0, 0),
        }
    }
}

impl Drop for WalkUnit<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.progress {
            let (candidates, cuts, skipped) = self.tally;
            p.subtree_done(self.total, candidates, cuts, skipped);
        }
    }
}

impl Session {
    /// Program-level outcome enumeration: build (or fetch) the
    /// program's candidate table, check every canonical class under the
    /// requested models (all registered models when `models` is
    /// `None`), and return the allowed final-state set plus the
    /// postcondition verdict per model.
    pub fn outcomes(
        &mut self,
        file: &str,
        t: &LitmusTest,
        models: Option<&[ModelRef]>,
    ) -> Result<OutcomeReport, String> {
        self.outcomes_capped(file, t, models, None)
    }

    /// [`Session::outcomes`] with a per-request candidate cap
    /// overriding the session default — how the daemon honours a
    /// request's `max_candidates` field without perturbing the
    /// session-wide setting.
    pub fn outcomes_capped(
        &mut self,
        file: &str,
        t: &LitmusTest,
        models: Option<&[ModelRef]>,
        cap: Option<u128>,
    ) -> Result<OutcomeReport, String> {
        // Outcomes are exchanged with the operational simulators in
        // their fixed-width memory layout; a location past that width
        // would be silently truncated, so refuse it up front (the
        // `check` path has no such limit, which is why this is enforced
        // here and not in the parser).
        if let Some(max_loc) = t.locations().last().copied() {
            if max_loc as usize >= MAX_LOCS {
                return Err(format!(
                    "program uses location {max_loc}; the outcome engine models \
                     locations 0..{MAX_LOCS}"
                ));
            }
        }
        let cap = cap.unwrap_or(self.max_candidates);
        let count = txmm_litmus::candidate_count(t).map_err(|e| e.to_string())?;
        if count > cap {
            return Err(format!(
                "program has {count} candidate executions (limit {cap})"
            ));
        }

        let key = program_key(t);
        let requested: Vec<ModelRef> = match models {
            Some(ms) => ms.to_vec(),
            None => self.models().collect(),
        };
        let mut per_model = Vec::with_capacity(requested.len());
        let mut cached = true;
        let mut class_union: HashSet<ExecId> = HashSet::new();
        for m in requested {
            let slot = m.index();
            let ck = (key.clone(), slot);
            if self.outcome_sets.contains_key(&ck) {
                self.stats.outcome_hits.inc();
            } else {
                self.stats.outcome_misses.inc();
                cached = false;
                // Oracle-backed models walk the candidate space with
                // consistency-guided pruning, one walk per model;
                // oracle-less models share the unpruned table.
                if self.prune && self.models[slot].prune_oracle(true).is_some() {
                    self.pruned_model_outcomes(&key, t, m)?;
                } else {
                    self.table_model_outcomes(&key, t, m)?;
                }
                self.stats
                    .outcome_entries
                    .set(self.outcome_sets.len() as i64);
            }
            let allowed = self.outcome_sets[&ck].clone();
            class_union.extend(self.outcome_visits[&ck].classes.iter().copied());
            let post_allowed = if t.post.is_empty() {
                None
            } else {
                Some(allowed.iter().any(|o| o.passes(t)))
            };
            per_model.push(ModelOutcomes {
                model: self.model(m).name().to_string(),
                allowed,
                post_allowed,
            });
        }
        Ok(OutcomeReport {
            file: file.to_string(),
            name: t.name.clone(),
            arch: t.arch,
            events: t
                .threads
                .iter()
                .flatten()
                .filter(|i| !matches!(i.op, Op::TxBegin { .. } | Op::TxEnd))
                .count(),
            txns: t.num_txns(),
            candidates: count.min(usize::MAX as u128) as usize,
            classes: class_union.len(),
            per_model,
            cached,
        })
    }

    /// One model's allowed set via the pruned candidate walk: the
    /// model's oracle kills doomed subtrees (and whole abort splits)
    /// during construction, surviving candidates are interned and
    /// verdict-checked class by class, and the allowed set plus the
    /// visit record land in the per-`(program, model)` caches.
    fn pruned_model_outcomes(
        &mut self,
        key: &[u8],
        t: &LitmusTest,
        m: ModelRef,
    ) -> Result<(), String> {
        let slot = m.index();
        // The oracle borrows the model registry for the whole walk;
        // split the borrows so candidates can still be interned and
        // verdict-cached.
        let Session {
            models,
            arena,
            canon_ids,
            verdicts,
            stats,
            outcome_workers,
            walk_progress,
            ..
        } = self;
        let workers = *outcome_workers;
        let progress = walk_progress.clone();
        let progress = progress.as_deref();
        let model = models[slot].as_ref();
        let oracle = model
            .prune_oracle(true)
            .expect("caller checked the oracle exists");
        let mut allowed = OutcomeSet::new();
        let mut classes: Vec<ExecId> = Vec::new();
        let mut seen: HashSet<ExecId> = HashSet::new();
        let mut sink = |c: Candidate| {
            let id = intern_into(arena, canon_ids, &c.exec);
            if seen.insert(id) {
                classes.push(id);
                if let Some(p) = progress {
                    p.add_classes(1);
                }
            }
            // The oracle's leaf check is not the full model (compiled
            // `.cat` oracles run only the monotone fragment), so the
            // class still goes through the verdict cache.
            if let std::collections::hash_map::Entry::Vacant(e) = verdicts.entry((id, slot)) {
                stats.verdict_misses.inc();
                e.insert(model.check_analysis(&arena.unpack(id).analysis()));
            } else {
                stats.verdict_hits.inc();
            }
            if verdicts[&(id, slot)].is_consistent() {
                allowed.insert(Outcome {
                    regs: c.regs,
                    memory: pad_locs(c.memory),
                    txn_ok: c.txn_ok,
                    co_order: pad_locs(c.co_order),
                });
            }
        };
        // The walk itself parallelises over abort splits; Session
        // interning is single-threaded, so workers buffer candidates
        // and the merge (descending masks, the sequential order)
        // replays them through the same sink here.
        let (visited, pstats) = if workers > 1 {
            let (visited, pstats, buffers) = pruned_candidates_par(t, oracle, workers, progress)?;
            for (_, buf) in buffers {
                for c in buf {
                    sink(c);
                }
            }
            (visited, pstats)
        } else {
            // The sequential walk has no per-split granularity to
            // report against, so the whole program is one work unit.
            let total = txmm_litmus::candidate_count(t)
                .map(|n| n.min(u64::MAX as u128) as u64)
                .unwrap_or(0);
            let mut unit = WalkUnit::start(progress, total);
            let (visited, pstats) = txmm_litmus::enumerate_candidates_pruned(t, oracle, &mut sink)
                .map_err(|e| e.to_string())?;
            unit.tally = (
                visited as u64,
                pstats.subtrees_cut,
                pstats.candidates_skipped,
            );
            (visited, pstats)
        };
        self.stats.interned.set(self.arena.len() as i64);
        self.stats.outcome_candidates.add(visited as u64);
        self.stats.outcome_classes.add(classes.len() as u64);
        self.stats.prune_subtrees_cut.add(pstats.subtrees_cut);
        self.stats
            .prune_candidates_skipped
            .add(pstats.candidates_skipped);
        self.stats.prune_oracle_calls.add(pstats.oracle_calls);
        self.stats.prune_oracle_micros.add(pstats.oracle_micros);
        self.stats.prune_delta_answers.add(pstats.delta_answers);
        self.stats.prune_fallbacks.add(pstats.fallbacks);
        for (bound, n) in txmm_core::incr::BATCH_BOUNDS.iter().zip(&pstats.batch_hist) {
            self.stats.prune_batch_size.record_n(*bound, *n);
        }
        self.outcome_sets.insert((key.to_vec(), slot), allowed);
        self.outcome_visits
            .insert((key.to_vec(), slot), OutcomeVisit { classes });
        Ok(())
    }

    /// One model's allowed set from the shared unpruned table — the
    /// reference path, and the only one for models without an oracle.
    fn table_model_outcomes(
        &mut self,
        key: &[u8],
        t: &LitmusTest,
        m: ModelRef,
    ) -> Result<(), String> {
        if !self.outcome_tables.contains_key(key) {
            let table = self.build_table(t)?;
            self.outcome_tables.insert(key.to_vec(), table);
        }
        let consistent = self.class_consistency(key, m);
        let table = &self.outcome_tables[key];
        let allowed: OutcomeSet = table
            .candidates
            .iter()
            .filter(|(_, class)| consistent[*class])
            .map(|(o, _)| o.clone())
            .collect();
        let visit = OutcomeVisit {
            classes: table.classes.clone(),
        };
        self.outcome_sets.insert((key.to_vec(), m.index()), allowed);
        self.outcome_visits.insert((key.to_vec(), m.index()), visit);
        Ok(())
    }

    /// Enumerate the program's candidates into a table, interning one
    /// representative execution per canonical class. Size refusals
    /// happened in [`Session::outcomes_capped`]; the capacity clamp
    /// only guards allocation under deliberately raised caps.
    fn build_table(&mut self, t: &LitmusTest) -> Result<OutcomeTable, String> {
        let count = txmm_litmus::candidate_count(t).map_err(|e| e.to_string())?;
        let mut candidates = Vec::with_capacity(count.min(1 << 20) as usize);
        let mut classes: Vec<ExecId> = Vec::new();
        let mut class_of: HashMap<ExecId, usize> = HashMap::new();
        enumerate_candidates(t, &mut |c| {
            let id = self.intern(&c.exec);
            let next = classes.len();
            let class = *class_of.entry(id).or_insert_with(|| {
                classes.push(id);
                next
            });
            candidates.push((
                Outcome {
                    regs: c.regs,
                    memory: pad_locs(c.memory),
                    txn_ok: c.txn_ok,
                    co_order: pad_locs(c.co_order),
                },
                class,
            ));
        })
        .map_err(|e| e.to_string())?;
        self.stats.outcome_candidates.add(candidates.len() as u64);
        self.stats.outcome_classes.add(classes.len() as u64);
        if let Some(p) = &self.walk_progress {
            // The unpruned table is built in one gulp; report it as a
            // single completed work unit so watchers still see motion.
            let done = candidates.len() as u64;
            p.add_total(done);
            p.subtree_done(done, done, 0, 0);
            p.add_classes(classes.len() as u64);
        }
        Ok(OutcomeTable {
            candidates,
            classes,
        })
    }

    /// Per-class consistency of one model over a table, landing in (and
    /// served from) the Session verdict cache. Classes missing from the
    /// cache fan out over the work-stealing pool when there are enough
    /// of them to pay for the threads.
    fn class_consistency(&mut self, key: &[u8], m: ModelRef) -> Vec<bool> {
        /// Below this many uncached classes the pool's thread setup
        /// costs more than the checking.
        const PAR_THRESHOLD: usize = 32;
        let slot = m.index();
        let class_ids: Vec<txmm_core::arena::ExecId> = self.outcome_tables[key].classes.clone();
        let missing: Vec<(usize, txmm_core::arena::ExecId)> = class_ids
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, id)| !self.verdicts.contains_key(&(id, slot)))
            .collect();
        self.stats
            .verdict_hits
            .add((class_ids.len() - missing.len()) as u64);
        self.stats.verdict_misses.add(missing.len() as u64);
        if !missing.is_empty() {
            let jobs: Vec<(txmm_core::arena::ExecId, txmm_core::Execution)> = missing
                .iter()
                .map(|&(_, id)| (id, self.arena.unpack(id)))
                .collect();
            let model = self.models[slot].as_ref();
            let workers = if jobs.len() >= PAR_THRESHOLD {
                self.outcome_workers
            } else {
                1
            };
            let (states, _stats) = txmm_synth::steal::run_with_progress(
                jobs.into_iter(),
                workers,
                None,
                |_| Vec::new(),
                |(id, x), out: &mut Vec<(txmm_core::arena::ExecId, txmm_models::Verdict)>| {
                    out.push((id, model.check_analysis(&x.analysis())));
                },
            );
            for (id, v) in states.into_iter().flatten() {
                self.verdicts.insert((id, slot), v);
            }
        }
        class_ids
            .iter()
            .map(|id| self.verdicts[&(*id, slot)].is_consistent())
            .collect()
    }
}

/// Normalise an outcome for axiomatic-vs-operational comparison: zero
/// every register that *some* load inside an aborted transaction
/// targets. The axiomatic engine drops aborted events entirely (their
/// loads never happen), while the operational simulators model the
/// hardware reality that pre-abort loads may leave values in registers;
/// quotienting both sides by aborted-load registers makes the subset
/// relation well-defined.
pub fn normalise_outcome(t: &LitmusTest, o: &Outcome) -> Outcome {
    let mut out = o.clone();
    for (tid, instrs) in t.threads.iter().enumerate() {
        let mut open: Option<usize> = None;
        for i in instrs {
            match &i.op {
                Op::TxBegin { txn_id, .. } => open = Some(*txn_id),
                Op::TxEnd => open = None,
                Op::Load { reg, .. } => {
                    if let Some(txn_id) = open {
                        if !o.txn_ok.get(txn_id).copied().unwrap_or(true) {
                            if let Some(r) = out.regs.get_mut(tid).and_then(|r| r.get_mut(*reg)) {
                                *r = 0;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// The operational simulator for an architecture, if one exists.
pub fn simulator_for(arch: Arch) -> Option<Box<dyn Simulator>> {
    match arch {
        Arch::X86 => Some(Box::new(txmm_hwsim::TsoSim)),
        Arch::Power => Some(Box::new(txmm_hwsim::PowerSim::default())),
        Arch::Armv8 => Some(Box::new(txmm_hwsim::ArmSim::default())),
        _ => None,
    }
}

/// Soundness cross-check: run the architecture's operational simulator
/// and return every observed outcome **not** in the model's allowed set
/// (both sides normalised per [`normalise_outcome`]). An empty result
/// means the simulator's observations are a subset of the axiomatic
/// allowed set — the direction soundness requires. `None` when the
/// architecture has no simulator or the program uses abstract lock
/// calls the simulators cannot run.
pub fn unsound_sim_outcomes(t: &LitmusTest, allowed: &OutcomeSet) -> Option<Vec<Outcome>> {
    let uses_calls = t
        .threads
        .iter()
        .flatten()
        .any(|i| matches!(i.op, Op::LockCall(_)));
    if uses_calls {
        return None;
    }
    let sim = simulator_for(t.arch)?;
    let normalised_allowed: OutcomeSet = allowed.iter().map(|o| normalise_outcome(t, o)).collect();
    Some(
        sim.run(t)
            .iter()
            .map(|o| normalise_outcome(t, o))
            .filter(|o| !normalised_allowed.contains(o))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_litmus::litmus_from_execution;
    use txmm_models::catalog;

    fn sb() -> LitmusTest {
        litmus_from_execution("sb", &catalog::sb(None, false, false), Arch::X86)
    }

    #[test]
    fn sb_outcome_matrix() {
        let mut s = Session::new();
        let sc = s.resolve("SC").unwrap();
        let x86 = s.resolve("x86").unwrap();
        let r = s.outcomes("sb.litmus", &sb(), Some(&[sc, x86])).unwrap();
        assert_eq!(r.candidates, 4);
        assert!(r.classes <= r.candidates);
        // SC forbids the both-stale outcome, x86 allows it.
        assert_eq!(r.per_model[0].post_allowed, Some(false));
        assert_eq!(r.per_model[1].post_allowed, Some(true));
        // SC allows exactly 3 final states (the interleavings), x86 4.
        assert_eq!(r.per_model[0].allowed.len(), 3);
        assert_eq!(r.per_model[1].allowed.len(), 4);
    }

    #[test]
    fn outcome_sets_cached_by_program_key() {
        let mut s = Session::new();
        let sc = s.resolve("SC").unwrap();
        let cold = s.outcomes("sb.litmus", &sb(), Some(&[sc])).unwrap();
        assert!(!cold.cached);
        assert_eq!(s.stats().outcome_misses, 1);
        let warm = s.outcomes("sb.litmus", &sb(), Some(&[sc])).unwrap();
        assert!(warm.cached);
        assert_eq!(s.stats().outcome_hits, 1);
        assert_eq!(cold.per_model, warm.per_model);
        // A different postcondition over the same program still hits the
        // program-keyed caches.
        let mut other = sb();
        other.post.clear();
        let r = s.outcomes("sb2.litmus", &other, Some(&[sc])).unwrap();
        assert!(r.cached);
        assert_eq!(r.per_model[0].post_allowed, None);
        assert_eq!(s.stats().outcome_hits, 2);
        assert_eq!(s.stats().outcome_entries, 1);
    }

    #[test]
    fn symmetry_prunes_classes() {
        // SB is symmetric under (t0 ↔ t1, x ↔ y): the two one-stale-read
        // candidates share a canonical class, so 4 candidates check as
        // 3 classes.
        let mut s = Session::new();
        let x86 = s.resolve("x86").unwrap();
        let r = s.outcomes("sb.litmus", &sb(), Some(&[x86])).unwrap();
        assert_eq!(r.candidates, 4);
        assert_eq!(r.classes, 3, "symmetric rf choices share one class");
        assert_eq!(s.stats().outcome_candidates, r.candidates as u64);
        assert_eq!(s.stats().outcome_classes, r.classes as u64);
        // The pruned class still contributes both candidates' outcomes.
        assert_eq!(r.per_model[0].allowed.len(), 4);
    }

    #[test]
    fn program_level_agrees_with_pinned_execution() {
        // The postcondition verdict from exhaustive enumeration must
        // match the single pinned execution's consistency for tests
        // whose postcondition pins one candidate.
        let mut s = Session::new();
        let all: Vec<ModelRef> = s.models().collect();
        for x in [
            catalog::sb(None, false, false),
            catalog::mp(None, false, false),
            catalog::lb(false),
            catalog::fig2(),
        ] {
            let t = litmus_from_execution("t", &x, Arch::X86);
            let pinned = txmm_litmus::execution_from_litmus(&t).unwrap();
            let r = s.outcomes("t.litmus", &t, Some(&all)).unwrap();
            for (m, mo) in all.iter().zip(&r.per_model) {
                let direct = s.verdict(&pinned, *m).is_consistent();
                assert_eq!(
                    mo.post_allowed,
                    Some(direct),
                    "{} on pinned-vs-program",
                    mo.model
                );
            }
        }
    }

    #[test]
    fn parallel_and_sequential_checking_agree() {
        // 5 same-location writes on one thread: 120 coherence classes —
        // enough to engage the work-stealing pool on the parallel
        // session. Answers must be identical either way.
        use txmm_litmus::Instr;
        let t = LitmusTest {
            name: "5w".into(),
            arch: Arch::X86,
            threads: vec![(1..=5u32)
                .map(|v| {
                    Instr::plain(Op::Store {
                        loc: 0,
                        value: v,
                        mode: Default::default(),
                    })
                })
                .collect()],
            post: vec![txmm_litmus::Check::Loc { loc: 0, value: 5 }],
        };
        // Pruning would collapse the program to its one po-consistent
        // coherence order before any class reaches the pool; pin it
        // off so the table path's fan-out is what gets exercised.
        let mut seq = Session::new();
        seq.set_prune(false);
        let mut par = Session::new();
        par.set_prune(false);
        par.set_outcome_workers(4);
        let m_seq = seq.resolve("x86").unwrap();
        let m_par = par.resolve("x86").unwrap();
        let a = seq.outcomes("5w", &t, Some(&[m_seq])).unwrap();
        let b = par.outcomes("5w", &t, Some(&[m_par])).unwrap();
        assert!(
            a.classes >= 32,
            "classes {} must engage the pool",
            a.classes
        );
        assert_eq!(a.per_model, b.per_model);
        // x86 keeps same-thread writes in program order: exactly one
        // coherence order survives, so the postcondition x = 5 is
        // allowed and x = anything else is not.
        assert_eq!(a.per_model[0].post_allowed, Some(true));
        assert_eq!(a.per_model[0].allowed.len(), 1);
        // The pruned walk abandons the other 119 coherence orders
        // during construction and still answers identically.
        let mut pruned = Session::new();
        let m = pruned.resolve("x86").unwrap();
        let c = pruned.outcomes("5w", &t, Some(&[m])).unwrap();
        assert_eq!(a.per_model[0].allowed, c.per_model[0].allowed);
        assert_eq!(
            a.candidates, c.candidates,
            "closed-form count is path-independent"
        );
        assert_eq!(c.classes, 1, "only the surviving order is visited");
        assert!(pruned.stats().prune_subtrees_cut > 0);
        assert_eq!(
            pruned.stats().outcome_candidates + pruned.stats().prune_candidates_skipped,
            a.candidates as u64,
            "visited + skipped covers the whole space"
        );
    }

    #[test]
    fn oversized_programs_refused() {
        // 6 writes to one location: 720 coherence orders per rf split —
        // fine; but 9 writes (362880 co orders) blows the cap.
        use txmm_litmus::{Instr, Op};
        let mut t = LitmusTest {
            name: "big".into(),
            arch: Arch::X86,
            threads: vec![(1..=9u32)
                .map(|v| {
                    Instr::plain(Op::Store {
                        loc: 0,
                        value: v,
                        mode: Default::default(),
                    })
                })
                .collect()],
            post: vec![],
        };
        // One thread: co is pinned by po? No — co choices are still
        // enumerated; the count is 9! = 362880 > 65536.
        let mut s = Session::new();
        let e = s.outcomes("big", &t, None).unwrap_err();
        assert!(e.contains("limit"), "{e}");
        // Within the cap it serves.
        t.threads[0].truncate(6);
        assert!(s.outcomes("small", &t, None).is_ok());
    }

    #[test]
    fn high_locations_refused_not_truncated() {
        // Locations past the simulators' width would be silently
        // dropped by the fixed-width outcome layout; the engine must
        // refuse instead of answering wrongly.
        let src = "hi (x86)\nthread 0:\n  l8 <- 1\nTest: l8 = 1\n";
        let t = txmm_litmus::parse_litmus(src).expect("parses");
        let mut s = Session::new();
        let e = s.outcomes("hi", &t, None).unwrap_err();
        assert!(e.contains("location 8"), "{e}");
        // The widest in-range location still serves.
        let src = "ok (x86)\nthread 0:\n  l7 <- 1\nTest: l7 = 1\n";
        let t = txmm_litmus::parse_litmus(src).expect("parses");
        let r = s.outcomes("ok", &t, None).expect("serves");
        assert_eq!(r.candidates, 1);
    }

    #[test]
    fn pathological_programs_refused_without_panic() {
        use txmm_litmus::{Instr, Op};
        let mode = txmm_litmus::AccessMode::default();
        // `n` loads of one location after 7 stores to it.
        let wide = |n: usize| {
            let stores: Vec<Instr> = (1..=7u32)
                .map(|v| {
                    Instr::plain(Op::Store {
                        loc: 0,
                        value: v,
                        mode,
                    })
                })
                .collect();
            let loads: Vec<Instr> = (0..n)
                .map(|r| {
                    Instr::plain(Op::Load {
                        reg: r,
                        loc: 0,
                        mode,
                    })
                })
                .collect();
            LitmusTest {
                name: format!("wide{n}"),
                arch: Arch::X86,
                threads: vec![stores, loads],
                post: vec![],
            }
        };
        // Deep: 33 single-store transactions (mask wider than u32).
        let mut instrs = Vec::new();
        for v in 1..=33u32 {
            instrs.push(Instr::plain(Op::TxBegin {
                txn_id: (v - 1) as usize,
                atomic: false,
            }));
            instrs.push(Instr::plain(Op::Store {
                loc: 0,
                value: v,
                mode,
            }));
            instrs.push(Instr::plain(Op::TxEnd));
        }
        let deep = LitmusTest {
            name: "deep".into(),
            arch: Arch::X86,
            threads: vec![instrs],
            post: vec![],
        };
        let mut s = Session::new();
        // Past the event cap: refused by size before any counting.
        for (t, events) in [(wide(42), 49), (deep, 33)] {
            let e = s.outcomes(&t.name.clone(), &t, None).unwrap_err();
            assert_eq!(e, format!("program has {events} events (max 16)"));
        }
        // Within the cap, 7! x 8^9 candidates: refused by the count cap.
        let t = wide(9);
        let e = s.outcomes(&t.name.clone(), &t, None).unwrap_err();
        assert!(e.contains("limit"), "{e}");
    }

    #[test]
    fn sim_subset_holds_for_sb_family() {
        let mut s = Session::new();
        let x86tm = s.resolve("x86-tm").unwrap();
        for x in [
            catalog::sb(None, false, false),
            catalog::sb(None, true, false),
            catalog::sb(None, true, true),
        ] {
            let t = litmus_from_execution("sb", &x, Arch::X86);
            let r = s.outcomes("sb", &t, Some(&[x86tm])).unwrap();
            let extra = unsound_sim_outcomes(&t, &r.per_model[0].allowed).unwrap();
            assert!(
                extra.is_empty(),
                "simulator observed outcomes outside x86-tm's allowed set: {extra:?}"
            );
        }
    }

    #[test]
    fn reload_invalidates_outcome_sets() {
        let mut s = Session::new();
        let m = s
            .register_cat_source("probe", "acyclic po | com as Order")
            .unwrap();
        let r = s.outcomes("sb", &sb(), Some(&[m])).unwrap();
        assert_eq!(r.per_model[0].post_allowed, Some(false), "SC forbids SB");
        // Reload the same name with a weaker model: the cached outcome
        // set must not survive.
        let m2 = s
            .reload_cat_source("probe", "acyclic poloc | com as Coherence")
            .unwrap();
        assert_eq!(m, m2, "reload keeps the registry slot");
        let r2 = s.outcomes("sb", &sb(), Some(&[m2])).unwrap();
        assert_eq!(
            r2.per_model[0].post_allowed,
            Some(true),
            "coherence-only model allows SB"
        );
    }
}
