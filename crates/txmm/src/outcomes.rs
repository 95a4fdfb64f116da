//! The outcome engine's checking half: per-model **allowed final-state
//! sets** for litmus programs, served from a [`Session`].
//!
//! `txmm_litmus::outcomes` walks the candidate executions of a program
//! (all rf assignments, all per-location coherence orders, all
//! transaction commit/abort splits). This module turns that walk into
//! herd-style answers:
//!
//! * each `(program, model)` pair walks the candidates once, on the
//!   calling thread, with the model's txns-known prune oracle cutting
//!   doomed subtrees and whole abort splits, or under [`NoPrune`] when
//!   the model has none; the program skeleton and its candidate count
//!   are built once per request and shared by every model's walk;
//! * the surviving candidates are grouped into **canonical classes**
//!   through the Session arena (thread/location-symmetric candidates
//!   share one interned representative), so each model checks one
//!   execution per class instead of one per candidate — the same
//!   symmetry machinery `txmm_core::canon` gives the enumerator, reused
//!   as a pruning stage — and the verdicts land in the Session's
//!   verdict cache;
//! * the resulting allowed outcome set per `(program, model)` is cached
//!   under the program's canonical key ([`txmm_litmus::program_key`]),
//!   so re-serving a test — or the same program under a different
//!   postcondition — is a lookup;
//! * each model's verdict on the test's postcondition (`Allowed` /
//!   `Forbidden`) is derived from the allowed set, which is the
//!   program-level answer the paper's modified-herd evaluation gives,
//!   rather than the single-execution answer `check` gives.
//!
//! The final states reuse [`txmm_hwsim::Outcome`], so the hardware
//! machine's observations can be cross-checked to be a **subset** of a sound
//! model's allowed set ([`unsound_sim_outcomes`]).

use std::collections::HashSet;

use txmm_core::arena::ExecId;
use txmm_core::{NoPrune, PruneStats};
use txmm_hwsim::{Outcome, OutcomeSet, MAX_LOCS};
use txmm_litmus::{program_key, LitmusTest, Op, ProgramSkeleton};
use txmm_models::Arch;

use crate::session::{intern_into, ModelRef, Session};

/// Default cap on a program's candidate executions (the serving layers
/// surface the refusal as a structured error). The cap covers every
/// corpus test by orders of magnitude while bounding a daemon's
/// per-request work; [`Session::set_max_candidates`] (or a request's
/// `max_candidates` field) raises it for deliberately larger tables,
/// which consistency-guided pruning keeps affordable.
pub(crate) const MAX_CANDIDATES: u128 = 1 << 16;

/// What one `(program, model)` outcome walk actually visited: the
/// subset of the candidate space the model's oracle could not refute
/// (all of it for a model without one). Cached alongside the allowed
/// set so repeat requests can report class counts without re-walking.
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

/// A walk's single work unit: declared when the walk starts and
/// flushed when dropped, so a walk cut short by a panicking model
/// check still leaves `work_done` level with `work_total`.
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
    /// Program-level outcome enumeration: walk (or fetch) the
    /// program's candidates under each requested model (all registered
    /// models when `models` is `None`), check every canonical class
    /// visited, and return the allowed final-state set plus the
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
    pub(crate) fn outcomes_capped(
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
        // One skeleton and one count serve every model's walk.
        let sk = ProgramSkeleton::from_litmus(t).map_err(|e| e.to_string())?;
        let count = sk.candidate_count();
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
                self.model_outcomes(&key, &sk, count, m);
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
            events: sk.len(),
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
    /// visit record land in the per-`(program, model)` caches. A model
    /// without an oracle walks every candidate under [`NoPrune`] and
    /// adds nothing to the prune counters.
    fn model_outcomes(&mut self, key: &[u8], sk: &ProgramSkeleton, count: u128, m: ModelRef) {
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
            walk_progress,
            ..
        } = self;
        let progress = walk_progress.clone();
        let progress = progress.as_deref();
        let model = models[slot].as_ref();
        let pruned = model.prune_oracle(true);
        let oracle = pruned.unwrap_or(&NoPrune);
        let mut allowed = OutcomeSet::new();
        let mut classes: Vec<ExecId> = Vec::new();
        let mut seen: HashSet<ExecId> = HashSet::new();
        // The walk has no per-split granularity to report against, so
        // the whole program is one work unit.
        let mut unit = WalkUnit::start(progress, count.min(u64::MAX as u128) as u64);
        let (visited, pstats) = txmm_litmus::enumerate_candidates_pruned(sk, oracle, &mut |c| {
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
        });
        unit.tally = (
            visited as u64,
            pstats.subtrees_cut,
            pstats.candidates_skipped,
        );
        let pstats = if pruned.is_some() {
            pstats
        } else {
            PruneStats::default()
        };
        self.stats.interned.set(self.arena.len() as i64);
        self.stats.outcome_candidates.add(visited as u64);
        self.stats.outcome_classes.add(classes.len() as u64);
        self.stats.prune.add(&pstats);
        self.outcome_sets.insert((key.to_vec(), slot), allowed);
        self.outcome_visits
            .insert((key.to_vec(), slot), OutcomeVisit { classes });
    }
}

/// Normalise an outcome for axiomatic-vs-operational comparison: zero
/// every register that *some* load inside an aborted transaction
/// targets. The axiomatic engine drops aborted events entirely (their
/// loads never happen), while the operational simulators model the
/// hardware reality that pre-abort loads may leave values in registers;
/// quotienting both sides by aborted-load registers makes the subset
/// relation well-defined.
pub(crate) fn normalise_outcome(t: &LitmusTest, o: &Outcome) -> Outcome {
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

/// Soundness cross-check: run the test on its architecture's
/// operational machine and return every observed outcome **not** in the
/// model's allowed set (both sides normalised per `normalise_outcome`).
/// An empty result means the machine's observations are a subset of the
/// axiomatic allowed set — the direction soundness requires. `None`
/// where no machine runs the test (see [`txmm_hwsim::run`]).
pub fn unsound_sim_outcomes(t: &LitmusTest, allowed: &OutcomeSet) -> Option<Vec<Outcome>> {
    let observed = txmm_hwsim::run(t)?;
    let normalised_allowed: OutcomeSet = allowed.iter().map(|o| normalise_outcome(t, o)).collect();
    Some(
        observed
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

    /// An SC-strength `.cat` model whose one check subtracts a growing
    /// relation: it has no monotone core, so no prune oracle.
    const ORACLE_LESS_SC: &str = "acyclic po | (com \\ (rf ; rf^-1)) as Order";

    /// Five writes to one location on one thread, each in its own
    /// transaction: 32 abort splits and 326 candidates.
    fn five_txn_writes() -> LitmusTest {
        use txmm_litmus::Instr;
        let mut instrs = Vec::new();
        for v in 1..=5u32 {
            let txn_id = v as usize - 1;
            let store = Op::Store {
                loc: 0,
                value: v,
                mode: Default::default(),
            };
            let begin = Op::TxBegin {
                txn_id,
                atomic: false,
            };
            instrs.extend([begin, store, Op::TxEnd].map(Instr::plain));
        }
        LitmusTest {
            name: "5w".into(),
            arch: Arch::X86,
            threads: vec![instrs],
            post: vec![txmm_litmus::Check::Loc { loc: 0, value: 5 }],
        }
    }

    #[test]
    fn outcome_walks_cover_the_candidate_space() {
        // The oracle-less model walks every candidate of every split,
        // x86's oracle cuts each split to its po-ordered coherence
        // order.
        let t = five_txn_writes();
        let mut s = Session::new();
        let sc = s.register_cat_source("sc-like", ORACLE_LESS_SC).unwrap();
        assert!(s.model(sc).prune_oracle(true).is_none());
        let x86 = s.resolve("x86").unwrap();
        let a = s.outcomes("5w", &t, Some(&[sc, x86])).unwrap();
        let stats = s.stats();
        assert_eq!(a.candidates, 326);
        // Both models keep same-thread writes in program order: one
        // final state per abort split, and x = 5 is allowed.
        for m in &a.per_model {
            assert_eq!(m.allowed.len(), 32, "{}", m.model);
            assert_eq!(m.post_allowed, Some(true), "{}", m.model);
        }
        // The oracle-less walk visits all 326 candidates; x86's visits
        // plus its skips cover the space again.
        assert!(stats.prune_subtrees_cut > 0);
        assert_eq!(
            stats.outcome_candidates + stats.prune_candidates_skipped,
            2 * a.candidates as u64,
        );

        // Five plain writes on one thread: 120 coherence orders, and
        // x86's oracle abandons all but the po-ordered one during
        // construction.
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
        let mut s = Session::new();
        let x86 = s.resolve("x86").unwrap();
        let c = s.outcomes("5w", &t, Some(&[x86])).unwrap();
        assert_eq!(c.candidates, 120, "closed-form count is path-independent");
        assert_eq!(c.classes, 1, "only the surviving order is visited");
        assert_eq!(c.per_model[0].allowed.len(), 1);
        assert_eq!(c.per_model[0].post_allowed, Some(true));
        assert_eq!(
            s.stats().outcome_candidates + s.stats().prune_candidates_skipped,
            c.candidates as u64,
            "visited + skipped covers the whole space"
        );
    }

    #[test]
    fn oracle_less_models_count_no_pruning() {
        let mut s = Session::new();
        let sc = s.register_cat_source("sc-like", ORACLE_LESS_SC).unwrap();
        let r = s.outcomes("5w", &five_txn_writes(), Some(&[sc])).unwrap();
        let st = s.stats();
        assert_eq!(r.per_model[0].allowed.len(), 32);
        assert_eq!(st.outcome_candidates, 326);
        assert_eq!(
            (
                st.prune_subtrees_cut,
                st.prune_candidates_skipped,
                st.prune_oracle_calls,
                st.prune_oracle_micros,
                st.prune_delta_answers,
                st.prune_fallbacks,
                st.prune_batches,
                st.prune_batched_placements,
            ),
            (0, 0, 0, 0, 0, 0, 0, 0)
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
