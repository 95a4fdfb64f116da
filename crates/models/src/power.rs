//! The Power memory model with transactions (Fig. 6).
//!
//! The baseline is the "Herding cats" Power model of Alglave et al.
//! (TOPLAS 2014): `ppo` is the least fixpoint of the ii/ic/ci/cc
//! equations, and the model has Coherence, Order (no-thin-air),
//! Propagation and Observation axioms. Fig. 6 of the paper adds
//! (highlighted):
//!
//! * `tfence` joins the fence relation (implicit barriers at transaction
//!   boundaries);
//! * `thb`, lifted over transactions via `weaklift`, joins `hb`
//!   (transaction serialisation, §5.2 "Transaction Ordering");
//! * `tprop1 = rfe ; stxn ; [W]` (the transaction's integrated memory
//!   barrier) and `tprop2 = stxn ; rfe` (multicopy-atomic transactional
//!   writes) join `prop`;
//! * `StrongIsol`, `TxnOrder`, and `TxnCancelsRMW`.
//!
//! One body ([`Power::relations`] and the derived table and axioms
//! built on it, and the bool-only check over the same terms) serves
//! every variant: it takes the set of [`Highlights`] to include — all
//! for `power-tm`, none for `power`, all but one for each ablation
//! ([`crate::PowerAblated`]).

use txmm_core::incr::{ComposeRule, DeltaPlan, EdgeKind, EdgeSel, Lift, Obligation, PruneOracle};
use txmm_core::Fence;
use txmm_core::{
    stronglift, union_all, weaklift, EventSet, Execution, ExecutionAnalysis, MemoKey, Rel,
};

use crate::arch::Arch;
use crate::model::{Checker, Derived, Model};

/// The Power model; `tm` selects the transactional extension.
#[derive(Debug, Clone, Copy)]
pub struct Power {
    /// Interpret transactions?
    pub tm: bool,
}

/// A set of Fig. 6 highlights: the paper's transactional additions to
/// the herding-cats Power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Highlights(u8);

impl Highlights {
    /// `tfence` joins `fence` and the `sync` term of `prop2`.
    pub const TFENCE: Highlights = Highlights(1);
    /// `weaklift(thb, stxn)` joins `hb`.
    pub const THB: Highlights = Highlights(1 << 1);
    /// `tprop1 = rfe ; stxn ; [W]` joins `prop`.
    pub const TPROP1: Highlights = Highlights(1 << 2);
    /// `tprop2 = stxn ; rfe` joins `prop`.
    pub const TPROP2: Highlights = Highlights(1 << 3);
    /// The StrongIsol axiom.
    pub(crate) const STRONG_ISOL: Highlights = Highlights(1 << 4);
    /// The TxnOrder axiom over `txnorder = stronglift(hb, stxn)`.
    pub(crate) const TXN_ORDER: Highlights = Highlights(1 << 5);
    /// The TxnCancelsRMW axiom.
    pub const TXN_CANCELS_RMW: Highlights = Highlights(1 << 6);
    /// The baseline model: no highlight.
    pub const NONE: Highlights = Highlights(0);
    /// The transactional model: every highlight.
    pub const ALL: Highlights = Highlights((1 << 7) - 1);

    /// This set with `h` removed.
    pub fn without(self, h: Highlights) -> Highlights {
        Highlights(self.0 & !h.0)
    }

    /// Does this set include every highlight of `h`?
    pub(crate) fn contains(self, h: Highlights) -> bool {
        self.0 & h.0 == h.0
    }
}

/// The intermediate relations of the Power model, exposed so tests and
/// `txmm catalog` can explain verdicts edge by edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerRelations {
    /// Preserved program order (herding-cats fixpoint).
    pub ppo: Rel,
    /// `fence = sync ∪ tfence ∪ (lwsync \ (W × R))`.
    pub fence: Rel,
    /// Intra-thread happens-before `ihb = ppo ∪ fence`.
    pub ihb: Rel,
    /// The transaction-ordering relation `thb` (§5.2).
    pub thb: Rel,
    /// Happens-before `hb = (rfe? ; ihb ; rfe?) ∪ weaklift(thb, stxn)`.
    pub hb: Rel,
    /// `efence = rfe? ; fence ; rfe?`, which `prop` composes with.
    pub efence: Rel,
    /// The propagation relation.
    pub prop: Rel,
    /// `hb*`, which both `prop` and the Observation axiom compose with.
    pub hbstar: Rel,
}

impl Power {
    /// The transactional model.
    pub fn tm() -> Power {
        Power { tm: true }
    }

    /// The non-transactional baseline.
    pub fn base() -> Power {
        Power { tm: false }
    }

    /// The Fig. 6 highlights this variant includes.
    fn highlights(&self) -> Highlights {
        if self.tm {
            Highlights::ALL
        } else {
            Highlights::NONE
        }
    }

    /// Preserved program order: the ii/ic/ci/cc least fixpoint of
    /// "Herding cats" §6 (elided in Fig. 6 as it is unchanged by TM).
    ///
    /// Entirely txn-independent, and by far the most expensive Power
    /// derivation (an iterated fixpoint of seqs and unions), so it is
    /// memoised under [`MemoKey::PowerPpo`] and shared across the
    /// transaction layouts of one rf/co structure.
    pub(crate) fn ppo(a: &ExecutionAnalysis<'_>) -> Rel {
        a.memo(MemoKey::PowerPpo, || Power::ppo_uncached(a))
    }

    fn ppo_uncached(a: &ExecutionAnalysis<'_>) -> Rel {
        let n = a.len();
        let po = a.po();
        let poloc = a.po_loc();
        let dp = a.dp();

        // rdw: two po-loc reads separated by an external write the second
        // read observes; detour: a po-loc write pair with the second...
        // (herding cats: rdw = poloc ∩ (fre ; rfe), detour = poloc ∩
        // (coe ; rfe)).
        let rdw = poloc.inter(&a.fre().seq(a.rfe()));
        let detour = poloc.inter(&a.coe().seq(a.rfe()));

        // Herding-cats dependencies are read-sourced; write-sourced ctrl
        // (store-exclusives, footnote 3) is handled separately in ihb.
        let rctrl = Rel::id_on(n, a.reads()).seq(a.ctrl());

        // ctrl+isync: control dependencies with an isync before the target.
        let ctrl_isync = rctrl.inter(a.fence_rel(Fence::Isync));

        let ii0 = union_all(n, [dp, &rdw, a.rfi()]);
        let ic0 = Rel::empty(n);
        let ci0 = ctrl_isync.union(&detour);
        let cc0 = union_all(n, [dp, poloc, &rctrl, &a.addr().seq(&po.opt())]);

        let (mut ii, mut ic, mut ci, mut cc) = (ii0, ic0, ci0, cc0);
        loop {
            let ii2 = union_all(n, [&ii0, &ci, &ic.seq(&ci), &ii.seq(&ii)]);
            let ic2 = union_all(n, [&ii, &cc, &ic.seq(&cc), &ii.seq(&ic), &ic]);
            let ci2 = union_all(n, [&ci0, &ci.seq(&ii), &cc.seq(&ci), &ci]);
            let cc2 = union_all(n, [&cc0, &ci, &ci.seq(&ic), &cc.seq(&cc)]);
            if ii2 == ii && ic2 == ic && ci2 == ci && cc2 == cc {
                break;
            }
            ii = ii2;
            ic = ic2;
            ci = ci2;
            cc = cc2;
        }
        let idr = Rel::id_on(n, a.reads());
        let idw = Rel::id_on(n, a.writes());
        idr.seq(&ii).seq(&idr).union(&idr.seq(&ic).seq(&idw))
    }

    /// Compute every intermediate relation of Fig. 6 with the given
    /// highlights, as the paper prints them.
    ///
    /// The txn-independent parts shared by every variant are memoised
    /// (see [`ExecutionAnalysis::memo`]): `ihb` without `tfence`,
    /// `(fre ∪ coe)*` and `come*`, beside the `ppo` fixpoint. This is
    /// the reference [`Power::split_relations`] (and so the bool-only
    /// check) is tested against.
    pub fn relations(a: &ExecutionAnalysis<'_>, hl: Highlights) -> PowerRelations {
        let f = Fig6::new(a, hl);
        let rfe = a.rfe();
        let fence = Fig6::fence0(a).union(&f.tfence);
        let ihb = f.ihb0.union(&f.tfence);
        // thb = (rfe ∪ ((fre ∪ coe)* ; ihb))* ; (fre ∪ coe)* ; rfe?
        let thb = f.thb(rfe.union(&f.frecoe_star.seq(&ihb)));
        // hb = (rfe? ; ihb ; rfe?) ∪ weaklift(thb, stxn)
        let hb = f.hb(f.around_rfe(&ihb), || thb);
        let efence = f.around_rfe(&fence);
        f.finish(thb, hb, efence, true)
    }

    /// The relations of [`Power::relations`], derived as the bool-only
    /// check derives them: every txn-free composition is memoised per
    /// rf/co group, and a transaction layout adds only its own terms
    /// (see [`MemoKey`]'s Power keys).
    ///
    /// With `ihb₀` and `fence₀` for `ihb` and `fence` without `tfence`,
    /// the group memoises `hb₀ = rfe? ; ihb₀ ; rfe?`,
    /// `efence₀ = rfe? ; fence₀ ; rfe?` and the `thb` seed
    /// `rfe ∪ (fre ∪ coe)* ; ihb₀`. A layout adds its terms, each `;`
    /// distributed over `∪`: with `D = rfe? ; tfence ; rfe?`,
    /// `hb = hb₀ ∪ D ∪ weaklift(thb, stxn)`, `efence = efence₀ ∪ D`, the
    /// seed gains `(fre ∪ coe)* ; tfence`, and `prop` the tprops.
    ///
    /// `prop2`'s `come* ; efence* ; hb*` is read as `come* ; hb*`: every
    /// `fence` pair is an `ihb` pair, so `efence ⊆ hb` and
    /// `efence* ; hb* = hb*`.
    pub fn split_relations(a: &ExecutionAnalysis<'_>, hl: Highlights) -> PowerRelations {
        let f = Fig6::new(a, hl);
        let s = f.split();
        let thb = f.thb(s.seed);
        let hb = f.hb(s.hb, || thb);
        f.finish(thb, hb, s.efence, false)
    }

    /// [`Model::derived`] of the variant with highlights `hl`.
    pub(crate) fn fig6_derived(a: &ExecutionAnalysis<'_>, hl: Highlights) -> Derived {
        let rels = Power::relations(a, hl);
        let mut d = Derived::with_capacity(10);
        d.insert("ppo", rels.ppo);
        d.insert("fence", rels.fence);
        d.insert("ihb", rels.ihb);
        d.insert("thb", rels.thb);
        d.insert("propagation", a.co().union(&rels.prop));
        d.insert("observation", a.fre().seq(&rels.prop).seq(&rels.hbstar));
        d.insert("prop", rels.prop);
        if hl.contains(Highlights::TXN_ORDER) {
            d.insert("txnorder", stronglift(&rels.hb, a.stxn()));
        }
        d.insert("hb", rels.hb);
        d.insert("hbstar", rels.hbstar);
        d
    }

    /// [`Model::axioms`] of the variant with highlights `hl`.
    pub(crate) fn fig6_axioms(
        a: &ExecutionAnalysis<'_>,
        d: &Derived,
        c: &mut Checker,
        hl: Highlights,
    ) {
        c.require("Coherence", a.coherent());
        c.empty("RMWIsol", a.rmw_isol());
        c.acyclic("Order", d.expect("hb"));
        c.acyclic("Propagation", d.expect("propagation"));
        c.irreflexive("Observation", d.expect("observation"));
        if hl.contains(Highlights::STRONG_ISOL) {
            c.acyclic("StrongIsol", a.strong_isol());
        }
        if hl.contains(Highlights::TXN_ORDER) {
            c.acyclic("TxnOrder", d.expect("txnorder"));
        }
        if hl.contains(Highlights::TXN_CANCELS_RMW) {
            c.empty("TxnCancelsRMW", a.txn_cancels_rmw());
        }
    }

    /// [`Model::consistent_analysis`] of the variant with highlights
    /// `hl`: the axioms of [`Power::fig6_axioms`] as one bool, over the
    /// relations of [`Power::split_relations`].
    ///
    /// The txn-free axioms are decided once per rf/co group, the cheap
    /// transactional ones come next, `hb⁺` serves both Order and `hb*`,
    /// no [`Derived`] table is built, and the first failed axiom
    /// answers.
    pub(crate) fn fig6_consistent(a: &ExecutionAnalysis<'_>, hl: Highlights) -> bool {
        // The group's memos first: they are complete once its first
        // layout is checked, whatever that layout's verdict.
        let f = Fig6::new(a, hl);
        let s = f.split();
        if !a.coherent() || !a.rmw_isol().is_empty() {
            return false;
        }
        // Without transactions StrongIsol is `acyclic(com)`, which
        // Coherence implies, and TxnOrder is Order.
        let txns = !a.stxn().is_empty();
        if txns && hl.contains(Highlights::STRONG_ISOL) && !a.strong_isol().is_acyclic() {
            return false;
        }
        if hl.contains(Highlights::TXN_CANCELS_RMW) && !a.txn_cancels_rmw().is_empty() {
            return false;
        }
        let hb = f.hb(s.hb, || f.thb(s.seed));
        let mut hbstar = hb.plus();
        if !hbstar.is_irreflexive() {
            return false;
        }
        if txns && hl.contains(Highlights::TXN_ORDER) && !stronglift(&hb, a.stxn()).is_acyclic() {
            return false;
        }
        hbstar.reflexive_close();
        let prop = f.prop(&s.efence, &hbstar, false);
        // Observation: `irreflexive(fre ; prop ; hb*)`.
        let fre = a.fre();
        a.co().union(&prop).is_acyclic()
            && (fre.is_empty() || prop.seq(&hbstar).inter(&fre.inverse()).is_empty())
    }
}

/// One layout's `rfe? ; ihb ; rfe?`, `efence` and `thb` seed: the
/// group's memo of each, plus the layout's term.
struct Split {
    hb: Rel,
    efence: Rel,
    seed: Rel,
}

/// The terms of Fig. 6 that [`Power::relations`] and
/// [`Power::split_relations`] share: the txn-free memos every variant
/// reads, the layout's `tfence` (empty without [`Highlights::TFENCE`]),
/// and the formulas downstream of the `thb` seed, `hb` and `efence`.
struct Fig6<'a, 'x> {
    a: &'a ExecutionAnalysis<'x>,
    hl: Highlights,
    tfence: Rel,
    ppo: Rel,
    /// `ihb` without `tfence`.
    ihb0: Rel,
    frecoe_star: Rel,
    come_star: Rel,
}

impl<'a, 'x> Fig6<'a, 'x> {
    fn new(a: &'a ExecutionAnalysis<'x>, hl: Highlights) -> Fig6<'a, 'x> {
        let n = a.len();
        let ppo = Power::ppo(a);
        let ihb0 = a.memo(MemoKey::PowerIhb, || {
            // Footnote 3: a ctrl+isync sequence may begin at a
            // store-exclusive; this orders the successful lock write
            // before the critical region (the spinlock idiom of [29,
            // §B.2.1.1]).
            let sx = a.writes().inter(a.rmw().range());
            let sx_ctrl_isync = Rel::id_on(n, sx)
                .seq(a.ctrl())
                .inter(a.fence_rel(Fence::Isync));
            ppo.union(&Fig6::fence0(a)).union(&sx_ctrl_isync)
        });
        let tfence = if hl.contains(Highlights::TFENCE) {
            *a.tfence()
        } else {
            Rel::empty(n)
        };
        Fig6 {
            a,
            hl,
            tfence,
            ppo,
            ihb0,
            frecoe_star: a.memo(MemoKey::PowerFrecoeStar, || a.fre().union(a.coe()).star()),
            come_star: a.memo(MemoKey::PowerComeStar, || a.come().star()),
        }
    }

    /// The split form of `rfe? ; ihb ; rfe?`, `efence` and the `thb`
    /// seed (see [`Power::split_relations`]). The three memos are filled
    /// here, on a group's first layout.
    fn split(&self) -> Split {
        let a = self.a;
        let hb0 = a.memo(MemoKey::PowerHb, || self.around_rfe(&self.ihb0));
        let efence0 = a.memo(MemoKey::PowerEfence, || self.around_rfe(&Fig6::fence0(a)));
        let seed0 = a.memo(MemoKey::PowerThbSeed, || {
            a.rfe().union(&self.frecoe_star.seq(&self.ihb0))
        });
        if self.tfence.is_empty() {
            return Split {
                hb: hb0,
                efence: efence0,
                seed: seed0,
            };
        }
        let d = self.around_rfe(&self.tfence);
        Split {
            hb: hb0.union(&d),
            efence: efence0.union(&d),
            seed: seed0.union(&self.frecoe_star.seq(&self.tfence)),
        }
    }

    /// Every relation, given `thb`, `hb` and `efence` (see [`Fig6::prop`]
    /// for `efence_star`).
    fn finish(&self, thb: Rel, hb: Rel, efence: Rel, efence_star: bool) -> PowerRelations {
        let hbstar = hb.star();
        PowerRelations {
            ppo: self.ppo,
            fence: Fig6::fence0(self.a).union(&self.tfence),
            ihb: self.ihb0.union(&self.tfence),
            thb,
            hb,
            prop: self.prop(&efence, &hbstar, efence_star),
            efence,
            hbstar,
        }
    }

    /// `fence` without `tfence`: `sync ∪ (lwsync \ (W × R))`.
    fn fence0(a: &ExecutionAnalysis<'_>) -> Rel {
        let lwsync = a
            .fence_rel(Fence::Lwsync)
            .minus(&Rel::cross(a.len(), a.writes(), a.reads()));
        a.fence_rel(Fence::Sync).union(&lwsync)
    }

    /// `rfe? ; r ; rfe?`: `r` itself without external reads-from.
    fn around_rfe(&self, r: &Rel) -> Rel {
        let rfe = self.a.rfe();
        if rfe.is_empty() {
            *r
        } else {
            rfe.opt().seq(r).seq(&rfe.opt())
        }
    }

    /// `thb = seed* ; (fre ∪ coe)* ; rfe?`.
    fn thb(&self, seed: Rel) -> Rel {
        let thb = seed.star().seq(&self.frecoe_star);
        let rfe = self.a.rfe();
        if rfe.is_empty() {
            thb
        } else {
            thb.seq(&rfe.opt())
        }
    }

    /// `hb = (rfe? ; ihb ; rfe?) ∪ weaklift(thb, stxn)`, given the first
    /// term. The lift relates two distinct transactions, so `thb` is
    /// asked for only when there are two.
    fn hb(&self, rfe_ihb_rfe: Rel, thb: impl FnOnce() -> Rel) -> Rel {
        if self.hl.contains(Highlights::THB) && self.a.exec().txns().len() > 1 {
            rfe_ihb_rfe.union(&weaklift(&thb(), self.a.stxn()))
        } else {
            rfe_ihb_rfe
        }
    }

    /// `prop = prop1 ∪ prop2 ∪ tprop1 ∪ tprop2`, where
    /// `prop1 = [W] ; efence ; hb* ; [W]`,
    /// `prop2 = come* ; efence* ; hb* ; (sync ∪ tfence) ; hb*`,
    /// `tprop1 = rfe ; stxn ; [W]` and `tprop2 = stxn ; rfe`;
    /// without `efence_star`, `prop2` reads `come* ; hb*` for
    /// `come* ; efence* ; hb*`.
    fn prop(&self, efence: &Rel, hbstar: &Rel, efence_star: bool) -> Rel {
        let a = self.a;
        let w = a.writes();
        let mut prop = efence.seq(hbstar).restrict_domain(w).restrict_range(w);
        let sync = a.fence_rel(Fence::Sync).union(&self.tfence);
        if !sync.is_empty() {
            let head = if efence_star {
                self.come_star.seq(&efence.star())
            } else {
                self.come_star
            };
            prop = prop.union(&head.seq(hbstar).seq(&sync).seq(hbstar));
        }
        // The tprops compose with `rfe`.
        let rfe = a.rfe();
        if rfe.is_empty() {
            return prop;
        }
        if self.hl.contains(Highlights::TPROP1) {
            prop = prop.union(&rfe.seq(a.stxn()).restrict_range(w));
        }
        if self.hl.contains(Highlights::TPROP2) {
            prop = prop.union(&a.stxn().seq(rfe));
        }
        prop
    }
}

impl Model for Power {
    fn name(&self) -> &'static str {
        if self.tm {
            "power-tm"
        } else {
            "power"
        }
    }

    fn arch(&self) -> Arch {
        Arch::Power
    }

    fn is_tm(&self) -> bool {
        self.tm
    }

    fn derived(&self, a: &ExecutionAnalysis<'_>) -> Derived {
        Power::fig6_derived(a, self.highlights())
    }

    fn axioms(&self, a: &ExecutionAnalysis<'_>, d: &Derived, c: &mut Checker) {
        Power::fig6_axioms(a, d, c, self.highlights());
    }

    fn consistent_analysis(&self, a: &ExecutionAnalysis<'_>) -> bool {
        Power::fig6_consistent(a, self.highlights())
    }

    fn prune_oracle(&self, _txns_known: bool) -> Option<&dyn PruneOracle> {
        Some(self)
    }

    /// Deleting a transaction `T` shrinks `stxn` and `tfence`, and with
    /// them every union, composition and closure of Fig. 6 built from
    /// them: `fence`, `ihb`, `thb`, `weaklift(thb, stxn)` (a weak lift
    /// needs transactions at both ends), `hb`, `efence`, the tprops and
    /// `prop`, so Order, Propagation and Observation hold. So does
    /// TxnCancelsRMW, as `rmw ∩ tfence⁺` shrinks. StrongIsol and
    /// TxnOrder lift `com` and `hb` strongly, and a lift gains only the
    /// edges inside `T`: a cycle through them shortcuts through `T`'s
    /// old lifted edges, and a cycle of them alone breaks Coherence or
    /// Order (the argument of [`X86`](crate::X86)'s declaration). Every
    /// highlight set keeps the argument, so every
    /// [`PowerAblated`](crate::PowerAblated) declares it too.
    fn survives_txn_deletion(&self) -> bool {
        true
    }
}

// The ppo fixpoint, hb, prop and the observation body are all monotone
// in (rf, co, fr); the transaction lifts are empty (weaklift) or
// subsumed by Order (stronglift of hb) while txns are unassigned.
impl PruneOracle for Power {
    fn viable(&self, a: &ExecutionAnalysis<'_>) -> bool {
        self.consistent_analysis(a)
    }

    fn coherence_gate(&self) -> bool {
        true
    }
    fn event_monotone(&self) -> bool {
        true // pairwise builtins and monotone compositions only
    }

    // Power's `ppo` fixpoint (rdw/detour/rfi feed it) and the prop /
    // observation bodies are not per-edge decomposable, so the plan is
    // an inexact pre-filter on the Order axiom: every relation of the
    // base analysis under-approximates its full-execution counterpart
    // (all are monotone in rf/co/fr), so `hb` on the base seeds the
    // detector and each external reads-from edge contributes the
    // `ihb ; rfe` and `rfe ; ihb` slices of `hb = rfe? ; ihb ; rfe?`.
    // A detector cycle is a definite Order violation; clean probes
    // fall back to the full check.
    fn delta_plan(&self, x: &Execution) -> Option<DeltaPlan> {
        let n = x.len();
        let base = ExecutionAnalysis::with_fr(x, Rel::empty(n));
        let rels = Power::relations(&base, self.highlights());
        let everything = EventSet::from_bits(u64::MAX);
        let mut plan = DeltaPlan::fallback(x, true);
        plan.obls.push(Obligation {
            seed: rels.hb,
            feed: vec![
                ComposeRule {
                    kind: EdgeKind::Rf,
                    sel: EdgeSel::External,
                    a_in: everything,
                    b_in: everything,
                    ctx: Some(rels.ihb.inverse()),
                    rctx: None,
                },
                ComposeRule {
                    kind: EdgeKind::Rf,
                    sel: EdgeSel::External,
                    a_in: everything,
                    b_in: everything,
                    ctx: None,
                    rctx: Some(rels.ihb),
                },
            ],
            lift: Lift::No,
        });
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::{ExecBuilder, Execution};

    /// Message passing with configurable strength on each side.
    fn mp(sync0: Option<Fence>, dep1: bool) -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        if let Some(f) = sync0 {
            b.fence(t0, f);
        }
        let wy = b.write(t0, 1);
        let t1 = b.new_thread();
        let ry = b.read(t1, 1);
        let rx = b.read(t1, 0);
        if dep1 {
            b.addr(ry, rx);
        }
        b.rf(wy, ry);
        b.build().unwrap()
    }

    #[test]
    fn mp_plain_allowed() {
        // Power reorders both the writes and the reads: plain MP is
        // observable.
        assert!(Power::base().consistent(&mp(None, false)));
    }

    #[test]
    fn mp_sync_dep_forbidden() {
        // sync on the writer plus an address dependency on the reader
        // restores order (the classic MP+sync+addr test).
        let x = mp(Some(Fence::Sync), true);
        let v = Power::base().check(&x);
        assert!(!v.is_consistent());
    }

    #[test]
    fn mp_lwsync_dep_forbidden() {
        let x = mp(Some(Fence::Lwsync), true);
        assert!(!Power::base().consistent(&x));
    }

    #[test]
    fn mp_half_strength_allowed() {
        // Fence without dependency, or dependency without fence: still
        // observable.
        assert!(Power::base().consistent(&mp(Some(Fence::Sync), false)));
        assert!(Power::base().consistent(&mp(None, true)));
    }

    #[test]
    fn mp_txn_both_forbidden_under_tm() {
        // Wrapping both sides in transactions orders everything: the
        // implicit boundary fences are not even needed — thb lifts the
        // communication into an hb cycle.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let wx = b.write(t0, 0);
        let wy = b.write(t0, 1);
        let t1 = b.new_thread();
        let ry = b.read(t1, 1);
        let rx = b.read(t1, 0);
        b.rf(wy, ry);
        b.txn(&[wx, wy]);
        b.txn(&[ry, rx]);
        let x = b.build().unwrap();
        assert!(Power::base().consistent(&x), "baseline ignores txns");
        let v = Power::tm().check(&x);
        assert!(!v.is_consistent());
    }

    #[test]
    fn lb_allowed() {
        // Load buffering: allowed by the Power model (though never
        // observed on hardware, §5.3).
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r0 = b.read(t0, 0);
        let w0 = b.write(t0, 1);
        let t1 = b.new_thread();
        let r1 = b.read(t1, 1);
        let w1 = b.write(t1, 0);
        b.rf(w0, r1);
        b.rf(w1, r0);
        let x = b.build().unwrap();
        assert!(Power::base().consistent(&x));
    }

    #[test]
    fn lb_deps_forbidden() {
        // LB with data dependencies on both sides: a thin-air cycle,
        // forbidden by Order (hb = ppo ∪ rfe chains).
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r0 = b.read(t0, 0);
        let w0 = b.write(t0, 1);
        b.data(r0, w0);
        let t1 = b.new_thread();
        let r1 = b.read(t1, 1);
        let w1 = b.write(t1, 0);
        b.data(r1, w1);
        b.rf(w0, r1);
        b.rf(w1, r0);
        let x = b.build().unwrap();
        assert!(!Power::base().consistent(&x));
    }

    /// §5.2 execution (1): WRC with the middle thread transactional.
    /// Forbidden via tprop1 (the integrated memory barrier).
    fn wrc_txn() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let t1 = b.new_thread();
        let bb = b.read(t1, 0);
        let c = b.write(t1, 1);
        let t2 = b.new_thread();
        let d = b.read(t2, 1);
        let e = b.read(t2, 0);
        b.addr(d, e); // the figure's ppo edge
        b.rf(a, bb);
        b.rf(c, d);
        // e reads the initial x: fr(e, a).
        b.txn(&[bb, c]);
        b.build().unwrap()
    }

    #[test]
    fn exec1_wrc_txn_forbidden() {
        let x = wrc_txn();
        let v = Power::tm().check(&x);
        assert!(!v.is_consistent(), "§5.2 (1) must be forbidden");
        assert!(v.violations().contains(&"Observation"));
        // Without the transaction the shape is plain WRC without the
        // writer's barrier: allowed.
        assert!(Power::base().consistent(&x.erase_txns()));
        assert!(Power::tm().consistent(&x.erase_txns()));
    }

    /// §5.2 execution (2): WRC with only the *first* writer
    /// transactional. Forbidden via tprop2 (multicopy-atomic
    /// transactional writes).
    fn wrc_txn_writer() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let t1 = b.new_thread();
        let bb = b.read(t1, 0);
        let c = b.write(t1, 1);
        b.addr(bb, c); // middle thread's ppo edge (b -> c)
        let t2 = b.new_thread();
        let d = b.read(t2, 1);
        let e = b.read(t2, 0);
        b.addr(d, e);
        b.rf(a, bb);
        b.rf(c, d);
        b.txn(&[a]);
        b.build().unwrap()
    }

    #[test]
    fn exec2_wrc_txn_writer_forbidden() {
        let x = wrc_txn_writer();
        let v = Power::tm().check(&x);
        assert!(!v.is_consistent(), "§5.2 (2) must be forbidden");
        assert!(v.violations().contains(&"Observation"));
        // Without the transaction: plain WRC with dependencies — on
        // non-multicopy-atomic Power this is allowed only when... it is
        // in fact forbidden only with a sync; with deps alone the A-
        // cumulativity is missing, so the baseline allows it.
        assert!(Power::base().consistent(&x.erase_txns()));
    }

    /// §5.2 execution (3): IRIW with the two writers transactional.
    fn iriw_txn(both: bool) -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let t1 = b.new_thread();
        let bb = b.read(t1, 0);
        let c = b.read(t1, 1);
        b.addr(bb, c);
        let t2 = b.new_thread();
        let d = b.read(t2, 1);
        let e = b.read(t2, 0);
        b.addr(d, e);
        let t3 = b.new_thread();
        let f = b.write(t3, 1);
        b.rf(a, bb);
        b.rf(f, d);
        // c reads initial y: fr(c, f); e reads initial x: fr(e, a).
        b.txn(&[a]);
        if both {
            b.txn(&[f]);
        }
        b.build().unwrap()
    }

    #[test]
    fn exec3_iriw_both_txn_forbidden() {
        let x = iriw_txn(true);
        let v = Power::tm().check(&x);
        assert!(!v.is_consistent(), "§5.2 (3) must be forbidden");
        assert!(
            v.violations().contains(&"Order"),
            "thb cycle shows up in Order"
        );
    }

    #[test]
    fn exec3_iriw_one_txn_allowed() {
        // §5.2: "a behaviour similar to (3) but with only one write
        // transactional was observed during our empirical testing, and
        // is duly allowed by our model."
        let x = iriw_txn(false);
        assert!(Power::tm().consistent(&x));
    }

    #[test]
    fn iriw_base_allowed() {
        let x = iriw_txn(true).erase_txns();
        assert!(Power::base().consistent(&x));
    }

    /// Remark 5.1: read-only transaction variants that the model
    /// deliberately permits (the Power manual is ambiguous).
    fn remark51_first() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let t1 = b.new_thread();
        let bb = b.read(t1, 0);
        let c = b.read(t1, 1);
        let t2 = b.new_thread();
        let _d = b.write(t2, 1);
        b.fence(t2, Fence::Sync);
        let e = b.read(t2, 0);
        b.rf(a, bb);
        // c reads initial y: fr(c, d); e reads initial x: fr(e, a).
        let _ = e;
        b.txn(&[bb, c]);
        b.build().unwrap()
    }

    fn remark51_second() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.write(t0, 0);
        let t1 = b.new_thread();
        let bb = b.read(t1, 0);
        let c = b.read(t1, 1);
        let t2 = b.new_thread();
        let _d = b.write(t2, 1);
        b.fence(t2, Fence::Sync);
        let e = b.write(t2, 0);
        b.rf(a, bb);
        // c reads initial y: fr(c, d); co: e before a.
        b.co(e, a);
        b.txn(&[bb, c]);
        b.build().unwrap()
    }

    #[test]
    fn remark51_read_only_txns_allowed() {
        assert!(Power::tm().consistent(&remark51_first()));
        assert!(Power::tm().consistent(&remark51_second()));
    }

    #[test]
    fn txn_cancels_rmw() {
        // §8.1's counterexample, left side: an rmw whose read and write
        // sit in two different transactions is forbidden...
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 0);
        b.rmw(r, w);
        b.txn(&[r]);
        b.txn(&[w]);
        let x = b.build().unwrap();
        let v = Power::tm().check(&x);
        assert!(v.violations().contains(&"TxnCancelsRMW"));
        // ...while the coalesced version (both in one transaction) is
        // consistent.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 0);
        b.rmw(r, w);
        b.txn(&[r, w]);
        let y = b.build().unwrap();
        assert!(Power::tm().consistent(&y));
    }

    #[test]
    fn rmw_straddling_one_boundary_forbidden() {
        // Read outside, write inside a transaction.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 0);
        b.rmw(r, w);
        b.txn(&[w]);
        let x = b.build().unwrap();
        assert!(!Power::tm().consistent(&x));
        assert!(Power::base().consistent(&x.erase_txns()));
    }

    #[test]
    fn ppo_includes_deps_not_plain_pairs() {
        let x = mp(None, true);
        let a = x.analysis();
        let ppo = Power::ppo(&a);
        // addr dependency ry -> rx preserved; plain write pair not.
        assert!(ppo.contains(2, 3));
        assert!(!ppo.contains(0, 1));
    }

    #[test]
    fn derived_names_are_pinned() {
        let x = wrc_txn();
        let names = |m: Power| m.derived(&x.analysis()).names().collect::<Vec<_>>();
        let base = [
            "ppo",
            "fence",
            "ihb",
            "thb",
            "propagation",
            "observation",
            "prop",
            "hb",
            "hbstar",
        ];
        assert_eq!(names(Power::base()), base);
        let mut tm = base.to_vec();
        tm.insert(7, "txnorder");
        assert_eq!(names(Power::tm()), tm);
    }

    #[test]
    fn tm_equals_base_without_txns() {
        for x in [
            mp(None, false),
            mp(Some(Fence::Sync), true),
            iriw_txn(true).erase_txns(),
        ] {
            assert_eq!(Power::base().consistent(&x), Power::tm().consistent(&x));
        }
    }
}
