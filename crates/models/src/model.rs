//! The [`Model`] trait, consistency [`Verdict`]s, and the axiom checker.
//!
//! A model implements one checking method, [`Model::axioms`]: it takes
//! the shared structure (`fr`, `com`, lifts, fence relations, ...) from
//! the [`ExecutionAnalysis`], which computes it once per execution
//! rather than once per model, derives its own relations (`hb`, `ob`,
//! `prop`, `psc`, ...) as local values, and asserts its consistency
//! axioms on a [`Checker`].
//!
//! Callers that check several models against one execution build a
//! single analysis and use [`Model::check_analysis`]; the convenience
//! [`Model::check`] builds a private analysis for one-off checks.

use txmm_core::incr::PruneOracle;
use txmm_core::{Execution, ExecutionAnalysis, Rel};

use crate::arch::Arch;

/// The outcome of checking one execution against one model.
///
/// A verdict lists the *names* of every violated axiom, so tools can
/// explain why an execution is forbidden (`txmm catalog` prints
/// these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    model: &'static str,
    violations: Vec<&'static str>,
}

impl Verdict {
    /// Did the execution satisfy every axiom?
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The names of the violated axioms (empty when consistent).
    pub fn violations(&self) -> &[&'static str] {
        &self.violations
    }

    /// The model that produced this verdict.
    #[cfg(test)]
    pub(crate) fn model(&self) -> &'static str {
        self.model
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_consistent() {
            write!(f, "{}: consistent", self.model)
        } else {
            write!(
                f,
                "{}: forbidden by {}",
                self.model,
                self.violations.join(", ")
            )
        }
    }
}

/// Accumulates axiom results while a model checks an execution.
#[derive(Debug)]
pub struct Checker {
    verdict: Verdict,
}

impl Checker {
    /// Start checking for the named model.
    pub fn new(model: &'static str) -> Checker {
        Checker {
            verdict: Verdict {
                model,
                violations: Vec::new(),
            },
        }
    }

    /// Assert `acyclic(r)` under the given axiom name.
    pub fn acyclic(&mut self, axiom: &'static str, r: &Rel) -> &mut Self {
        if !r.is_acyclic() {
            self.verdict.violations.push(axiom);
        }
        self
    }

    /// Assert `irreflexive(r)`.
    pub fn irreflexive(&mut self, axiom: &'static str, r: &Rel) -> &mut Self {
        if !r.is_irreflexive() {
            self.verdict.violations.push(axiom);
        }
        self
    }

    /// Assert `empty(r)`.
    pub fn empty(&mut self, axiom: &'static str, r: &Rel) -> &mut Self {
        if !r.is_empty() {
            self.verdict.violations.push(axiom);
        }
        self
    }

    /// Assert an axiom decided elsewhere (e.g. Coherence, which an
    /// analysis decides once per rf/co group).
    pub(crate) fn require(&mut self, axiom: &'static str, holds: bool) -> &mut Self {
        if !holds {
            self.verdict.violations.push(axiom);
        }
        self
    }

    /// Record a violation directly. Adapters wrapping externally
    /// evaluated models (the `.cat` backend of the unified registry)
    /// translate their own failed checks through this.
    pub fn fail(&mut self, axiom: &'static str) -> &mut Self {
        self.verdict.violations.push(axiom);
        self
    }

    /// The final verdict.
    pub fn finish(self) -> Verdict {
        self.verdict
    }
}

/// An axiomatic memory model: a consistency predicate over executions.
///
/// `Send + Sync` so registries of `Box<dyn Model>` (and the `Session`s
/// owning them) can move into worker threads of a sharded serving pool.
pub trait Model: Send + Sync {
    /// A short, unique name (e.g. `"x86-tm"`).
    fn name(&self) -> &'static str;

    /// The architecture or language this model describes.
    fn arch(&self) -> Arch;

    /// Does this model interpret transactions? Baseline (non-TM) models
    /// ignore `stxn` entirely.
    fn is_tm(&self) -> bool;

    /// Assert every axiom, in order, over the shared analysis and the
    /// model's own relations derived from it. Models must take
    /// `fr`/`com`/lift/fence structure from the analysis rather than
    /// re-deriving it.
    fn axioms(&self, a: &ExecutionAnalysis<'_>, c: &mut Checker);

    /// Check against a shared analysis (the fast path when several
    /// models look at one execution).
    fn check_analysis(&self, a: &ExecutionAnalysis<'_>) -> Verdict {
        let mut c = Checker::new(self.name());
        self.axioms(a, &mut c);
        c.finish()
    }

    /// Check every axiom and report which failed.
    fn check(&self, x: &Execution) -> Verdict {
        self.check_analysis(&x.analysis())
    }

    /// Convenience: is the execution consistent?
    fn consistent(&self, x: &Execution) -> bool {
        self.consistent_analysis(&x.analysis())
    }

    /// Consistency against a shared analysis: exactly
    /// `check_analysis(a).is_consistent()`. A model may override it
    /// with a bool-only evaluation of the same axioms that stops at the
    /// first failure (Power does).
    fn consistent_analysis(&self, a: &ExecutionAnalysis<'_>) -> bool {
        self.check_analysis(a).is_consistent()
    }

    /// A conservative viability oracle over *partial* executions, or
    /// `None` when the model cannot vouch for one (pruning then
    /// degrades to plain enumeration — always sound).
    ///
    /// `txns_known` says whether the candidate's transaction classes
    /// are already fixed. When they are still to be chosen
    /// (`txns_known == false`, the enumerator's rf/co stage), an
    /// oracle must ignore — or be insensitive to — every
    /// transaction-derived relation, since `stxn` can only grow.
    ///
    /// The native models are monotone in `(rf, co, fr)` with the
    /// structure fixed, so their full axiom check *is* a valid oracle
    /// in both modes; `.cat` backends derive a filtered program (see
    /// `txmm-cat`'s prune module). Default: no oracle.
    fn prune_oracle(&self, txns_known: bool) -> Option<&dyn PruneOracle> {
        let _ = txns_known;
        None
    }

    /// Whether consistency survives deleting any one whole transaction:
    /// when an execution is consistent, so is every execution that
    /// differs from it only by one transaction class fewer (the other
    /// classes kept as they are). A leaf checker then infers most of a
    /// group's layout verdicts from the others.
    ///
    /// Declared in code by each model, with its argument, and never
    /// settable by a user: a false `true` makes inferred verdicts
    /// wrong. It is not the §8.1 monotonicity, which enlarges and
    /// coalesces transactions (and fails for Power and ARMv8). Default
    /// `false` (always sound).
    fn survives_txn_deletion(&self) -> bool {
        false
    }
}

/// Consistency of a `(m, n)` model pair on one execution over one
/// shared analysis (the model-difference search's inner loop).
pub fn consistent_pair(m: &dyn Model, n: &dyn Model, x: &Execution) -> (bool, bool) {
    let a = x.analysis();
    (m.consistent_analysis(&a), n.consistent_analysis(&a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accumulates() {
        let mut c = Checker::new("demo");
        let cyc = Rel::from_pairs(2, [(0, 1), (1, 0)]);
        let ok = Rel::from_pairs(2, [(0, 1)]);
        c.acyclic("A1", &cyc);
        c.acyclic("A2", &ok);
        c.empty("A3", &ok);
        c.irreflexive("A4", &Rel::from_pairs(2, [(1, 1)]));
        let v = c.finish();
        assert!(!v.is_consistent());
        assert_eq!(v.violations(), ["A1", "A3", "A4"]);
        assert_eq!(v.model(), "demo");
    }

    #[test]
    fn verdict_display() {
        let c = Checker::new("demo");
        let v = c.finish();
        assert_eq!(v.to_string(), "demo: consistent");
        let mut c = Checker::new("demo");
        c.empty("Ax", &Rel::from_pairs(1, [(0, 0)]));
        assert_eq!(c.finish().to_string(), "demo: forbidden by Ax");
    }
}
