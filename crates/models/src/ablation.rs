//! Ablation variants of the transactional Power model (Fig. 6): each
//! variant drops one of the paper's TM additions, and a test shows
//! exactly which paper execution that addition is responsible for
//! forbidding. This is the per-axiom justification of §5.2 in
//! executable form.

use txmm_core::ExecutionAnalysis;

use crate::arch::Arch;
use crate::model::{Checker, Model};
use crate::power::{Highlights, Power};

/// Which Fig. 6 highlight to drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerAblation {
    /// Drop `tprop1 = rfe ; stxn ; [W]` (the integrated memory barrier).
    NoTprop1,
    /// Drop `tprop2 = stxn ; rfe` (multicopy-atomic transactional
    /// stores).
    NoTprop2,
    /// Drop `weaklift(thb, stxn)` from happens-before (transaction
    /// serialisation).
    NoThb,
    /// Drop `TxnCancelsRMW`.
    NoTxnCancelsRmw,
    /// Drop the implicit boundary fences (`tfence` stays out of `fence`
    /// and `prop2`).
    NoTfence,
}

impl PowerAblation {
    /// The highlight this ablation drops.
    fn dropped(self) -> Highlights {
        match self {
            PowerAblation::NoTprop1 => Highlights::TPROP1,
            PowerAblation::NoTprop2 => Highlights::TPROP2,
            PowerAblation::NoThb => Highlights::THB,
            PowerAblation::NoTxnCancelsRmw => Highlights::TXN_CANCELS_RMW,
            PowerAblation::NoTfence => Highlights::TFENCE,
        }
    }
}

/// The transactional Power model with one highlight removed: the Fig. 6
/// body of [`Power`] over every highlight but the dropped one.
#[derive(Debug, Clone, Copy)]
pub struct PowerAblated {
    /// The dropped axiom/relation.
    pub drop: PowerAblation,
}

impl PowerAblated {
    fn highlights(&self) -> Highlights {
        Highlights::ALL.without(self.drop.dropped())
    }
}

impl Model for PowerAblated {
    fn name(&self) -> &'static str {
        match self.drop {
            PowerAblation::NoTprop1 => "power-tm-no-tprop1",
            PowerAblation::NoTprop2 => "power-tm-no-tprop2",
            PowerAblation::NoThb => "power-tm-no-thb",
            PowerAblation::NoTxnCancelsRmw => "power-tm-no-txncancelsrmw",
            PowerAblation::NoTfence => "power-tm-no-tfence",
        }
    }

    fn arch(&self) -> Arch {
        Arch::Power
    }

    fn is_tm(&self) -> bool {
        true
    }

    fn axioms(&self, a: &ExecutionAnalysis<'_>, c: &mut Checker) {
        Power::fig6_axioms(a, c, self.highlights());
    }

    fn consistent_analysis(&self, a: &ExecutionAnalysis<'_>) -> bool {
        Power::fig6_consistent(a, self.highlights())
    }

    /// Dropping a highlight drops terms, and each kept term obeys
    /// [`Power`]'s argument on its own.
    fn survives_txn_deletion(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn full_model_agrees_with_no_op_reconstruction() {
        // Sanity: the ablation scaffold with nothing dropped... we don't
        // have a "drop nothing" variant, so check each variant still
        // forbids the executions its axiom is NOT responsible for.
        let x = catalog::power_exec3(true); // forbidden via thb
        assert!(!PowerAblated {
            drop: PowerAblation::NoTprop1
        }
        .consistent(&x));
        assert!(!PowerAblated {
            drop: PowerAblation::NoTprop2
        }
        .consistent(&x));
    }

    const ALL_DROPS: [PowerAblation; 5] = [
        PowerAblation::NoTprop1,
        PowerAblation::NoTprop2,
        PowerAblation::NoThb,
        PowerAblation::NoTxnCancelsRmw,
        PowerAblation::NoTfence,
    ];

    #[test]
    fn memoised_parts_are_shared_by_every_variant() {
        // `power`, `power-tm` and the ablations memoise under the same
        // keys: one shared analysis, checked by every variant in either
        // order, gives each the verdict of a private analysis.
        let mut models: Vec<Box<dyn Model>> = vec![Box::new(Power::tm()), Box::new(Power::base())];
        for drop in ALL_DROPS {
            models.push(Box::new(PowerAblated { drop }));
        }
        for entry in catalog::all() {
            let x = &entry.exec;
            let private: Vec<_> = models.iter().map(|m| m.check(x)).collect();
            let forward = x.analysis();
            let backward = x.analysis();
            for (i, m) in models.iter().enumerate() {
                assert_eq!(m.check_analysis(&forward), private[i], "{}", entry.name);
            }
            for (i, m) in models.iter().enumerate().rev() {
                assert_eq!(m.check_analysis(&backward), private[i], "{}", entry.name);
            }
        }
    }

    #[test]
    fn tprop1_is_what_forbids_exec1() {
        // §5.2 (1): the integrated memory barrier. Dropping tprop1
        // admits the WRC execution; every other ablation keeps it
        // forbidden.
        let x = catalog::power_exec1();
        assert!(!Power::tm().consistent(&x));
        assert!(PowerAblated {
            drop: PowerAblation::NoTprop1
        }
        .consistent(&x));
        for drop in [
            PowerAblation::NoTprop2,
            PowerAblation::NoThb,
            PowerAblation::NoTxnCancelsRmw,
        ] {
            assert!(
                !PowerAblated { drop }.consistent(&x),
                "{drop:?} should not affect exec (1)"
            );
        }
    }

    #[test]
    fn tprop2_is_what_forbids_exec2() {
        // §5.2 (2): multicopy-atomic transactional stores.
        let x = catalog::power_exec2();
        assert!(!Power::tm().consistent(&x));
        assert!(PowerAblated {
            drop: PowerAblation::NoTprop2
        }
        .consistent(&x));
        for drop in [PowerAblation::NoTprop1, PowerAblation::NoThb] {
            assert!(
                !PowerAblated { drop }.consistent(&x),
                "{drop:?} should not affect exec (2)"
            );
        }
    }

    #[test]
    fn thb_is_what_forbids_exec3() {
        // §5.2 (3): transaction serialisation (IRIW between txns).
        let x = catalog::power_exec3(true);
        assert!(!Power::tm().consistent(&x));
        assert!(PowerAblated {
            drop: PowerAblation::NoThb
        }
        .consistent(&x));
        for drop in [PowerAblation::NoTprop1, PowerAblation::NoTprop2] {
            assert!(
                !PowerAblated { drop }.consistent(&x),
                "{drop:?} should not affect exec (3)"
            );
        }
    }

    #[test]
    fn txncancelsrmw_is_what_forbids_split_rmw() {
        let x = catalog::rmw_txn(true);
        assert!(!Power::tm().consistent(&x));
        assert!(PowerAblated {
            drop: PowerAblation::NoTxnCancelsRmw
        }
        .consistent(&x));
        assert!(!PowerAblated {
            drop: PowerAblation::NoTprop1
        }
        .consistent(&x));
    }

    #[test]
    fn tfence_is_what_orders_boundaries() {
        // MP with a transactional flag write and a dependent reader: the
        // boundary fence is what orders the data write before the
        // transaction.
        use txmm_core::ExecBuilder;
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _wx = b.write(t0, 0);
        let wy = b.write(t0, 1);
        b.txn(&[wy]);
        let t1 = b.new_thread();
        let ry = b.read(t1, 1);
        let rx = b.read(t1, 0);
        b.addr(ry, rx);
        b.rf(wy, ry);
        let x = b.build().unwrap();
        assert!(
            !Power::tm().consistent(&x),
            "full model forbids (boundary fence)"
        );
        assert!(
            PowerAblated {
                drop: PowerAblation::NoTfence
            }
            .consistent(&x),
            "without tfence the writes propagate independently"
        );
    }
}
