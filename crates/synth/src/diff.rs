//! Model-difference search: Memalloy's original mode (§4).
//!
//! Given two models `M` and `N`, find executions that are inconsistent
//! under `M` but consistent under `N` — the seed operation behind axiom
//! refinement (§4.1).
//!
//! Both searches are one [`Walk::search`]: candidates are checked on
//! whichever worker enumerates them, and witnesses come back in
//! emission order, the same at every worker count.

use txmm_core::Execution;
use txmm_models::{consistent_pair, Model};

use crate::walk::{Probe, Walk};

/// Executions of `walk` distinguishing `m` (forbids) from `n` (allows);
/// keeps the first `limit` witnesses (in emission order) when given.
pub fn distinguish(
    walk: &Walk,
    m: &dyn Model,
    n: &dyn Model,
    limit: Option<usize>,
) -> Vec<Execution> {
    let mut found = walk
        .search(
            None,
            |_| (),
            |x, _| match consistent_pair(m, n, x) {
                (false, true) => Probe::Hit(x.clone()),
                _ => Probe::Pass,
            },
        )
        .hits;
    if let Some(l) = limit {
        found.truncate(l);
    }
    found
}

/// Are the two models equivalent on every execution of `walk`? The
/// first disagreement stops the search.
pub fn equivalent(walk: &Walk, m: &dyn Model, n: &dyn Model) -> bool {
    walk.search(
        None,
        |_| (),
        |x, _| {
            let (mc, nc) = consistent_pair(m, n, x);
            if mc == nc {
                Probe::Pass
            } else {
                Probe::Stop(())
            }
        },
    )
    .hits
    .is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnumConfig;
    use txmm_core::canon::canon_key;
    use txmm_models::{Arch, Sc, Tsc, X86};

    /// A two-thread, two-location space with no dependencies or
    /// attributes.
    fn space(arch: Arch, events: usize, fences: bool, rmws: bool, txns: bool) -> EnumConfig {
        EnumConfig {
            arch,
            events,
            max_threads: 2,
            max_locs: 2,
            fences,
            deps: false,
            rmws,
            txns,
            attrs: false,
            atomic_txns: false,
        }
    }

    #[test]
    fn sc_vs_tsc_differ_only_with_txns() {
        let cfg = space(Arch::Sc, 3, false, false, true);
        let found = distinguish(&Walk::new(&cfg), &Tsc, &Sc, Some(5));
        assert!(!found.is_empty());
        for x in &found {
            assert!(
                !x.txns().is_empty(),
                "SC = TSC on transaction-free executions"
            );
        }
    }

    #[test]
    fn sc_stronger_than_x86() {
        // SC forbids store buffering; x86 allows it.
        let cfg = space(Arch::X86, 4, false, false, false);
        let walk = Walk::new(&cfg);
        let found = distinguish(&walk, &Sc, &X86::base(), Some(1));
        assert!(!found.is_empty());
        // The reverse direction finds nothing: x86 never forbids what SC
        // allows.
        let rev = distinguish(&walk, &X86::base(), &Sc, Some(1));
        assert!(rev.is_empty());
    }

    #[test]
    fn model_self_equivalence() {
        let cfg = space(Arch::X86, 3, true, true, false);
        let walk = Walk::new(&cfg);
        assert!(equivalent(&walk, &X86::base(), &X86::base()));
        assert!(
            equivalent(&walk, &X86::base(), &X86::tm()),
            "equal without transactions"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = space(Arch::Sc, 3, false, false, true);
        let par_walk = Walk::new(&cfg).workers(3);
        let seq_walk = Walk::new(&cfg).workers(1);
        let par: Vec<_> = distinguish(&par_walk, &Tsc, &Sc, None)
            .iter()
            .map(canon_key)
            .collect();
        let seq: Vec<_> = distinguish(&seq_walk, &Tsc, &Sc, None)
            .iter()
            .map(canon_key)
            .collect();
        assert_eq!(par, seq, "same witnesses in the same enumeration order");
        // Limits truncate the same prefix.
        let par2: Vec<_> = distinguish(&par_walk, &Tsc, &Sc, Some(3))
            .iter()
            .map(canon_key)
            .collect();
        assert_eq!(par2, seq[..3]);
        assert_eq!(
            equivalent(&par_walk, &Tsc, &Sc),
            equivalent(&seq_walk, &Tsc, &Sc)
        );
        assert_eq!(
            equivalent(&par_walk, &Sc, &Sc),
            equivalent(&seq_walk, &Sc, &Sc)
        );
    }
}
