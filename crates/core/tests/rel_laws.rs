//! Property-style tests pinning down the relational-algebra laws the
//! `[Row; MAX_EVENTS]` inline representation must satisfy. Relations
//! are sampled with a deterministic xorshift generator, so any failure
//! reproduces from its printed seed.

use txmm_core::rng::SplitMix64;
use txmm_core::{
    stronglift, union_all, weaklift, EventSet, Execution, PackedExecution, Rel, MAX_EVENTS,
};

const CASES: u64 = 256;

/// A random relation over `n` events with roughly `density`/8 of pairs.
fn arb_rel(rng: &mut SplitMix64, n: usize, density: usize) -> Rel {
    let mut r = Rel::empty(n);
    for a in 0..n {
        for b in 0..n {
            if rng.below(8) < density {
                r.add(a, b);
            }
        }
    }
    r
}

fn arb_set(rng: &mut SplitMix64, n: usize) -> EventSet {
    EventSet::from_iter((0..n).filter(|_| rng.below(2) == 0))
}

fn sizes(seed: u64) -> usize {
    // Cover every execution size the paper uses (≤ 9) plus the
    // bit-matrix edge cases at the row-width boundary.
    const NS: [usize; 8] = [1, 2, 3, 5, 7, 9, MAX_EVENTS - 1, MAX_EVENTS];
    NS[(seed % NS.len() as u64) as usize]
}

#[test]
fn composition_is_associative() {
    for seed in 0..CASES {
        let n = sizes(seed);
        let mut rng = SplitMix64::seed_from_u64(seed);
        let a = arb_rel(&mut rng, n, 2);
        let b = arb_rel(&mut rng, n, 2);
        let c = arb_rel(&mut rng, n, 2);
        assert_eq!(a.seq(&b).seq(&c), a.seq(&b.seq(&c)), "seed {seed} n {n}");
        // Identity is neutral for composition.
        let id = Rel::id(n);
        assert_eq!(a.seq(&id), a, "seed {seed}");
        assert_eq!(id.seq(&a), a, "seed {seed}");
    }
}

#[test]
fn closures_are_idempotent_fixpoints() {
    for seed in 0..CASES {
        let n = sizes(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x1111);
        let a = arb_rel(&mut rng, n, 2);
        let p = a.plus();
        // Idempotence.
        assert_eq!(p.plus(), p, "seed {seed}");
        assert_eq!(a.star().star(), a.star(), "seed {seed}");
        assert_eq!(a.opt().opt(), a.opt(), "seed {seed}");
        // plus is the least fixpoint of X = a ∪ (a ; X).
        assert_eq!(p, a.union(&a.seq(&p)), "seed {seed}");
        // star = plus? and contains the identity.
        assert_eq!(a.star(), p.opt(), "seed {seed}");
        assert!(Rel::id(n).is_subset(&a.star()), "seed {seed}");
        // Closures only grow and stay transitive.
        assert!(a.is_subset(&p), "seed {seed}");
        assert!(p.is_transitive(), "seed {seed}");
        // acyclic(a) ⟺ irreflexive(a⁺).
        assert_eq!(a.is_acyclic(), p.is_irreflexive(), "seed {seed}");
    }
}

#[test]
fn id_on_and_cross_interactions() {
    for seed in 0..CASES {
        let n = sizes(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x2222);
        let a = arb_rel(&mut rng, n, 3);
        let s = arb_set(&mut rng, n);
        let t = arb_set(&mut rng, n);
        // [s] ; a ; [t] is exactly domain/range restriction.
        assert_eq!(
            Rel::id_on(n, s).seq(&a).seq(&Rel::id_on(n, t)),
            a.restrict_domain(s).restrict_range(t),
            "seed {seed}"
        );
        // [s] ; [t] = [s ∩ t].
        assert_eq!(
            Rel::id_on(n, s).seq(&Rel::id_on(n, t)),
            Rel::id_on(n, s.inter(t)),
            "seed {seed}"
        );
        // (s × t)⁻¹ = t × s.
        assert_eq!(
            Rel::cross(n, s, t).inverse(),
            Rel::cross(n, t, s),
            "seed {seed}"
        );
        // (s × t) ; (t' × u) = s × u whenever t ∩ t' ≠ ∅.
        let u = arb_set(&mut rng, n);
        let lhs = Rel::cross(n, s, t).seq(&Rel::cross(n, t, u));
        if t.is_empty() || t.inter(EventSet::universe(n)).is_empty() {
            assert!(lhs.is_empty(), "seed {seed}");
        } else {
            assert_eq!(lhs, Rel::cross(n, s, u), "seed {seed}");
        }
        // domain/range duality through inverse.
        assert_eq!(a.inverse().domain(), a.range(), "seed {seed}");
        assert_eq!(a.inverse().range(), a.domain(), "seed {seed}");
    }
}

#[test]
fn inverse_is_an_involution() {
    for seed in 0..CASES {
        let n = sizes(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x3333);
        let a = arb_rel(&mut rng, n, 3);
        let b = arb_rel(&mut rng, n, 3);
        assert_eq!(a.inverse().inverse(), a, "seed {seed}");
        // Contravariance over composition, covariance over union.
        assert_eq!(
            a.seq(&b).inverse(),
            b.inverse().seq(&a.inverse()),
            "seed {seed}"
        );
        assert_eq!(
            a.union(&b).inverse(),
            a.inverse().union(&b.inverse()),
            "seed {seed}"
        );
        assert_eq!(a.len(), a.inverse().len(), "seed {seed}");
    }
}

#[test]
fn boolean_algebra_laws() {
    for seed in 0..CASES {
        let n = sizes(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x4444);
        let a = arb_rel(&mut rng, n, 3);
        let b = arb_rel(&mut rng, n, 3);
        // Complement involution and De Morgan.
        assert_eq!(a.complement().complement(), a, "seed {seed}");
        assert_eq!(
            a.union(&b).complement(),
            a.complement().inter(&b.complement()),
            "seed {seed}"
        );
        // Difference via complement.
        assert_eq!(a.minus(&b), a.inter(&b.complement()), "seed {seed}");
        // Union/intersection idempotence and absorption.
        assert_eq!(a.union(&a), a, "seed {seed}");
        assert_eq!(a.inter(&a), a, "seed {seed}");
        assert_eq!(a.union(&a.inter(&b)), a, "seed {seed}");
        // Composition distributes over union.
        assert_eq!(
            a.seq(&b.union(&a)),
            a.seq(&b).union(&a.seq(&a)),
            "seed {seed}"
        );
        // union_all agrees with folded union.
        assert_eq!(union_all(n, [&a, &b]), a.union(&b), "seed {seed}");
    }
}

#[test]
fn lift_laws() {
    for seed in 0..CASES {
        let n = sizes(seed).min(9); // lifts only ever see paper-sized universes
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5555);
        let r = arb_rel(&mut rng, n, 3);
        // A transaction-shaped equivalence: cross of a random class.
        let class = arb_set(&mut rng, n);
        let t = Rel::cross(n, class, class);
        let weak = weaklift(&r, &t);
        let strong = stronglift(&r, &t);
        assert!(
            weak.is_subset(&strong),
            "seed {seed}: weaklift ⊆ stronglift"
        );
        // Lifting the empty relation is empty.
        assert!(weaklift(&Rel::empty(n), &t).is_empty(), "seed {seed}");
        assert!(stronglift(&Rel::empty(n), &t).is_empty(), "seed {seed}");
        // With no transactions, weaklift is empty and stronglift is r.
        let none = Rel::empty(n);
        assert!(weaklift(&r, &none).is_empty(), "seed {seed}");
        assert_eq!(stronglift(&r, &none), r.minus(&none), "seed {seed}");
    }
}

#[test]
fn max_universe_boundary() {
    // The inline-array representation must behave at n = MAX_EVENTS.
    let full = Rel::full(MAX_EVENTS);
    assert_eq!(full.len(), MAX_EVENTS * MAX_EVENTS);
    assert!(full.complement().is_empty());
    assert_eq!(full.complement().complement(), full);
    let id = Rel::id(MAX_EVENTS);
    assert!(id.is_subset(&full));
    assert_eq!(full.seq(&full), full);
    assert!(!full.is_acyclic());
    assert_eq!(id.inverse(), id);
}

#[test]
fn kernel_types_stay_right_sized() {
    // Every model check builds and copies relations by value, and the
    // arena stores packed executions inline: growing these types makes
    // every temporary and every interned execution dearer. Raise a
    // bound only together with MAX_EVENTS or the row width.
    assert!(std::mem::size_of::<Rel>() <= 34, "Rel grew");
    assert!(std::mem::size_of::<Execution>() <= 312, "Execution grew");
    assert!(
        std::mem::size_of::<PackedExecution>() <= 592,
        "PackedExecution grew"
    );
}
