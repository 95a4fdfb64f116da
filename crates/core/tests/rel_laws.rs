//! Property-style tests pinning down the relational-algebra laws the
//! blocked `Rel` layout (a 2×2 matrix of 8×8 bit blocks, one `u64`
//! each) must satisfy, plus a differential of every public `Rel`
//! operation against a naive pair-set model. Relations are sampled with
//! the deterministic SplitMix64 generator over every universe size
//! `1..=MAX_EVENTS`, block boundaries included, so any failure
//! reproduces from its printed seed.

use std::collections::BTreeSet;

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
    // Every universe size in turn: the paper's (≤ 9), the one-block
    // relations (≤ 8), the first two-block size (9) and the cap.
    (seed % MAX_EVENTS as u64) as usize + 1
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
        let n = sizes(seed);
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
    // The full, identity and closure edge cases at the block boundary
    // (8 and 9 events) and at n = MAX_EVENTS.
    for n in [8, 9, MAX_EVENTS] {
        let full = Rel::full(n);
        assert_eq!(full.len(), n * n);
        assert!(full.complement().is_empty());
        assert_eq!(full.complement().complement(), full);
        let id = Rel::id(n);
        assert!(id.is_subset(&full));
        assert_eq!(full.seq(&full), full);
        assert!(!full.is_acyclic());
        assert_eq!(id.inverse(), id);
        // A path through every event, closed: its closure is full.
        let path = Rel::from_pairs(n, (1..n).map(|e| (e - 1, e)));
        assert!(path.is_acyclic());
        assert_eq!(path.plus().len(), n * (n - 1) / 2);
        let mut cycle = path;
        cycle.add(n - 1, 0);
        assert!(!cycle.is_acyclic());
        assert_eq!(cycle.plus(), full);
    }
}

#[test]
fn kernel_types_stay_right_sized() {
    // Every model check builds and copies relations by value, and the
    // arena stores packed executions inline: growing these types makes
    // every temporary and every interned execution dearer. Raise a
    // bound only together with MAX_EVENTS or the block layout.
    assert!(std::mem::size_of::<Rel>() <= 40, "Rel grew");
    assert!(std::mem::size_of::<Execution>() <= 352, "Execution grew");
    assert!(
        std::mem::size_of::<PackedExecution>() <= 640,
        "PackedExecution grew"
    );
}

// ---- Differential against a pair-set model ------------------------------

/// The independent side of the kernel differential: a relation as the
/// plain set of its pairs, each operation written from its definition.
#[derive(Clone, Debug, PartialEq)]
struct Pairs {
    n: usize,
    s: BTreeSet<(usize, usize)>,
}

impl Pairs {
    fn from_fn(n: usize, f: impl Fn(usize, usize) -> bool) -> Pairs {
        let s = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| f(a, b))
            .collect();
        Pairs { n, s }
    }

    fn has(&self, a: usize, b: usize) -> bool {
        self.s.contains(&(a, b))
    }

    fn id_on(n: usize, s: EventSet) -> Pairs {
        Pairs::from_fn(n, |a, b| a == b && s.contains(a))
    }

    fn cross(n: usize, x: EventSet, y: EventSet) -> Pairs {
        Pairs::from_fn(n, |a, b| x.contains(a) && y.contains(b))
    }

    fn union(&self, o: &Pairs) -> Pairs {
        Pairs::from_fn(self.n, |a, b| self.has(a, b) || o.has(a, b))
    }

    fn inter(&self, o: &Pairs) -> Pairs {
        Pairs::from_fn(self.n, |a, b| self.has(a, b) && o.has(a, b))
    }

    fn minus(&self, o: &Pairs) -> Pairs {
        Pairs::from_fn(self.n, |a, b| self.has(a, b) && !o.has(a, b))
    }

    fn complement(&self) -> Pairs {
        Pairs::from_fn(self.n, |a, b| !self.has(a, b))
    }

    fn inverse(&self) -> Pairs {
        Pairs::from_fn(self.n, |a, b| self.has(b, a))
    }

    fn seq(&self, o: &Pairs) -> Pairs {
        Pairs::from_fn(self.n, |a, c| {
            (0..self.n).any(|b| self.has(a, b) && o.has(b, c))
        })
    }

    fn opt(&self) -> Pairs {
        Pairs::from_fn(self.n, |a, b| a == b || self.has(a, b))
    }

    /// The least fixpoint of `X = r ∪ X;X`, by iteration.
    fn plus(&self) -> Pairs {
        let mut p = self.clone();
        loop {
            let q = p.union(&p.seq(&p));
            if q == p {
                return p;
            }
            p = q;
        }
    }

    fn irreflexive(&self) -> bool {
        (0..self.n).all(|e| !self.has(e, e))
    }

    fn row(&self, a: usize) -> EventSet {
        EventSet::from_iter((0..self.n).filter(|&b| self.has(a, b)))
    }

    fn col(&self, b: usize) -> EventSet {
        EventSet::from_iter((0..self.n).filter(|&a| self.has(a, b)))
    }

    fn subset(&self, o: &Pairs) -> bool {
        self.s.is_subset(&o.s)
    }

    fn total_order_on(&self, s: EventSet) -> bool {
        let m: Vec<usize> = s.iter().collect();
        let irreflexive = m.iter().all(|&a| !self.has(a, a));
        let total = m.iter().all(|&a| {
            m.iter()
                .all(|&b| a == b || self.has(a, b) != self.has(b, a))
        });
        let transitive = m.iter().all(|&a| {
            m.iter().all(|&b| {
                m.iter()
                    .all(|&c| !(self.has(a, b) && self.has(b, c)) || self.has(a, c))
            })
        });
        irreflexive && total && transitive
    }

    fn display(&self) -> String {
        let pairs: Vec<String> = self.s.iter().map(|(a, b)| format!("({a},{b})")).collect();
        format!("{{{}}}", pairs.join(", "))
    }
}

/// A random relation and its model, with roughly `density`/8 of pairs.
fn arb_pair(rng: &mut SplitMix64, n: usize, density: usize) -> (Rel, Pairs) {
    let s: BTreeSet<_> = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .filter(|_| rng.below(8) < density)
        .collect();
    (Rel::from_pairs(n, s.iter().copied()), Pairs { n, s })
}

/// `r` and `m` denote the same relation, and `r` has no bit outside its
/// `n × n` square.
fn same(r: &Rel, m: &Pairs, what: &str) {
    assert_eq!(r.size(), m.n, "{what}: size");
    let want: Vec<_> = m.s.iter().copied().collect();
    assert_eq!(r.pairs().collect::<Vec<_>>(), want, "{what}: pairs");
    assert_eq!(r.len(), m.s.len(), "{what}: len");
    assert_eq!(r.is_empty(), m.s.is_empty(), "{what}: is_empty");
    for a in 0..=m.n {
        for b in 0..=m.n {
            assert_eq!(r.contains(a, b), m.has(a, b), "{what}: contains({a},{b})");
        }
    }
    // Equality is derived over every block, so a stray bit outside the
    // square makes this fail.
    assert_eq!(
        *r,
        Rel::from_pairs(m.n, want),
        "{what}: bits outside the square"
    );
}

#[test]
fn every_operation_matches_the_pair_set_model() {
    for n in 1..=MAX_EVENTS {
        for seed in 0..12u64 {
            let mut rng = SplitMix64::seed_from_u64(seed ^ ((n as u64) << 32));
            let density = 1 + (seed as usize % 4);
            let (a, ma) = arb_pair(&mut rng, n, density);
            let (b, mb) = arb_pair(&mut rng, n, density);
            let (c, mc) = arb_pair(&mut rng, n, 2);
            let s = arb_set(&mut rng, n);
            let t = arb_set(&mut rng, n);
            let at = |op: &str| format!("n {n} seed {seed}: {op}");

            same(
                &Rel::empty(n),
                &Pairs::from_fn(n, |_, _| false),
                &at("empty"),
            );
            same(&Rel::full(n), &Pairs::from_fn(n, |_, _| true), &at("full"));
            same(&Rel::id(n), &Pairs::from_fn(n, |x, y| x == y), &at("id"));
            same(&Rel::id_on(n, s), &Pairs::id_on(n, s), &at("id_on"));
            same(&Rel::cross(n, s, t), &Pairs::cross(n, s, t), &at("cross"));
            // Sets may carry members past the universe; they are ignored.
            let wide = s.union(EventSet::from_bits(u64::MAX << n));
            same(
                &Rel::id_on(n, wide),
                &Pairs::id_on(n, s),
                &at("id_on past n"),
            );
            same(
                &Rel::cross(n, wide, wide),
                &Pairs::cross(n, s, s),
                &at("cross past n"),
            );

            same(&a, &ma, &at("from_pairs"));
            same(&a.union(&b), &ma.union(&mb), &at("union"));
            same(&a.inter(&b), &ma.inter(&mb), &at("inter"));
            same(&a.minus(&b), &ma.minus(&mb), &at("minus"));
            same(&a.complement(), &ma.complement(), &at("complement"));
            same(&a.inverse(), &ma.inverse(), &at("inverse"));
            same(&a.seq(&b), &ma.seq(&mb), &at("seq"));
            same(&a.opt(), &ma.opt(), &at("opt"));
            same(&a.plus(), &ma.plus(), &at("plus"));
            same(&a.star(), &ma.plus().opt(), &at("star"));
            let mut closed = a;
            closed.transitive_close();
            same(&closed, &ma.plus(), &at("transitive_close"));
            let mut refl = a;
            refl.reflexive_close();
            same(&refl, &ma.opt(), &at("reflexive_close"));
            same(
                &a.restrict_domain(s),
                &ma.inter(&Pairs::cross(n, s, EventSet::universe(n))),
                &at("restrict_domain"),
            );
            same(
                &a.restrict_range(t),
                &ma.inter(&Pairs::cross(n, EventSet::universe(n), t)),
                &at("restrict_range"),
            );
            same(
                &union_all(n, [&a, &b, &c]),
                &ma.union(&mb).union(&mc),
                &at("union_all"),
            );
            // Lifts over a transaction-shaped equivalence.
            let (tr, mt) = (Rel::cross(n, s, s), Pairs::cross(n, s, s));
            same(
                &weaklift(&a, &tr),
                &mt.seq(&ma.minus(&mt)).seq(&mt),
                &at("weaklift"),
            );
            same(
                &stronglift(&a, &tr),
                &mt.opt().seq(&ma.minus(&mt)).seq(&mt.opt()),
                &at("stronglift"),
            );

            let domain = EventSet::from_iter(ma.s.iter().map(|p| p.0));
            let range = EventSet::from_iter(ma.s.iter().map(|p| p.1));
            assert_eq!(a.domain(), domain, "{}", at("domain"));
            assert_eq!(a.range(), range, "{}", at("range"));
            for e in 0..n {
                assert_eq!(a.row(e), ma.row(e), "{}", at(&format!("row {e}")));
                assert_eq!(a.col(e), ma.col(e), "{}", at(&format!("col {e}")));
            }
            assert_eq!(
                a.is_irreflexive(),
                ma.irreflexive(),
                "{}",
                at("is_irreflexive")
            );
            assert_eq!(
                a.is_acyclic(),
                ma.plus().irreflexive(),
                "{}",
                at("is_acyclic")
            );
            // An acyclic input, so is_acyclic sees true answers too.
            let mdag = Pairs::from_fn(n, |x, y| x < y && ma.has(x, y));
            let dag = Rel::from_pairs(n, mdag.s.iter().copied());
            assert!(mdag.plus().irreflexive());
            assert!(dag.is_acyclic(), "{}", at("is_acyclic on a dag"));
            assert_eq!(a.is_subset(&b), ma.subset(&mb), "{}", at("is_subset"));
            assert!(a.inter(&b).is_subset(&a), "{}", at("is_subset"));
            assert_eq!(
                a.is_symmetric(),
                ma == ma.inverse(),
                "{}",
                at("is_symmetric")
            );
            assert_eq!(
                a.is_transitive(),
                ma.seq(&ma).subset(&ma),
                "{}",
                at("is_transitive")
            );
            let p = a.plus();
            assert!(p.is_transitive(), "{}", at("is_transitive of plus"));
            for set in [s, t, EventSet::universe(n)] {
                assert_eq!(
                    a.is_strict_total_order_on(set),
                    ma.total_order_on(set),
                    "{}",
                    at("is_strict_total_order_on")
                );
                // A strict total order on `set`, built from the model.
                let order = Pairs::from_fn(n, |x, y| x < y && set.contains(x) && set.contains(y));
                let r = Rel::from_pairs(n, order.s.iter().copied());
                assert!(order.total_order_on(set));
                assert!(r.is_strict_total_order_on(set), "{}", at("total order"));
            }
            assert_eq!(a.to_string(), ma.display(), "{}", at("Display"));

            // add / remove / contains, one pair at a time.
            let (mut r, mut m) = (a, ma.clone());
            for _ in 0..2 * n {
                let (x, y) = (rng.below(n), rng.below(n));
                if rng.below(2) == 0 {
                    r.add(x, y);
                    m.s.insert((x, y));
                } else {
                    r.remove(x, y);
                    m.s.remove(&(x, y));
                }
                assert_eq!(r.contains(x, y), m.has(x, y), "{}", at("add/remove"));
            }
            same(&r, &m, &at("add/remove"));
        }
    }
}
