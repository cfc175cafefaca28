//! Property tests over randomly generated abstraction trees: cut
//! enumeration agrees with the analytic count, every cut is a valid VVS,
//! cleaning is idempotent, and substitution/lifting are consistent.

use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::VarTable;
use provabs_testkit::{assume, cases, Rng};
use provabs_trees::clean::clean_forest;
use provabs_trees::cut::{enumerate_tree_cuts, Vvs};
use provabs_trees::forest::Forest;
use provabs_trees::generate::{leaf_names, random_tree};

/// Cases each property runs.
const CASES: u64 = 128;

/// A tree's leaf count (2–9) and generator seed.
fn tree_input(rng: &mut Rng) -> (usize, u64) {
    (rng.within(2..=9), rng.next_u64())
}

/// The number of enumerated cuts equals the closed-form count, and
/// every cut validates as a VVS.
#[test]
fn enumeration_agrees_with_count() {
    cases(CASES, 101, |rng, _| {
        let (n_leaves, seed) = tree_input(rng);
        let leaves = leaf_names("x", n_leaves);
        let mut vars = VarTable::new();
        let tree = random_tree("T", &leaves, seed, &mut vars);
        let count = tree.count_cuts();
        assume(count <= 5_000)?;
        let cuts = enumerate_tree_cuts(&tree, 10_000).expect("under the limit");
        assert_eq!(cuts.len() as u128, count);
        let forest = Forest::single(tree);
        let mut seen = std::collections::HashSet::new();
        for cut in cuts {
            let vvs = Vvs::from_per_tree(vec![cut]);
            vvs.validate(&forest)
                .expect("every enumerated cut is valid");
            assert!(seen.insert(vvs.labels(&forest)), "cuts are distinct");
        }
        Some(())
    });
}

/// Applying any cut never increases the size or the granularity, and
/// preserves coefficient mass per polynomial.
#[test]
fn cuts_only_shrink() {
    cases(CASES, 102, |rng, _| {
        let (n_leaves, seed) = tree_input(rng);
        let leaves = leaf_names("x", n_leaves);
        let mut vars = VarTable::new();
        let tree = random_tree("T", &leaves, seed, &mut vars);
        assume(tree.count_cuts() <= 2_000)?;
        // One polynomial touching every leaf, plus a context variable.
        let ctx = vars.intern("ctx");
        let poly: Polynomial<f64> =
            Polynomial::from_terms(leaves.iter().enumerate().map(|(i, l)| {
                let v = vars.lookup(l).expect("interned by the tree");
                (Monomial::from_vars([v, ctx]), 1.0 + i as f64)
            }));
        let polys = PolySet::from_vec(vec![poly]);
        let forest = Forest::single(tree.clone());
        for cut in enumerate_tree_cuts(&tree, 4_000).expect("bounded") {
            let vvs = Vvs::from_per_tree(vec![cut]);
            let down = vvs.apply(&polys, &forest);
            assert!(down.size_m() <= polys.size_m());
            assert!(down.size_v() <= polys.size_v());
            let mass_before: f64 = polys.iter().map(|p| p.coefficient_mass()).sum();
            let mass_after: f64 = down.iter().map(|p| p.coefficient_mass()).sum();
            assert!((mass_before - mass_after).abs() < 1e-9);
        }
        Some(())
    });
}

/// Cleaning against a polynomial set that uses only some leaves is
/// idempotent and yields a compatible forest.
#[test]
fn cleaning_is_idempotent() {
    cases(CASES, 103, |rng, _| {
        let (n_leaves, seed) = tree_input(rng);
        let keep_mask = 1 + rng.below(254) as u32;
        let leaves = leaf_names("x", n_leaves);
        let mut vars = VarTable::new();
        let tree = random_tree("T", &leaves, seed, &mut vars);
        // Keep a non-empty subset of the leaves in the polynomials.
        let kept: Vec<_> = leaves
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << (i % 8)) != 0)
            .map(|(_, l)| vars.lookup(l).expect("interned"))
            .collect();
        assume(!kept.is_empty())?;
        let poly: Polynomial<f64> =
            Polynomial::from_terms(kept.iter().map(|&v| (Monomial::var(v), 1.0)));
        let polys = PolySet::from_vec(vec![poly]);
        let forest = Forest::single(tree);
        let once = clean_forest(&forest, &polys);
        if once.num_trees() > 0 {
            once.check_compatible(&polys).expect("clean ⇒ compatible");
        }
        let twice = clean_forest(&once, &polys);
        assert_eq!(once.num_trees(), twice.num_trees());
        for (a, b) in once.trees().iter().zip(twice.trees()) {
            assert_eq!(a.num_nodes(), b.num_nodes());
            assert_eq!(a.count_cuts(), b.count_cuts());
        }
        Some(())
    });
}

/// `eval(P↓S, ν) == eval(P, lift(ν))` for random cuts and valuations.
#[test]
fn lifting_commutes() {
    cases(CASES, 104, |rng, _| {
        let (n_leaves, seed) = tree_input(rng);
        let factors: Vec<f64> = (0..rng.within(1..=19))
            .map(|_| 0.1 + 2.9 * rng.unit())
            .collect();
        let leaves = leaf_names("x", n_leaves);
        let mut vars = VarTable::new();
        let tree = random_tree("T", &leaves, seed, &mut vars);
        assume(tree.count_cuts() <= 500)?;
        let poly: Polynomial<f64> =
            Polynomial::from_terms(leaves.iter().enumerate().map(|(i, l)| {
                let v = vars.lookup(l).expect("interned");
                (Monomial::var(v), 2.0 + i as f64)
            }));
        let polys = PolySet::from_vec(vec![poly]);
        let forest = Forest::single(tree.clone());
        let cuts = enumerate_tree_cuts(&tree, 600).expect("bounded");
        for (ci, cut) in cuts.into_iter().enumerate() {
            let vvs = Vvs::from_per_tree(vec![cut]);
            let mut coarse = Valuation::neutral();
            for (vi, v) in vvs.vars(&forest).into_iter().enumerate() {
                coarse.assign(v, factors[(ci + vi) % factors.len()]);
            }
            let lifted = vvs.lift_valuation(&forest, &coarse);
            let down = vvs.apply(&polys, &forest);
            let a: f64 = coarse.eval_set(&down).into_iter().sum();
            let b: f64 = lifted.eval_set(&polys).into_iter().sum();
            assert!(
                (a - b).abs() < 1e-9 * a.abs().max(1.0),
                "cut {ci}: {a} vs {b}"
            );
        }
        Some(())
    });
}
