//! Property suite: the incremental greedy engine is **bit-for-bit**
//! identical to the reference full-rescan engine.
//!
//! Identity here means behavioural identity of Algorithm 2: the same
//! chosen VVS (same nodes, hence same labels), the same
//! `greedy_frontier` step trace, the same tie-breaks, and the same
//! `BoundUnattainable` floors — on random poly-sets paired with random
//! single- and multi-tree forests, across every bound from 1 to the
//! identity size. The engines share no representation: the reference
//! (`provabs_core::reference`) cleans, rewrites and measures cloned
//! hash-map polynomials, the incremental one an interned working set with
//! delta-maintained candidate scores, so agreement is evidence the
//! working-set rewrite and the delta maintenance are sound, not a
//! tautology.

use proptest::prelude::*;
use provabs_core::greedy::{greedy_frontier, greedy_vvs};
use provabs_core::reference;
use provabs_provenance::guard::Guard;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use provabs_trees::forest::Forest;
use provabs_trees::generate::random_tree;

/// Number of leaf variables the random instances draw from; `x0..x5`
/// belong to the first tree, `x6..x11` to the second.
const NUM_LEAVES: u32 = 12;

/// Interns `x0..x11` in a fresh table so `VarId(i)` is the variable
/// named `xi`, exactly as the polynomial strategy assumes.
fn leaf_table() -> (VarTable, Vec<String>) {
    let mut vars = VarTable::new();
    let names: Vec<String> = (0..NUM_LEAVES).map(|i| format!("x{i}")).collect();
    for (i, n) in names.iter().enumerate() {
        let id = vars.intern(n);
        assert_eq!(id, VarId(i as u32), "interning order is dense");
    }
    (vars, names)
}

/// A random poly-set over `x0..x11`: up to 7 polynomials of up to 10
/// monomials. Forest compatibility requires at most one tree variable
/// per monomial and tree, so each monomial draws at most one factor from
/// each leaf half (the halves are the tree leaf pools), telephony-style,
/// with exponents 1..=2. Coefficients are positive, keeping exact
/// cancellation out of play exactly as in the paper's workloads.
fn polyset_strategy() -> impl Strategy<Value = PolySet<f64>> {
    let factor_a = prop::option::of((0u32..NUM_LEAVES / 2, 1u32..3));
    let factor_b = prop::option::of((NUM_LEAVES / 2..NUM_LEAVES, 1u32..3));
    prop::collection::vec(
        prop::collection::vec((factor_a, factor_b, 1i32..40), 0..10),
        0..7,
    )
    .prop_map(|polys| {
        PolySet::from_vec(
            polys
                .into_iter()
                .map(|terms| {
                    Polynomial::from_terms(terms.into_iter().map(|(fa, fb, c)| {
                        let factors = fa.into_iter().chain(fb);
                        (
                            Monomial::from_factors(factors.map(|(v, e)| (VarId(v), e))),
                            f64::from(c) / 4.0,
                        )
                    }))
                })
                .collect(),
        )
    })
}

/// A random forest: one or two random trees over disjoint halves of the
/// leaf pool. With `two == false` the second half stays tree-less, so
/// single-tree instances (and leaves outside every tree) are covered.
fn random_forest(vars: &mut VarTable, names: &[String], seed: u64, two: bool) -> Forest {
    let (lo, hi) = names.split_at(names.len() / 2);
    let mut trees = vec![random_tree("A", lo, seed, vars)];
    if two {
        trees.push(random_tree("B", hi, seed.rotate_left(17) ^ 0xabcd, vars));
    }
    Forest::new(trees).expect("disjoint leaf halves")
}

/// Asserts both engines produce identical outcomes for one instance and
/// bound.
fn assert_engines_agree(polys: &PolySet<f64>, forest: &Forest, bound: usize) {
    let guard = Guard::unlimited();
    let inc = greedy_vvs(&WorkingSet::from_polyset(polys), forest, bound, &guard);
    let refr = reference::greedy_vvs(polys, forest, bound, &guard);
    match (inc, refr) {
        (Ok((abs, inc_done)), Ok((b, ref_done))) => {
            assert!(inc_done.is_complete() && ref_done.is_complete());
            assert_eq!(abs.working.size_m(), abs.result.compressed_size_m);
            assert_eq!(abs.working.size_v(), abs.result.compressed_size_v);
            let a = abs.result;
            assert_eq!(a.vvs, b.vvs, "VVS at bound {bound}");
            assert_eq!(a.compressed_size_m, b.compressed_size_m, "bound {bound}");
            assert_eq!(a.compressed_size_v, b.compressed_size_v, "bound {bound}");
            assert_eq!(a.original_size_m, b.original_size_m);
            assert_eq!(a.original_size_v, b.original_size_v);
            a.vvs.validate(&a.forest).expect("valid VVS");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "errors at bound {bound}"),
        (a, b) => panic!("engines disagree at bound {bound}: {a:?} vs {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant on multi-tree forests: identical VVS (or
    /// identical `BoundUnattainable` floor) for every bound, and an
    /// identical exhaustion trace.
    #[test]
    fn engines_agree_on_multi_tree_forests(
        polys in polyset_strategy(),
        seed in 0u64..1_000,
    ) {
        let (mut vars, names) = leaf_table();
        let forest = random_forest(&mut vars, &names, seed, true);
        let total = polys.size_m();
        for bound in 1..=total.max(1) {
            assert_engines_agree(&polys, &forest, bound);
        }
        let guard = Guard::unlimited();
        prop_assert_eq!(
            greedy_frontier(&WorkingSet::from_polyset(&polys), &forest, &guard).expect("frontier"),
            reference::greedy_frontier(&polys, &forest, &guard).expect("frontier"),
        );
    }

    /// Single-tree instances (the regime where the greedy competes with
    /// the optimal DP) agree too, including the step trace.
    #[test]
    fn engines_agree_on_single_trees(
        polys in polyset_strategy(),
        seed in 0u64..1_000,
    ) {
        let (mut vars, names) = leaf_table();
        let forest = random_forest(&mut vars, &names, seed, false);
        let total = polys.size_m();
        // Sweep a sparse set of bounds plus the extremes.
        for bound in [1, 2, total / 2, total.saturating_sub(1), total, total + 3] {
            if bound >= 1 {
                assert_engines_agree(&polys, &forest, bound);
            }
        }
        let guard = Guard::unlimited();
        prop_assert_eq!(
            greedy_frontier(&WorkingSet::from_polyset(&polys), &forest, &guard).expect("frontier"),
            reference::greedy_frontier(&polys, &forest, &guard).expect("frontier"),
        );
    }

    /// Unattainable bounds report the same floor from both engines: the
    /// bound-1 run exhausts every candidate, so the floors expose the
    /// full trace's end state.
    #[test]
    fn unattainable_floors_agree(
        polys in polyset_strategy(),
        seed in 0u64..1_000,
    ) {
        let (mut vars, names) = leaf_table();
        let forest = random_forest(&mut vars, &names, seed, seed % 2 == 0);
        assert_engines_agree(&polys, &forest, 1);
    }
}

/// Degenerate fixtures outside the random sweep.
#[test]
fn empty_and_trivial_instances_agree() {
    let (mut vars, names) = leaf_table();
    let forest = random_forest(&mut vars, &names, 7, true);
    // Empty poly-set: cleaning drops every tree; both engines answer with
    // the same unattainable floor.
    let empty: PolySet<f64> = PolySet::new();
    assert_engines_agree(&empty, &forest, 1);
    let source = WorkingSet::from_polyset(&empty);
    let guard = Guard::unlimited();
    let (r, _) = greedy_vvs(&source, &forest, 1, &guard).expect("size 0 is already ≤ 1");
    assert_eq!(r.result.compressed_size_m, 0);
    assert!(r.result.vvs.is_empty(), "cleaning dropped every tree");
    // …and the frontier is the lone identity point.
    assert_eq!(
        greedy_frontier(&source, &forest, &guard).expect("runs").0,
        vec![(0, 0)]
    );
    // A poly-set touching a single leaf: the cleaned forest is empty
    // (single-node trees admit no compression).
    let single = PolySet::from_vec(vec![Polynomial::from_terms([(
        Monomial::var(VarId(0)),
        1.0,
    )])]);
    assert_engines_agree(&single, &forest, 1);
}
