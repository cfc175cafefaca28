//! Property-based optimality tests: on random compatible instances the
//! sparse DP, the dense DP and exhaustive search must agree, and every
//! algorithm's output must be a valid, adequate VVS.

use proptest::prelude::*;
use provabs::algo::greedy::greedy_vvs;
use provabs::algo::optimal::{optimal_frontier, optimal_vvs};
use provabs::algo::reference::{brute_force_vvs, optimal_vvs_dense};
use provabs::provenance::guard::Guard;
use provabs::provenance::working::WorkingSet;
use provabs::provenance::PolySet;
use provabs::trees::error::TreeError;
use provabs::trees::forest::Forest;
use provabs_testkit::{random_forest, Coeffs, Powers, Rng, Shape};

/// A random compatible instance: one random tree over the first of two
/// pools of two to six variables, the second pool context outside the
/// tree, and polynomials whose monomials draw at most one variable from
/// each pool.
#[derive(Debug, Clone)]
struct Instance {
    polys: PolySet<f64>,
    /// `polys`, lowered once — what the production algorithms take.
    source: WorkingSet<f64>,
    forest: Forest,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2u32..7, any::<u64>())
        .prop_map(|(leaves, seed)| {
            let mut rng = Rng::new(seed);
            let shape = Shape {
                vars: 2 * leaves,
                pools: 2,
                powers: Powers::Dense(2),
                coeffs: Coeffs::Integers,
                ..Shape::default()
            };
            let polys = shape.draw(&mut rng);
            // The tree covers its whole pool; cleaning inside the
            // algorithms handles leaves that occur nowhere.
            Instance {
                source: WorkingSet::from_polyset(&polys),
                polys,
                forest: random_forest(shape.vars, 2, 1, rng.next_u64()).1,
            }
        })
        .prop_filter("non-trivial provenance", |inst| inst.polys.size_m() >= 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sparse DP finds exactly the brute-force optimum for every
    /// bound, or both report the bound unattainable with the same floor.
    /// The reference is computed by *materialising* every cut (fully
    /// independent of the `TreeLoss` machinery the DP and the shipped
    /// brute force share).
    #[test]
    fn optimal_matches_brute_force(inst in instance_strategy()) {
        let total = inst.polys.size_m();
        // Independent reference: every (size, granularity) point reachable
        // by any cut, by direct application.
        let (cleaned, _) = provabs::algo::problem::prepare(&inst.source, &inst.forest)
            .expect("compatible after cleaning");
        let reference: Vec<(usize, usize)> =
            provabs::trees::cut::enumerate_forest_cuts(&cleaned, 100_000, 100_000)
                .expect("small random trees")
                .into_iter()
                .map(|vvs| {
                    let down = vvs.apply(&inst.polys, &cleaned);
                    (down.size_m(), down.size_v())
                })
                .collect();
        for bound in 1..=total {
            let expected_best = reference
                .iter()
                .filter(|(m, _)| *m <= bound)
                .map(|&(_, v)| v)
                .max();
            let expected_floor = reference.iter().map(|&(m, _)| m).min().expect("non-empty");
            let opt = optimal_vvs(&inst.source, &inst.forest, bound, &Guard::unlimited());
            let brute = brute_force_vvs(&inst.polys, &inst.forest, bound, 1_000_000);
            match (opt, brute, expected_best) {
                (Ok((o, _)), Ok(b), Some(v)) => {
                    let o = o.result;
                    prop_assert!(o.is_adequate_for(bound));
                    prop_assert!(b.is_adequate_for(bound));
                    prop_assert_eq!(o.compressed_size_v, v, "DP vs reference at bound {}", bound);
                    prop_assert_eq!(b.compressed_size_v, v, "brute vs reference at bound {}", bound);
                    o.vvs.validate(&o.forest).expect("valid VVS");
                }
                (Err(TreeError::BoundUnattainable { best_possible: a, .. }),
                 Err(TreeError::BoundUnattainable { best_possible: b, .. }),
                 None) => {
                    prop_assert_eq!(a, expected_floor, "DP floor at bound {}", bound);
                    prop_assert_eq!(b, expected_floor, "brute floor at bound {}", bound);
                }
                (o, b, e) => prop_assert!(
                    false,
                    "disagreement at bound {}: opt {:?}, brute {:?}, reference {:?}",
                    bound, o, b, e
                ),
            }
        }
    }

    /// Dense and sparse DP variants are interchangeable.
    #[test]
    fn dense_equals_sparse(inst in instance_strategy()) {
        let total = inst.polys.size_m();
        for bound in (1..=total).step_by(2) {
            let s = optimal_vvs(&inst.source, &inst.forest, bound, &Guard::unlimited());
            let d = optimal_vvs_dense(&inst.polys, &inst.forest, bound);
            match (s, d) {
                (Ok((a, _)), Ok(b)) => {
                    prop_assert_eq!(a.result.compressed_size_v, b.compressed_size_v)
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "sparse {:?} vs dense {:?}", a, b),
            }
        }
    }

    /// Greedy always returns a valid VVS; when it succeeds it is adequate;
    /// it never beats the optimum's granularity.
    #[test]
    fn greedy_is_sound(inst in instance_strategy()) {
        let total = inst.polys.size_m();
        let guard = Guard::unlimited();
        for bound in 1..=total {
            match greedy_vvs(&inst.source, &inst.forest, bound, &guard) {
                Ok((g, _)) => {
                    let g = g.result;
                    g.vvs.validate(&g.forest).expect("valid VVS");
                    prop_assert!(g.is_adequate_for(bound));
                    if let Ok((o, _)) = optimal_vvs(&inst.source, &inst.forest, bound, &guard) {
                        prop_assert!(g.compressed_size_v <= o.result.compressed_size_v);
                    }
                }
                Err(TreeError::BoundUnattainable { .. }) => {
                    // The optimum must also fail then: greedy exhausts the
                    // tree, reaching maximal compression.
                    prop_assert!(optimal_vvs(&inst.source, &inst.forest, bound, &guard).is_err());
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    /// The frontier is consistent with per-bound optimal runs.
    #[test]
    fn frontier_is_consistent(inst in instance_strategy()) {
        let guard = Guard::unlimited();
        let (frontier, completion) =
            optimal_frontier(&inst.source, &inst.forest, &guard).expect("single tree");
        prop_assert!(completion.is_complete());
        prop_assert!(!frontier.is_empty());
        // Strictly decreasing sizes, strictly decreasing granularity
        // gains (Pareto): sizes strictly decrease, granularities weakly.
        for w in frontier.windows(2) {
            prop_assert!(w[1].0 < w[0].0);
            prop_assert!(w[1].1 <= w[0].1);
        }
        for &(size, granularity) in &frontier {
            let (r, _) = optimal_vvs(&inst.source, &inst.forest, size, &guard).expect("attainable");
            prop_assert_eq!(r.result.compressed_size_v, granularity);
        }
    }

    /// Semantics: abstraction commutes with valuation through lifting, for
    /// any VVS any algorithm returns.
    #[test]
    fn valuation_lifting_commutes(inst in instance_strategy(), factor in 0.1f64..2.0) {
        let total = inst.polys.size_m();
        let bound = (total / 2).max(1);
        let Ok((abs, _)) = optimal_vvs(&inst.source, &inst.forest, bound, &Guard::unlimited())
        else {
            return Ok(());
        };
        let result = abs.result;
        // A coarse valuation: every chosen variable gets `factor`.
        let mut coarse = provabs::provenance::Valuation::neutral();
        for v in result.vvs.vars(&result.forest) {
            coarse.assign(v, factor);
        }
        let lifted = result.vvs.lift_valuation(&result.forest, &coarse);
        let down = result.apply(&inst.polys);
        let a = coarse.eval_set(&down);
        let b = lifted.eval_set(&inst.polys);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0));
        }
    }

    /// Coefficient mass is preserved by any abstraction.
    #[test]
    fn mass_preserved(inst in instance_strategy()) {
        let Ok((abs, _)) = optimal_vvs(&inst.source, &inst.forest, 1, &Guard::unlimited()) else {
            return Ok(());
        };
        let down = abs.result.apply(&inst.polys);
        for (orig, abst) in inst.polys.iter().zip(down.iter()) {
            prop_assert!((orig.coefficient_mass() - abst.coefficient_mass()).abs() < 1e-6);
        }
    }
}
