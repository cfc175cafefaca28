//! Property-based optimality tests: on random compatible instances the
//! sparse DP, the dense DP and exhaustive search must agree, and every
//! algorithm's output must be a valid, adequate VVS — on every row of the
//! [`Carrier`] axis: `f64`, `i64` (merged terms can cancel) and `MinF64`
//! (merged terms keep the minimum).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use provabs::algo::greedy::greedy_vvs;
use provabs::algo::optimal::{optimal_frontier, optimal_vvs};
use provabs::algo::problem::AbstractionResult;
use provabs::algo::reference::{brute_force_vvs, optimal_vvs_dense};
use provabs::provenance::coeff::MinF64;
use provabs::provenance::guard::Guard;
use provabs::provenance::working::WorkingSet;
use provabs::provenance::{PolySet, Valuation};
use provabs::trees::error::TreeError;
use provabs::trees::forest::Forest;
use provabs_testkit::{carry, modelled, random_forest, Carrier, Coeffs, Powers, Rng, Shape};

/// A random compatible instance: one random tree over the first of two
/// pools of two to six variables, the second pool context outside the
/// tree, and polynomials whose monomials draw at most one variable from
/// each pool.
#[derive(Debug, Clone)]
struct Instance<C: Carrier> {
    polys: PolySet<C>,
    /// `polys`, lowered once — what the production algorithms take.
    source: WorkingSet<C>,
    forest: Forest,
}

fn instance_strategy<C: Carrier>() -> impl Strategy<Value = Instance<C>> {
    (2u32..7, any::<u64>())
        .prop_map(|(leaves, seed)| {
            let mut rng = Rng::new(seed);
            let shape = Shape {
                vars: 2 * leaves,
                pools: 2,
                powers: Powers::Dense(2),
                coeffs: Coeffs::Integers,
                ..Shape::default()
            }
            .carried::<C>();
            let polys = carry(&shape.draw(&mut rng));
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

/// The sparse DP finds exactly the brute-force optimum for every bound,
/// or both report the bound unattainable with the same floor. The
/// reference is computed by *materialising* every cut of the instance's
/// [`support`] (fully independent of the `TreeLoss` machinery the DP and
/// the shipped brute force share); the carrier's own poly-set under each
/// cut is held to it by the [`modelled`] relation.
fn optimal_matches_brute_force_in<C: Carrier>(inst: &Instance<C>) -> Result<(), TestCaseError> {
    let row = C::NAME;
    let total = inst.polys.size_m();
    let (cleaned, _) = provabs::algo::problem::prepare(&inst.source, &inst.forest)
        .expect("compatible after cleaning");
    let supp = support(&inst.polys);
    // Independent reference: every (size, granularity) point reachable
    // by any cut, by direct application.
    let reference: Vec<(usize, usize)> =
        provabs::trees::cut::enumerate_forest_cuts(&cleaned, 100_000, 100_000)
            .expect("small random trees")
            .into_iter()
            .map(|vvs| {
                let point = sizes(&vvs.apply(&supp, &cleaned));
                let own = sizes(&vvs.apply(&inst.polys, &cleaned));
                modelled::<C>(&[own], &[point], row);
                point
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
                prop_assert!(o.is_adequate_for(bound), "{}", row);
                prop_assert!(b.is_adequate_for(bound), "{}", row);
                let (om, ov) = (o.compressed_size_m, o.compressed_size_v);
                let modelled_o = sizes(&o.vvs.apply(&supp, &o.forest));
                modelled::<C>(&[(om, ov)], &[modelled_o], row);
                prop_assert_eq!(
                    modelled_o.1,
                    v,
                    "{}: DP vs reference at bound {}",
                    row,
                    bound
                );
                let modelled_b = sizes(&b.vvs.apply(&supp, &b.forest));
                prop_assert_eq!(
                    modelled_b.1,
                    v,
                    "{}: brute vs reference at bound {}",
                    row,
                    bound
                );
                o.vvs.validate(&o.forest).expect("valid VVS");
            }
            (
                Err(TreeError::BoundUnattainable {
                    best_possible: a, ..
                }),
                Err(TreeError::BoundUnattainable {
                    best_possible: b, ..
                }),
                None,
            ) => {
                prop_assert_eq!(a, expected_floor, "{}: DP floor at bound {}", row, bound);
                prop_assert_eq!(b, expected_floor, "{}: brute floor at bound {}", row, bound);
            }
            (o, b, e) => prop_assert!(
                false,
                "{}: disagreement at bound {}: opt {:?}, brute {:?}, reference {:?}",
                row,
                bound,
                o,
                b,
                e
            ),
        }
    }
    Ok(())
}

/// `polys`' support: every term kept, its coefficient `1` — the
/// poly-set whose abstractions the loss model measures, since it counts
/// merged monomials, not the sums merged coefficients make (ADR 024).
fn support<C: Carrier>(polys: &PolySet<C>) -> PolySet<f64> {
    polys
        .iter()
        .map(|p| p.iter().map(|(m, _)| (m.clone(), 1.0)).collect())
        .collect()
}

/// `(|𝒫|_M, |𝒫|_V)`.
fn sizes<C: Carrier>(down: &PolySet<C>) -> (usize, usize) {
    (down.size_m(), down.size_v())
}

/// Dense and sparse DP variants are interchangeable.
fn dense_equals_sparse_in<C: Carrier>(inst: &Instance<C>) -> Result<(), TestCaseError> {
    let total = inst.polys.size_m();
    for bound in (1..=total).step_by(2) {
        let s = optimal_vvs(&inst.source, &inst.forest, bound, &Guard::unlimited());
        let d = optimal_vvs_dense(&inst.polys, &inst.forest, bound);
        match (s, d) {
            (Ok((a, _)), Ok(b)) => {
                prop_assert_eq!(
                    a.result.compressed_size_v,
                    b.compressed_size_v,
                    "{}",
                    C::NAME
                )
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", C::NAME),
            (a, b) => prop_assert!(false, "{}: sparse {:?} vs dense {:?}", C::NAME, a, b),
        }
    }
    Ok(())
}

/// Greedy always returns a valid VVS whose sizes are its VVS applied;
/// when it succeeds it is adequate, and it never beats the granularity of
/// the best cut whose *measured* size meets the bound. Where merges
/// cannot cancel, that is the DP's optimum too. Where they can, the DP
/// optimises the loss model (the support's sizes, ADR 024) while the
/// greedy stops on the loss it measured, so the greedy may keep more
/// variables than the DP's cut — but never more than any measured cut.
fn greedy_is_sound_in<C: Carrier>(inst: &Instance<C>) -> Result<(), TestCaseError> {
    let row = C::NAME;
    let total = inst.polys.size_m();
    let guard = Guard::unlimited();
    let (cleaned, _) = provabs::algo::problem::prepare(&inst.source, &inst.forest)
        .expect("compatible after cleaning");
    // Every (size, granularity) point any cut reaches, measured on the
    // carrier's own poly-set.
    let measured: Vec<(usize, usize)> =
        provabs::trees::cut::enumerate_forest_cuts(&cleaned, 100_000, 100_000)
            .expect("small random trees")
            .into_iter()
            .map(|vvs| sizes(&vvs.apply(&inst.polys, &cleaned)))
            .collect();
    for bound in 1..=total {
        match greedy_vvs(&inst.source, &inst.forest, bound, &guard) {
            Ok((g, _)) => {
                let g = g.result;
                g.vvs.validate(&g.forest).expect("valid VVS");
                prop_assert!(g.is_adequate_for(bound), "{}", row);
                prop_assert_eq!(
                    sizes(&g.vvs.apply(&inst.polys, &g.forest)),
                    (g.compressed_size_m, g.compressed_size_v),
                    "{}: measured sizes at bound {}",
                    row,
                    bound
                );
                let best = measured
                    .iter()
                    .filter(|(m, _)| *m <= bound)
                    .map(|&(_, v)| v)
                    .max();
                prop_assert!(
                    best.is_some_and(|v| g.compressed_size_v <= v),
                    "{}: greedy V {} vs best measured cut {:?} at bound {}",
                    row,
                    g.compressed_size_v,
                    best,
                    bound
                );
                if let Ok((o, _)) = optimal_vvs(&inst.source, &inst.forest, bound, &guard) {
                    if !C::CANCELS {
                        prop_assert!(g.compressed_size_v <= o.result.compressed_size_v, "{}", row);
                    }
                }
            }
            Err(TreeError::BoundUnattainable { .. }) => {
                // The optimum must also fail then: greedy exhausts the
                // tree, reaching maximal compression.
                prop_assert!(
                    optimal_vvs(&inst.source, &inst.forest, bound, &guard).is_err(),
                    "{}",
                    row
                );
            }
            Err(e) => prop_assert!(false, "{}: unexpected error {}", row, e),
        }
    }
    Ok(())
}

/// The frontier is consistent with per-bound optimal runs.
fn frontier_is_consistent_in<C: Carrier>(inst: &Instance<C>) -> Result<(), TestCaseError> {
    let row = C::NAME;
    let guard = Guard::unlimited();
    let (frontier, completion) =
        optimal_frontier(&inst.source, &inst.forest, &guard).expect("single tree");
    prop_assert!(completion.is_complete());
    prop_assert!(!frontier.is_empty());
    // Strictly decreasing sizes, strictly decreasing granularity
    // gains (Pareto): sizes strictly decrease, granularities weakly.
    for w in frontier.windows(2) {
        prop_assert!(w[1].0 < w[0].0, "{}", row);
        prop_assert!(w[1].1 <= w[0].1, "{}", row);
    }
    for &(size, granularity) in &frontier {
        let (r, _) = optimal_vvs(&inst.source, &inst.forest, size, &guard).expect("attainable");
        let r = r.result;
        modelled::<C>(
            &[(r.compressed_size_m, r.compressed_size_v)],
            &[(size, granularity)],
            row,
        );
        prop_assert_eq!(
            sizes(&r.vvs.apply(&support(&inst.polys), &r.forest)).1,
            granularity,
            "{}",
            row
        );
    }
    Ok(())
}

/// The DP's abstraction at every point of its frontier — identity to
/// floor, every bound it attains (a fixed bound such as half the size is
/// unattainable on most small instances, and would leave nothing to
/// check).
fn frontier_abstractions<C: Carrier>(inst: &Instance<C>) -> Vec<AbstractionResult> {
    let guard = Guard::unlimited();
    let (frontier, _) = optimal_frontier(&inst.source, &inst.forest, &guard).expect("single tree");
    frontier
        .iter()
        .map(|&(size, _)| {
            let (abs, _) =
                optimal_vvs(&inst.source, &inst.forest, size, &guard).expect("attainable");
            abs.result
        })
        .collect()
}

/// Semantics: abstraction commutes with valuation through lifting, for
/// each VVS on the DP's frontier — `𝒫↓S` under a coarse valuation (every
/// chosen variable given `factor`) against `𝒫` under its lift, compared
/// by `same`; and `𝒫` under the lift is the carrier's
/// [`aggregate`](Carrier::aggregate) of its terms' values.
fn valuation_lifting_commutes_in<C: Carrier>(
    inst: &Instance<C>,
    factor: C,
    same: impl Fn(&C, &C) -> bool,
) -> Result<(), TestCaseError> {
    for result in frontier_abstractions(inst) {
        let mut coarse = Valuation::neutral();
        for v in result.vvs.vars(&result.forest) {
            coarse.assign(v, factor);
        }
        let lifted = result.vvs.lift_valuation(&result.forest, &coarse);
        let down = result.apply(&inst.polys);
        let a = coarse.eval_set(&down);
        let b = lifted.eval_set(&inst.polys);
        prop_assert_eq!(a.len(), b.len());
        for ((x, y), p) in a.iter().zip(&b).zip(inst.polys.iter()) {
            prop_assert!(same(x, y), "{}: {:?} vs {:?}", C::NAME, x, y);
            let terms: Vec<C> = p
                .iter()
                .map(|(m, c)| {
                    m.factors()
                        .fold(*c, |acc, (v, e)| acc.mul(&lifted.get(v).pow(e)))
                })
                .collect();
            let defined = C::aggregate(&terms);
            prop_assert!(
                same(y, &defined),
                "{}: {:?} vs the aggregate {:?}",
                C::NAME,
                y,
                defined
            );
        }
    }
    Ok(())
}

/// Coefficient mass (the carrier's [`aggregate`](Carrier::aggregate) of
/// a polynomial's coefficients) is preserved by the DP's most compressed
/// abstraction, compared by `same`.
fn mass_preserved_in<C: Carrier>(
    inst: &Instance<C>,
    same: impl Fn(&C, &C) -> bool,
) -> Result<(), TestCaseError> {
    let floor = frontier_abstractions(inst)
        .pop()
        .expect("the identity at least");
    let down = floor.apply(&inst.polys);
    for (orig, abst) in inst.polys.iter().zip(down.iter()) {
        let (a, b) = (orig.coefficient_mass(), abst.coefficient_mass());
        prop_assert!(same(&a, &b), "{}: {:?} vs {:?}", C::NAME, a, b);
        let coeffs: Vec<C> = orig.iter().map(|(_, c)| *c).collect();
        let defined = C::aggregate(&coeffs);
        prop_assert!(
            same(&a, &defined),
            "{}: {:?} vs the aggregate {:?}",
            C::NAME,
            a,
            defined
        );
    }
    Ok(())
}

/// Within `1e-6` of the larger magnitude (or of 1): the room the `f64`
/// row's non-integral factors need when two sums are taken in different
/// orders.
fn near(x: &f64, y: &f64) -> bool {
    (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimal_matches_brute_force(
        inst in instance_strategy::<f64>(),
        ints in instance_strategy::<i64>(),
        mins in instance_strategy::<MinF64>(),
    ) {
        optimal_matches_brute_force_in(&inst)?;
        optimal_matches_brute_force_in(&ints)?;
        optimal_matches_brute_force_in(&mins)?;
    }

    #[test]
    fn dense_equals_sparse(
        inst in instance_strategy::<f64>(),
        ints in instance_strategy::<i64>(),
        mins in instance_strategy::<MinF64>(),
    ) {
        dense_equals_sparse_in(&inst)?;
        dense_equals_sparse_in(&ints)?;
        dense_equals_sparse_in(&mins)?;
    }

    #[test]
    fn greedy_is_sound(
        inst in instance_strategy::<f64>(),
        ints in instance_strategy::<i64>(),
        mins in instance_strategy::<MinF64>(),
    ) {
        greedy_is_sound_in(&inst)?;
        greedy_is_sound_in(&ints)?;
        greedy_is_sound_in(&mins)?;
    }

    #[test]
    fn frontier_is_consistent(
        inst in instance_strategy::<f64>(),
        ints in instance_strategy::<i64>(),
        mins in instance_strategy::<MinF64>(),
    ) {
        frontier_is_consistent_in(&inst)?;
        frontier_is_consistent_in(&ints)?;
        frontier_is_consistent_in(&mins)?;
    }

    /// Abstraction soundness per carrier: `f64` to `1e-6` under a factor
    /// in `[0.1, 2)`; `i64` exactly under any integer factor (its sums
    /// are exact, cancelled terms included); `MinF64` exactly under a
    /// non-negative integer factor, where `min(a·x, b·x) = min(a, b)·x`
    /// holds to the bit (rounding is monotone, and integers this small
    /// multiply exactly).
    #[test]
    fn valuation_lifting_commutes(
        inst in instance_strategy::<f64>(),
        factor in 0.1f64..2.0,
        ints in instance_strategy::<i64>(),
        int_factor in -4i64..=4,
        mins in instance_strategy::<MinF64>(),
        min_factor in 0u32..=4,
    ) {
        valuation_lifting_commutes_in(&inst, factor, near)?;
        valuation_lifting_commutes_in(&ints, int_factor, i64::eq)?;
        valuation_lifting_commutes_in(&mins, MinF64(f64::from(min_factor)), MinF64::eq)?;
    }

    /// Coefficient mass is preserved by any abstraction: to `1e-6` in
    /// `f64`, exactly in `i64` (cancelled terms held zero) and in
    /// `MinF64` (the minimum of the merged terms).
    #[test]
    fn mass_preserved(
        inst in instance_strategy::<f64>(),
        ints in instance_strategy::<i64>(),
        mins in instance_strategy::<MinF64>(),
    ) {
        mass_preserved_in(&inst, near)?;
        mass_preserved_in(&ints, i64::eq)?;
        mass_preserved_in(&mins, MinF64::eq)?;
    }
}
