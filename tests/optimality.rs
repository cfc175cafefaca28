//! Property-based optimality tests: on random compatible instances the
//! sparse DP, the dense DP and exhaustive search must agree, and every
//! algorithm's output must be a valid, adequate VVS — on every row of the
//! [`Carrier`] axis: `f64`, `i64` (merged terms can cancel) and `MinF64`
//! (merged terms keep the minimum).

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
use provabs_testkit::{
    assume, cases, modelled, random_forest, Carrier, Coeffs, Powers, Rng, Shape,
};

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

/// Cases each property runs.
const CASES: u64 = 64;

/// Draws an instance in carrier `C`; `None` (the case skips) when its
/// provenance is trivial, under two monomials.
fn instance<C: Carrier>(rng: &mut Rng) -> Option<Instance<C>> {
    let shape = Shape {
        vars: 2 * rng.within(2..=6) as u32,
        pools: 2,
        powers: Powers::Dense(2),
        coeffs: Coeffs::Integers,
        ..Shape::default()
    };
    let polys: PolySet<C> = shape.draw_in(rng);
    assume(polys.size_m() >= 2)?;
    // The tree covers its whole pool; cleaning inside the algorithms
    // handles leaves that occur nowhere.
    Some(Instance {
        source: WorkingSet::from_polyset(&polys),
        polys,
        forest: random_forest(shape.vars, 2, 1, rng.next_u64()).1,
    })
}

/// One instance on each carrier row: `f64`, `i64` and `MinF64`.
type Rows = (Instance<f64>, Instance<i64>, Instance<MinF64>);

/// Draws [`Rows`]; `None` when any of the three is trivial.
fn rows(rng: &mut Rng) -> Option<Rows> {
    Some((instance(rng)?, instance(rng)?, instance(rng)?))
}

/// The sparse DP finds exactly the brute-force optimum for every bound,
/// or both report the bound unattainable with the same floor. The
/// reference is computed by *materialising* every cut of the instance's
/// [`support`] (fully independent of the `TreeLoss` machinery the DP and
/// the shipped brute force share); the carrier's own poly-set under each
/// cut is held to it by the [`modelled`] relation.
fn optimal_matches_brute_force_in<C: Carrier>(inst: &Instance<C>) {
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
                assert!(o.is_adequate_for(bound), "{}", row);
                assert!(b.is_adequate_for(bound), "{}", row);
                let (om, ov) = (o.compressed_size_m, o.compressed_size_v);
                let modelled_o = sizes(&o.vvs.apply(&supp, &o.forest));
                modelled::<C>(&[(om, ov)], &[modelled_o], row);
                assert_eq!(modelled_o.1, v, "{row}: DP vs reference at bound {bound}");
                let modelled_b = sizes(&b.vvs.apply(&supp, &b.forest));
                assert_eq!(
                    modelled_b.1, v,
                    "{row}: brute vs reference at bound {bound}"
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
                assert_eq!(a, expected_floor, "{row}: DP floor at bound {bound}");
                assert_eq!(b, expected_floor, "{row}: brute floor at bound {bound}");
            }
            (o, b, e) => panic!(
                "{row}: disagreement at bound {bound}: opt {o:?}, brute {b:?}, reference {e:?}"
            ),
        }
    }
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
fn dense_equals_sparse_in<C: Carrier>(inst: &Instance<C>) {
    let total = inst.polys.size_m();
    for bound in (1..=total).step_by(2) {
        let s = optimal_vvs(&inst.source, &inst.forest, bound, &Guard::unlimited());
        let d = optimal_vvs_dense(&inst.polys, &inst.forest, bound);
        match (s, d) {
            (Ok((a, _)), Ok(b)) => {
                assert_eq!(
                    a.result.compressed_size_v,
                    b.compressed_size_v,
                    "{}",
                    C::NAME
                )
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{}", C::NAME),
            (a, b) => panic!("{}: sparse {:?} vs dense {:?}", C::NAME, a, b),
        }
    }
}

/// Greedy always returns a valid VVS whose sizes are its VVS applied;
/// when it succeeds it is adequate, and it never beats the granularity of
/// the best cut whose *measured* size meets the bound. Where merges
/// cannot cancel, that is the DP's optimum too. Where they can, the DP
/// optimises the loss model (the support's sizes, ADR 024) while the
/// greedy stops on the loss it measured, so the greedy may keep more
/// variables than the DP's cut — but never more than any measured cut.
fn greedy_is_sound_in<C: Carrier>(inst: &Instance<C>) {
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
                assert!(g.is_adequate_for(bound), "{}", row);
                assert_eq!(
                    sizes(&g.vvs.apply(&inst.polys, &g.forest)),
                    (g.compressed_size_m, g.compressed_size_v),
                    "{row}: measured sizes at bound {bound}"
                );
                let best = measured
                    .iter()
                    .filter(|(m, _)| *m <= bound)
                    .map(|&(_, v)| v)
                    .max();
                assert!(
                    best.is_some_and(|v| g.compressed_size_v <= v),
                    "{}: greedy V {} vs best measured cut {:?} at bound {}",
                    row,
                    g.compressed_size_v,
                    best,
                    bound
                );
                if let Ok((o, _)) = optimal_vvs(&inst.source, &inst.forest, bound, &guard) {
                    if !C::CANCELS {
                        assert!(g.compressed_size_v <= o.result.compressed_size_v, "{}", row);
                    }
                }
            }
            Err(TreeError::BoundUnattainable { .. }) => {
                // The optimum must also fail then: greedy exhausts the
                // tree, reaching maximal compression.
                assert!(
                    optimal_vvs(&inst.source, &inst.forest, bound, &guard).is_err(),
                    "{}",
                    row
                );
            }
            Err(e) => panic!("{row}: unexpected error {e}"),
        }
    }
}

/// The frontier is consistent with per-bound optimal runs.
fn frontier_is_consistent_in<C: Carrier>(inst: &Instance<C>) {
    let row = C::NAME;
    let guard = Guard::unlimited();
    let (frontier, completion) =
        optimal_frontier(&inst.source, &inst.forest, &guard).expect("single tree");
    assert!(completion.is_complete());
    assert!(!frontier.is_empty());
    // Strictly decreasing sizes, strictly decreasing granularity
    // gains (Pareto): sizes strictly decrease, granularities weakly.
    for w in frontier.windows(2) {
        assert!(w[1].0 < w[0].0, "{}", row);
        assert!(w[1].1 <= w[0].1, "{}", row);
    }
    for &(size, granularity) in &frontier {
        let (r, _) = optimal_vvs(&inst.source, &inst.forest, size, &guard).expect("attainable");
        let r = r.result;
        modelled::<C>(
            &[(r.compressed_size_m, r.compressed_size_v)],
            &[(size, granularity)],
            row,
        );
        assert_eq!(
            sizes(&r.vvs.apply(&support(&inst.polys), &r.forest)).1,
            granularity,
            "{row}"
        );
    }
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
) {
    for result in frontier_abstractions(inst) {
        let mut coarse = Valuation::neutral();
        for v in result.vvs.vars(&result.forest) {
            coarse.assign(v, factor);
        }
        let lifted = result.vvs.lift_valuation(&result.forest, &coarse);
        let down = result.apply(&inst.polys);
        let a = coarse.eval_set(&down);
        let b = lifted.eval_set(&inst.polys);
        assert_eq!(a.len(), b.len());
        for ((x, y), p) in a.iter().zip(&b).zip(inst.polys.iter()) {
            assert!(same(x, y), "{}: {:?} vs {:?}", C::NAME, x, y);
            let terms: Vec<C> = p
                .iter()
                .map(|(m, c)| {
                    m.factors()
                        .fold(*c, |acc, (v, e)| acc.mul(&lifted.get(v).pow(e)))
                })
                .collect();
            let defined = C::aggregate(&terms);
            assert!(
                same(y, &defined),
                "{}: {:?} vs the aggregate {:?}",
                C::NAME,
                y,
                defined
            );
        }
    }
}

/// Coefficient mass (the carrier's [`aggregate`](Carrier::aggregate) of
/// a polynomial's coefficients) is preserved by the DP's most compressed
/// abstraction, compared by `same`.
fn mass_preserved_in<C: Carrier>(inst: &Instance<C>, same: impl Fn(&C, &C) -> bool) {
    let floor = frontier_abstractions(inst)
        .pop()
        .expect("the identity at least");
    let down = floor.apply(&inst.polys);
    for (orig, abst) in inst.polys.iter().zip(down.iter()) {
        let (a, b) = (orig.coefficient_mass(), abst.coefficient_mass());
        assert!(same(&a, &b), "{}: {:?} vs {:?}", C::NAME, a, b);
        let coeffs: Vec<C> = orig.iter().map(|(_, c)| *c).collect();
        let defined = C::aggregate(&coeffs);
        assert!(
            same(&a, &defined),
            "{}: {:?} vs the aggregate {:?}",
            C::NAME,
            a,
            defined
        );
    }
}

/// Within `1e-6` of the larger magnitude (or of 1): the room the `f64`
/// row's non-integral factors need when two sums are taken in different
/// orders.
fn near(x: &f64, y: &f64) -> bool {
    (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
}

#[test]
fn optimal_matches_brute_force() {
    cases(CASES, 1001, |rng, _| {
        let (inst, ints, mins) = rows(rng)?;
        optimal_matches_brute_force_in(&inst);
        optimal_matches_brute_force_in(&ints);
        optimal_matches_brute_force_in(&mins);
        Some(())
    });
}

#[test]
fn dense_equals_sparse() {
    cases(CASES, 1002, |rng, _| {
        let (inst, ints, mins) = rows(rng)?;
        dense_equals_sparse_in(&inst);
        dense_equals_sparse_in(&ints);
        dense_equals_sparse_in(&mins);
        Some(())
    });
}

#[test]
fn greedy_is_sound() {
    cases(CASES, 1003, |rng, _| {
        let (inst, ints, mins) = rows(rng)?;
        greedy_is_sound_in(&inst);
        greedy_is_sound_in(&ints);
        greedy_is_sound_in(&mins);
        Some(())
    });
}

#[test]
fn frontier_is_consistent() {
    cases(CASES, 1004, |rng, _| {
        let (inst, ints, mins) = rows(rng)?;
        frontier_is_consistent_in(&inst);
        frontier_is_consistent_in(&ints);
        frontier_is_consistent_in(&mins);
        Some(())
    });
}

/// Abstraction soundness per carrier: `f64` to `1e-6` under a factor
/// in `[0.1, 2)`; `i64` exactly under any integer factor (its sums
/// are exact, cancelled terms included); `MinF64` exactly under a
/// non-negative integer factor, where `min(a·x, b·x) = min(a, b)·x`
/// holds to the bit (rounding is monotone, and integers this small
/// multiply exactly).
#[test]
fn valuation_lifting_commutes() {
    cases(CASES, 1005, |rng, _| {
        let (inst, ints, mins) = rows(rng)?;
        let factor = 0.1 + 1.9 * rng.unit();
        let (int_factor, min_factor) = (rng.int(-4..=4), rng.below(5));
        valuation_lifting_commutes_in(&inst, factor, near);
        valuation_lifting_commutes_in(&ints, int_factor, i64::eq);
        valuation_lifting_commutes_in(&mins, MinF64(min_factor as f64), MinF64::eq);
        Some(())
    });
}

/// Coefficient mass is preserved by any abstraction: to `1e-6` in
/// `f64`, exactly in `i64` (cancelled terms held zero) and in
/// `MinF64` (the minimum of the merged terms).
#[test]
fn mass_preserved() {
    cases(CASES, 1006, |rng, _| {
        let (inst, ints, mins) = rows(rng)?;
        mass_preserved_in(&inst, near);
        mass_preserved_in(&ints, i64::eq);
        mass_preserved_in(&mins, MinF64::eq);
        Some(())
    });
}
