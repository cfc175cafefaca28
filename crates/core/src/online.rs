//! Online compression via sampling — the extension sketched in §6.
//!
//! The paper's algorithms take fully materialised provenance; §6 proposes
//! compressing *on the fly*: "generate only a sample of the provenance,
//! apply our algorithms to the sample, and obtain a choice of Valid
//! Variable Set. Then use the same VVS to group variables in the full
//! input database". Two gaps are identified there and realised here:
//!
//! 1. **Sampling** ([`sample_indices`] + [`WorkingSet::subset`]): the
//!    heuristic "tailored for simple GROUPBY queries" — sample whole
//!    output polynomials (each output group corresponds to rows of the
//!    relation holding the grouping attribute, so sampling groups
//!    approximates sampling that relation while leaving the other
//!    relations intact).
//! 2. **Bound adaptation** ([`adapt_bound`]): "set this bound as a
//!    function of (1) the original bound and (2) the ratio between the
//!    full provenance size and the sample provenance size, e.g. the first
//!    multiplied by the second", with the full size estimated by
//!    extrapolation from growing samples ([`estimate_full_size`],
//!    following the paper's pointer to extrapolation methods).

use crate::greedy::greedy_vvs;
use crate::optimal::optimal_vvs;
use crate::problem::{evaluate_vvs, InternedAbstraction};
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::guard::{Completion, Guard};
use provabs_provenance::working::WorkingSet;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;

/// Which offline algorithm the online wrapper drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solver {
    /// Algorithm 1 (single tree).
    Optimal,
    /// Algorithm 2 (any forest).
    Greedy,
}

/// Which polynomials a sample keeps: roughly `fraction` of `0..len` (at
/// least one index when `len > 0`), deterministically in `seed`. One RNG
/// draw per index. This models sampling "from the relations that include
/// the grouping attributes, leaving the other relations intact": each
/// output polynomial is one group.
pub fn sample_indices(len: usize, fraction: f64, seed: u64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let picked: Vec<usize> = (0..len)
        .filter(|_| (next() % 1_000_000) as f64 / 1_000_000.0 < fraction)
        .collect();
    if picked.is_empty() && len > 0 {
        // Degenerate draw: keep the first polynomial so the sample is
        // never empty.
        return vec![0];
    }
    picked
}

/// §6's bound adaptation: the original bound scaled by the
/// sample-to-full size ratio (clamped to at least 1).
pub fn adapt_bound(bound: usize, full_size_m: usize, sample_size_m: usize) -> usize {
    if full_size_m == 0 {
        return bound.max(1);
    }
    let ratio = sample_size_m as f64 / full_size_m as f64;
    ((bound as f64 * ratio).round() as usize).max(1)
}

/// Estimates the full provenance size by least-squares extrapolation of
/// `(sampling fraction, observed |sample|_M)` points to fraction 1.0 —
/// the paper's "perform multiple samples of increasing sizes … and
/// extrapolate".
pub fn extrapolate_size(points: &[(f64, usize)]) -> usize {
    assert!(!points.is_empty(), "need at least one sample point");
    if points.len() == 1 {
        let (f, m) = points[0];
        return (m as f64 / f.max(1e-9)).round() as usize;
    }
    // Least squares for m ≈ a·f + b, evaluated at f = 1.
    let n = points.len() as f64;
    let sum_f: f64 = points.iter().map(|&(f, _)| f).sum();
    let sum_m: f64 = points.iter().map(|&(_, m)| m as f64).sum();
    let sum_ff: f64 = points.iter().map(|&(f, _)| f * f).sum();
    let sum_fm: f64 = points.iter().map(|&(f, m)| f * m as f64).sum();
    let denom = n * sum_ff - sum_f * sum_f;
    if denom.abs() < 1e-12 {
        return (sum_m / sum_f.max(1e-9)).round() as usize;
    }
    let a = (n * sum_fm - sum_f * sum_m) / denom;
    let b = (sum_m - a * sum_f) / n;
    (a + b).round().max(1.0) as usize
}

/// Estimates the full size from samples at the given fractions.
pub fn estimate_full_size<C: Coefficient>(
    source: &WorkingSet<C>,
    fractions: &[f64],
    seed: u64,
) -> usize {
    let points: Vec<(f64, usize)> = fractions
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let picked = sample_indices(source.num_polys(), f, seed + i as u64);
            (f, picked.iter().map(|&pi| source.poly_size_m(pi)).sum())
        })
        .collect();
    extrapolate_size(&points)
}

/// The outcome of one online-compression run.
#[derive(Clone, Debug)]
pub struct OnlineOutcome<C> {
    /// Sizes of the sample the VVS was chosen on.
    pub sample_size_m: usize,
    /// The bound handed to the offline algorithm on the sample.
    pub adapted_bound: usize,
    /// The chosen VVS evaluated against the *full* provenance, with the
    /// abstracted working set attached.
    pub full: InternedAbstraction<C>,
}

/// §6's end-to-end scheme under an execution [`Guard`]: sample, adapt the
/// bound, choose a VVS on the sample with the requested solver, then
/// apply that VVS to the full provenance and report the real outcome.
///
/// The sample is a *compacted* working-set [`subset`](WorkingSet::subset)
/// — a fresh arena holding only the sampled polynomials' monomials
/// (sample ids are local to the sample, not valid against `source`'s
/// arena) — and the final full-provenance measurement is an id-space
/// substitution on a clone of `source`.
///
/// The guard is handed through to the inner solver: a trip mid-solve
/// surfaces the solver's anytime result (greedy prefix, or the optimal
/// DP's identity fallback) as the sampled VVS, tagged
/// [`Completion::Interrupted`] with the size that VVS reaches on the full
/// provenance.
///
/// The returned result may be inadequate for the original bound — that is
/// the scheme's inherent risk ("this sample is still not guaranteed to be
/// representative"); callers check
/// [`AbstractionResult::is_adequate_for`](crate::problem::AbstractionResult::is_adequate_for)
/// and the `online` experiment quantifies how often that happens.
#[allow(clippy::too_many_arguments)]
pub fn online_compress<C: Coefficient>(
    source: &WorkingSet<C>,
    forest: &Forest,
    bound: usize,
    fraction: f64,
    seed: u64,
    solver: Solver,
    guard: &Guard,
) -> Result<(OnlineOutcome<C>, Completion), TreeError> {
    let indices = sample_indices(source.num_polys(), fraction, seed);
    let sample = source.subset(&indices);
    let sample_size_m = sample.size_m();
    let adapted = adapt_bound(bound, source.size_m(), sample_size_m);
    let (on_sample, completion) = match solver {
        Solver::Optimal => optimal_vvs(&sample, forest, adapted, guard)?,
        Solver::Greedy => greedy_vvs(&sample, forest, adapted, guard)?,
    };
    // Re-evaluate the chosen VVS against the full provenance. The VVS
    // lives on the sample-cleaned forest; variables absent from the
    // sample but present in the full set stay unabstracted, exactly as
    // the scheme prescribes.
    let full = evaluate_vvs(
        source.clone(),
        &on_sample.result.forest,
        on_sample.result.vvs,
        source.size_v(),
    );
    let completion = match completion {
        Completion::Interrupted { reason, steps, .. } => Completion::Interrupted {
            reason,
            steps,
            size_reached: full.result.compressed_size_m,
        },
        complete => complete,
    };
    Ok((
        OnlineOutcome {
            sample_size_m,
            adapted_bound: adapted,
            full,
        },
        completion,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_provenance::monomial::Monomial;
    use provabs_provenance::polynomial::Polynomial;
    use provabs_provenance::polyset::PolySet;
    use provabs_provenance::var::{VarId, VarTable};
    use provabs_trees::builder::TreeBuilder;

    /// Many structurally-identical polynomials over a shared variable
    /// pool — the regime where a sample is representative.
    fn uniform_instance() -> (WorkingSet<f64>, Forest) {
        let mut vars = VarTable::new();
        let leaves: Vec<VarId> = (0..8).map(|i| vars.intern(&format!("x{i}"))).collect();
        let ctx: Vec<VarId> = (0..4).map(|i| vars.intern(&format!("c{i}"))).collect();
        let mut polys = Vec::new();
        for p in 0..40 {
            let mut poly = Polynomial::zero();
            for (i, &l) in leaves.iter().enumerate() {
                poly.add_term(Monomial::from_vars([l, ctx[(p + i) % 4]]), 1.0 + p as f64);
            }
            polys.push(poly);
        }
        let tree = TreeBuilder::new("X")
            .child("X", "lo")
            .child("X", "hi")
            .leaves("lo", (0..4).map(|i| format!("x{i}")))
            .leaves("hi", (4..8).map(|i| format!("x{i}")))
            .build(&mut vars)
            .expect("tree");
        (
            WorkingSet::from_polyset(&PolySet::from_vec(polys)),
            Forest::single(tree),
        )
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let a = sample_indices(40, 0.3, 9);
        assert_eq!(a, sample_indices(40, 0.3, 9));
        assert!(a.len() < 40);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
        assert_eq!(sample_indices(40, 0.0, 9), vec![0], "never empty");
        assert_eq!(sample_indices(40, 1.0, 9).len(), 40);
        assert_eq!(sample_indices(0, 0.5, 1), Vec::<usize>::new());
    }

    #[test]
    fn bound_adaptation_scales_by_ratio() {
        assert_eq!(adapt_bound(100, 1000, 250), 25);
        assert_eq!(adapt_bound(100, 1000, 1000), 100);
        assert_eq!(adapt_bound(1, 1000, 10), 1, "clamped to 1");
        assert_eq!(adapt_bound(5, 0, 0), 5);
    }

    #[test]
    fn extrapolation_recovers_linear_growth() {
        // Perfectly linear: m = 1000·f.
        let points: Vec<(f64, usize)> = [0.1, 0.2, 0.4]
            .iter()
            .map(|&f| (f, (1000.0 * f) as usize))
            .collect();
        let est = extrapolate_size(&points);
        assert!((est as i64 - 1000).abs() <= 1, "got {est}");
        // Single point falls back to proportional scaling.
        assert_eq!(extrapolate_size(&[(0.25, 250)]), 1000);
    }

    #[test]
    fn estimate_is_close_on_uniform_polynomials() {
        let (source, _) = uniform_instance();
        let est = estimate_full_size(&source, &[0.2, 0.4, 0.6], 3);
        let real = source.size_m();
        let rel = (est as f64 - real as f64).abs() / real as f64;
        assert!(rel < 0.35, "estimate {est} vs real {real}");
    }

    #[test]
    fn online_vvs_matches_offline_on_uniform_instance() {
        // With identical polynomial structure the sample sees the same
        // merge opportunities, so the online VVS equals the offline one.
        let (source, forest) = uniform_instance();
        let guard = Guard::unlimited();
        let bound = source.size_m() / 2;
        let offline = optimal_vvs(&source, &forest, bound, &guard)
            .expect("attainable")
            .0
            .result;
        let (online, completion) =
            online_compress(&source, &forest, bound, 0.3, 5, Solver::Optimal, &guard)
                .expect("sampled");
        assert!(completion.is_complete());
        assert!(online.full.result.is_adequate_for(bound));
        assert_eq!(
            online.full.result.vvs.labels(&online.full.result.forest),
            offline.vvs.labels(&offline.forest)
        );
        // The sample is the drawn subset, the bound is scaled to it, and
        // the working set handed back is the full abstracted set.
        let drawn = source.subset(&sample_indices(source.num_polys(), 0.3, 5));
        assert_eq!(online.sample_size_m, drawn.size_m());
        assert!(online.sample_size_m < source.size_m());
        assert!(online.adapted_bound < bound);
        assert_eq!(
            online.full.working.size_m(),
            online.full.result.compressed_size_m
        );
        assert_eq!(online.full.result.original_size_m, source.size_m());
    }

    #[test]
    fn online_greedy_solver_works() {
        let (source, forest) = uniform_instance();
        let bound = source.size_m() / 2;
        let (online, _) = online_compress(
            &source,
            &forest,
            bound,
            0.5,
            11,
            Solver::Greedy,
            &Guard::unlimited(),
        )
        .expect("sampled");
        let full = online.full.result;
        full.vvs.validate(&full.forest).expect("valid VVS");
        assert!(full.is_adequate_for(bound));
    }

    #[test]
    #[should_panic(expected = "fraction in [0, 1]")]
    fn invalid_fraction_panics() {
        let _ = sample_indices(40, 1.5, 0);
    }
}
