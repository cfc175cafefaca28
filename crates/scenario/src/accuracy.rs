//! Accuracy measures.
//!
//! Two different notions appear in the evaluation:
//!
//! * **Granularity accuracy** (Table 1): how close a heuristic's retained
//!   granularity `|𝒫↓S|_V` is to the optimum's — the metric by which the
//!   greedy algorithm scores 55–100 % depending on tree type.
//! * **Scenario accuracy**: once variables are grouped, a scenario finer
//!   than the abstraction cannot be expressed exactly; applying its
//!   group-average ([`coarse_valuation`]) to the compressed provenance
//!   deviates from the true fine-grained answer. [`error_stats`]
//!   quantifies that deviation (the "reasonable loss of accuracy" of the
//!   abstract); `Session::accuracy_report` evaluates the two sides.

use provabs_core::problem::AbstractionResult;
use provabs_provenance::valuation::Valuation;

/// Table 1's accuracy: the heuristic's retained granularity relative to
/// the optimum (`≤ 1.0`; `1.0` means the heuristic found an optimal VVS).
pub fn granularity_accuracy(heuristic: &AbstractionResult, optimal: &AbstractionResult) -> f64 {
    if optimal.compressed_size_v == 0 {
        return 1.0;
    }
    heuristic.compressed_size_v as f64 / optimal.compressed_size_v as f64
}

/// Error statistics of answering a fine-grained scenario through the
/// compressed provenance.
#[derive(Clone, Debug)]
pub struct ErrorReport {
    /// Mean relative error over all result polynomials.
    pub mean_relative: f64,
    /// Maximal relative error.
    pub max_relative: f64,
}

/// The coarse counterpart of a fine scenario under an abstraction: each
/// chosen internal node (meta-variable) is assigned the *mean* of its
/// group's fine values; everything else is kept as-is. This is the
/// canonical way to pose a fine question on compressed provenance — the
/// approximation whose error [`error_stats`] measures.
pub fn coarse_valuation(result: &AbstractionResult, fine: &Valuation<f64>) -> Valuation<f64> {
    let mut coarse = fine.clone();
    for (ti, node) in result.vvs.nodes() {
        let tree = result.forest.tree(ti);
        if tree.is_leaf(node) {
            continue;
        }
        let leaves = tree.descendant_leaves(node);
        let mean = leaves
            .iter()
            .map(|&l| fine.get(tree.var_of(l)))
            .sum::<f64>()
            / leaves.len() as f64;
        coarse.assign(tree.var_of(node), mean);
    }
    coarse
}

/// Folds exact and approximate per-polynomial answers into the relative
/// error statistics of an [`ErrorReport`] (the session façade evaluates
/// the two sides off its own cached lowerings).
pub fn error_stats(exact: &[f64], approx: &[f64]) -> ErrorReport {
    let mut mean = 0.0;
    let mut max: f64 = 0.0;
    let n = exact.len().max(1);
    for (e, a) in exact.iter().zip(approx) {
        let scale = e.abs().max(1e-12);
        let rel = (e - a).abs() / scale;
        mean += rel / n as f64;
        max = max.max(rel);
    }
    ErrorReport {
        mean_relative: mean,
        max_relative: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use provabs_core::optimal::optimal_vvs;
    use provabs_provenance::guard::Guard;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::polyset::PolySet;
    use provabs_provenance::var::VarTable;
    use provabs_provenance::working::WorkingSet;
    use provabs_trees::forest::Forest;
    use provabs_trees::generate::months_tree;

    fn setup() -> (PolySet<f64>, AbstractionResult, VarTable) {
        let mut vars = VarTable::new();
        let polys = parse_polyset("100·p1·m1 + 200·p1·m3", &mut vars).expect("parse");
        let forest = Forest::single(months_tree(&mut vars));
        let source = WorkingSet::from_polyset(&polys);
        let (abs, _) = optimal_vvs(&source, &forest, 1, &Guard::unlimited()).expect("solvable");
        (polys, abs.result, vars)
    }

    #[test]
    fn uniform_scenarios_have_zero_error() {
        // A scenario constant on each group is representable exactly.
        let (polys, result, mut vars) = setup();
        let fine = Scenario::new()
            .set("m1", 0.8)
            .set("m3", 0.8)
            .valuation(&mut vars);
        let coarse = coarse_valuation(&result, &fine);
        let report = error_stats(
            &fine.eval_set(&polys),
            &coarse.eval_set(&result.apply(&polys)),
        );
        assert!(report.max_relative < 1e-12, "{report:?}");
    }

    #[test]
    fn non_uniform_scenarios_have_positive_bounded_error() {
        let (polys, result, mut vars) = setup();
        // m1 × 0.6, m3 × 1.0: group mean 0.8.
        let fine = Scenario::new().set("m1", 0.6).valuation(&mut vars);
        let coarse = coarse_valuation(&result, &fine);
        let report = error_stats(
            &fine.eval_set(&polys),
            &coarse.eval_set(&result.apply(&polys)),
        );
        // Exact: 100·0.6 + 200·1.0 = 260; approx: 300·0.8 = 240.
        let expected = (260.0 - 240.0) / 260.0;
        assert!((report.mean_relative - expected).abs() < 1e-9, "{report:?}");
        assert!(report.max_relative >= report.mean_relative);
    }

    #[test]
    fn granularity_accuracy_is_one_when_equal() {
        let (_, result, _) = setup();
        assert_eq!(granularity_accuracy(&result, &result), 1.0);
    }
}
