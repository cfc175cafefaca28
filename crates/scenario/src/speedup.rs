//! Assignment-time speedup (Figure 10).
//!
//! "The second set of experiments … studies the time it takes to use the
//! compressed provenance for observing results under hypothetical
//! scenarios, compared with the time of the original provenance
//! expression." A scenario posed on the abstracted variables is applied
//! to the compressed set directly and to the original set through
//! `Vvs::lift_valuation` — both produce identical per-polynomial values
//! (tested), so the comparison is apples-to-apples.

use provabs_core::problem::AbstractionResult;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::valuation::Valuation;
use std::time::Duration;

/// Timing comparison between original and compressed provenance.
#[derive(Clone, Debug)]
pub struct SpeedupReport {
    /// Batch time on the original polynomials.
    pub original: Duration,
    /// Batch time on the compressed polynomials.
    pub compressed: Duration,
    /// `(original − compressed) / original`, in percent (clamped ≥ 0).
    pub speedup_pct: f64,
}

/// The timed core shared by every speedup measurement: alternates the
/// two sides across `repeat` repetitions (so cache warm-up does not
/// systematically favour either one) and folds the accumulated times
/// into a [`SpeedupReport`]. The callbacks time one original-side /
/// compressed-side batch each; callers bring their own engines
/// (`provabs_session::Session::speedup_report` its cached lowerings).
/// A batch that fails ends the measurement with its error.
pub fn measure_alternating<E>(
    repeat: usize,
    mut time_original: impl FnMut() -> Result<Duration, E>,
    mut time_compressed: impl FnMut() -> Result<Duration, E>,
) -> Result<SpeedupReport, E> {
    let mut t_orig = Duration::ZERO;
    let mut t_comp = Duration::ZERO;
    for i in 0..repeat.max(1) {
        if i % 2 == 0 {
            t_orig += time_original()?;
            t_comp += time_compressed()?;
        } else {
            t_comp += time_compressed()?;
            t_orig += time_original()?;
        }
    }
    let speedup_pct = if t_orig.as_secs_f64() > 0.0 {
        ((t_orig.as_secs_f64() - t_comp.as_secs_f64()) / t_orig.as_secs_f64() * 100.0).max(0.0)
    } else {
        0.0
    };
    Ok(SpeedupReport {
        original: t_orig,
        compressed: t_comp,
        speedup_pct,
    })
}

/// Checks the semantic equivalence underlying the speedup comparison:
/// for every scenario, evaluating the compressed provenance equals
/// evaluating the original under the lifted valuation. Returns the
/// maximal absolute deviation (should be float noise).
pub fn max_equivalence_error(
    polys: &PolySet<f64>,
    result: &AbstractionResult,
    coarse_scenarios: &[Valuation<f64>],
) -> f64 {
    max_equivalence_error_prepared(polys, &result.apply(polys), result, coarse_scenarios)
}

/// [`max_equivalence_error`] off an already-materialised `𝒫↓S` (normally
/// `result.apply(polys)`, possibly cached by the caller — e.g. a
/// `provabs_session::Session` holding the abstracted set between calls).
pub fn max_equivalence_error_prepared(
    polys: &PolySet<f64>,
    compressed: &PolySet<f64>,
    result: &AbstractionResult,
    coarse_scenarios: &[Valuation<f64>],
) -> f64 {
    let mut worst: f64 = 0.0;
    for v in coarse_scenarios {
        let lifted = result.vvs.lift_valuation(&result.forest, v);
        let a = v.eval_set(compressed);
        let b = lifted.eval_set(polys);
        for (x, y) in a.iter().zip(&b) {
            let scale = x.abs().max(y.abs()).max(1.0);
            worst = worst.max((x - y).abs() / scale);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_batch;
    use crate::executor::{eval, EvalOptions, ExecError};
    use crate::scenario::Scenario;
    use provabs_core::optimal::optimal_vvs;
    use provabs_provenance::compiled::CompiledPolySet;
    use provabs_provenance::guard::Guard;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::var::VarTable;
    use provabs_provenance::working::WorkingSet;
    use provabs_trees::forest::Forest;
    use provabs_trees::generate::plans_tree;

    fn setup() -> (PolySet<f64>, AbstractionResult, VarTable) {
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3\n\
             77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 \
             + 69.7·b2·m1 + 100.65·b2·m3",
            &mut vars,
        )
        .expect("parse");
        let forest = Forest::single(plans_tree(&mut vars));
        let source = WorkingSet::from_polyset(&polys);
        let (abs, _) = optimal_vvs(&source, &forest, 9, &Guard::unlimited()).expect("solvable");
        (polys, abs.result, vars)
    }

    fn lift(result: &AbstractionResult, coarse: &[Valuation<f64>]) -> Vec<Valuation<f64>> {
        coarse
            .iter()
            .map(|v| result.vvs.lift_valuation(&result.forest, v))
            .collect()
    }

    #[test]
    fn compressed_and_lifted_agree() {
        let (polys, result, mut vars) = setup();
        // A scenario over the abstraction's meta-variables: +10 % on all
        // small-business plans, −20 % on specials.
        let scenarios = vec![
            Scenario::new()
                .set("SB", 1.1)
                .set("Special", 0.8)
                .valuation(&mut vars),
            Scenario::new().set("p1", 1.05).valuation(&mut vars),
            Valuation::neutral(),
        ];
        let err = max_equivalence_error(&polys, &result, &scenarios);
        assert!(err < 1e-12, "equivalence error {err}");
    }

    /// The paper-faithful Figure 10 configuration: the serial hash-map
    /// loop on both sides.
    #[test]
    fn speedup_report_is_well_formed() {
        let (polys, result, mut vars) = setup();
        let coarse: Vec<_> = (0..20)
            .map(|i| {
                Scenario::new()
                    .set("SB", 1.0 + i as f64 / 100.0)
                    .valuation(&mut vars)
            })
            .collect();
        let compressed = result.apply(&polys);
        let lifted = lift(&result, &coarse);
        let report = measure_alternating(
            3,
            || Ok::<_, ExecError>(apply_batch(&polys, &lifted).elapsed),
            || Ok(apply_batch(&compressed, &coarse).elapsed),
        )
        .expect("neither side fails");
        assert!(report.original.as_nanos() > 0);
        assert!(report.compressed.as_nanos() > 0);
        assert!((0.0..=100.0).contains(&report.speedup_pct));
    }

    #[test]
    fn speedup_with_compiled_parallel_engine_is_well_formed() {
        let (polys, result, mut vars) = setup();
        let coarse: Vec<_> = (0..8)
            .map(|i| {
                Scenario::new()
                    .set("SB", 1.0 + i as f64 / 50.0)
                    .valuation(&mut vars)
            })
            .collect();
        let original = CompiledPolySet::compile(&polys);
        let compressed = CompiledPolySet::compile(&result.apply(&polys));
        let lifted = lift(&result, &coarse);
        let time = |side: &CompiledPolySet<f64>, batch: &[Valuation<f64>]| {
            let opts = EvalOptions::new().threads(2);
            let run = eval(side.view(), batch, &opts, &Guard::unlimited());
            Ok::<_, ExecError>(run.into_result()?.elapsed)
        };
        let report = measure_alternating(
            2,
            || time(&original, &lifted),
            || time(&compressed, &coarse),
        )
        .expect("neither side fails");
        assert!(report.original.as_nanos() > 0);
        assert!(report.compressed.as_nanos() > 0);
        assert!((0.0..=100.0).contains(&report.speedup_pct));
    }

    #[test]
    fn march_discount_end_to_end() {
        // Example 1's scenario on the compressed provenance: quarter-level
        // pricing with q1 × 0.8 after abstracting months — checked against
        // the hand-computed value.
        let mut vars = VarTable::new();
        let polys = parse_polyset("220.8·p1·m1 + 240·p1·m3", &mut vars).expect("parse");
        let forest = Forest::single(provabs_trees::generate::months_tree(&mut vars));
        let source = WorkingSet::from_polyset(&polys);
        let (abs, _) = optimal_vvs(&source, &forest, 1, &Guard::unlimited()).expect("solvable");
        let val = Scenario::new().set("q1", 0.8).valuation(&mut vars);
        let compressed = abs.result.apply(&polys);
        let got = val.eval_set(&compressed)[0];
        assert!((got - (220.8 + 240.0) * 0.8).abs() < 1e-9);
    }
}
