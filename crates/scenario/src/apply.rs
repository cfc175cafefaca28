//! Timed batch application of scenarios — the serial reference engine.
//!
//! [`apply_batch`] is the plain hash-map loop the paper describes: one
//! [`Valuation::eval_set`] per scenario, in order, on the calling thread.
//! It is deliberately kept as the semantics reference; the production
//! path is [`crate::executor::eval`], which runs the same grid over
//! compiled columns in chunks and must agree with this loop bit for bit
//! (see the `eval_matrix` suite).

use provabs_provenance::polyset::PolySet;
use provabs_provenance::valuation::Valuation;
use std::time::{Duration, Instant};

/// The values and wall-clock time of applying a batch of valuations.
#[derive(Clone, Debug)]
pub struct TimedRun {
    /// `values[s][p]` = value of polynomial `p` under scenario `s`.
    pub values: Vec<Vec<f64>>,
    /// Total wall-clock time of the evaluations.
    pub elapsed: Duration,
}

/// Evaluates every valuation against every polynomial, timing the whole
/// batch (this is the operation hypothetical reasoning repeats per
/// analyst question — the quantity Figure 10 speeds up). Serial hash-map
/// reference; use [`crate::executor::eval`] for the compiled engine.
pub fn apply_batch(polys: &PolySet<f64>, valuations: &[Valuation<f64>]) -> TimedRun {
    let start = Instant::now();
    let values = valuations.iter().map(|v| v.eval_set(polys)).collect();
    TimedRun {
        values,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_provenance::monomial::Monomial;
    use provabs_provenance::polynomial::Polynomial;
    use provabs_provenance::var::VarTable;

    #[test]
    fn batch_shapes_and_values() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let polys = PolySet::from_vec(vec![
            Polynomial::from_terms([(Monomial::var(x), 2.0)]),
            Polynomial::from_terms([(Monomial::var(x), 3.0)]),
        ]);
        let vals = vec![Valuation::neutral(), Valuation::neutral().set(x, 10.0)];
        let run = apply_batch(&polys, &vals);
        assert_eq!(run.values, vec![vec![2.0, 3.0], vec![20.0, 30.0]]);
        assert!(run.elapsed.as_nanos() > 0);
    }

    #[test]
    fn empty_batch() {
        let polys: PolySet<f64> = PolySet::new();
        let run = apply_batch(&polys, &[Valuation::neutral()]);
        assert_eq!(run.values, vec![Vec::<f64>::new()]);
    }
}
