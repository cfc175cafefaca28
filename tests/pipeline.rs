//! Cross-crate pipeline tests: generated workloads flow through tree
//! construction, compression, and hypothetical reasoning with all the
//! semantic invariants intact.

use provabs::algo::greedy::greedy_vvs;
use provabs::algo::optimal::optimal_vvs;
use provabs::datagen::workload::{Workload, WorkloadConfig};
use provabs::provenance::guard::Guard;
use provabs::provenance::working::WorkingSet;
use provabs::scenario::scenario::Scenario;
use provabs::scenario::speedup::max_equivalence_error;
use provabs::trees::error::TreeError;

fn cfg() -> WorkloadConfig {
    WorkloadConfig {
        scale: 0.3,
        param_modulus: 32,
        seed: 13,
    }
}

/// Every workload × a type-1 and a type-5 tree × optimal and greedy:
/// outputs are valid, adequate (or correctly reported unattainable), and
/// scenario-equivalent to the original provenance.
#[test]
fn all_workloads_compress_and_answer_scenarios() {
    for workload in Workload::ALL {
        let mut data = workload.generate(&cfg());
        let total = data.polys.size_m();
        let source = WorkingSet::from_polyset(&data.polys);
        let guard = Guard::unlimited();
        for (ty, idx) in [(1u8, 1usize), (5, 0)] {
            let forest = data.primary_tree(ty, idx);
            let bound = (total * 3 / 4).max(1);
            let opt = optimal_vvs(&source, &forest, bound, &guard).map(|(abs, _)| abs.result);
            let greedy = greedy_vvs(&source, &forest, bound, &guard).map(|(abs, _)| abs.result);
            match (&opt, &greedy) {
                (Ok(o), Ok(g)) => {
                    assert!(o.is_adequate_for(bound), "{}", workload.name());
                    assert!(g.is_adequate_for(bound), "{}", workload.name());
                    assert!(
                        g.compressed_size_v <= o.compressed_size_v,
                        "{}: greedy granularity cannot exceed optimal",
                        workload.name()
                    );
                    // Scenario equivalence on the optimal abstraction.
                    let names = o.vvs.labels(&o.forest);
                    let vals: Vec<_> = (0..5)
                        .map(|i| Scenario::random(&names, 0.5, i).valuation(&mut data.vars))
                        .collect();
                    let err = max_equivalence_error(&data.polys, o, &vals);
                    assert!(err < 1e-9, "{}: equivalence error {err}", workload.name());
                }
                (
                    Err(TreeError::BoundUnattainable { .. }),
                    Err(TreeError::BoundUnattainable { .. }),
                ) => {
                    // Consistent refusal is acceptable (Q10-like shapes).
                }
                (o, g) => panic!(
                    "{} type {ty}: inconsistent outcomes {o:?} vs {g:?}",
                    workload.name()
                ),
            }
        }
    }
}

/// Compression monotonicity: looser bounds never lose more granularity.
#[test]
fn looser_bounds_keep_more_granularity() {
    let mut data = Workload::TpchQ5.generate(&cfg());
    let forest = data.primary_tree(2, 0);
    let total = data.polys.size_m();
    let source = WorkingSet::from_polyset(&data.polys);
    let mut last_v = 0usize;
    for bound in [total / 4, total / 2, (total * 3) / 4, total] {
        if let Ok((r, _)) = optimal_vvs(&source, &forest, bound.max(1), &Guard::unlimited()) {
            assert!(
                r.result.compressed_size_v >= last_v,
                "bound {bound}: granularity decreased"
            );
            last_v = r.result.compressed_size_v;
        }
    }
}

/// The plain query answer survives the whole pipeline: original polys,
/// compressed polys and any lifted valuation agree at the neutral point.
#[test]
fn neutral_point_is_preserved() {
    for workload in Workload::ALL {
        let mut data = workload.generate(&cfg());
        let forest = data.primary_tree(1, 0);
        let source = WorkingSet::from_polyset(&data.polys);
        let Ok((abs, _)) = optimal_vvs(&source, &forest, source.size_m(), &Guard::unlimited())
        else {
            panic!("identity bound always attainable");
        };
        let down = abs.result.apply(&data.polys);
        let a: Vec<f64> = data.polys.eval(|_| 1.0);
        let b: Vec<f64> = down.eval(|_| 1.0);
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() < 1e-6 * x.abs().max(1.0),
                "{}: neutral point drifted",
                workload.name()
            );
        }
    }
}

/// Determinism: the same seed yields byte-identical compression results.
#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let mut data = Workload::Telephony.generate(&cfg());
        let forest = data.primary_tree(2, 1);
        let bound = data.polys.size_m() / 2;
        let source = WorkingSet::from_polyset(&data.polys);
        greedy_vvs(&source, &forest, bound, &Guard::unlimited()).map(|(abs, _)| {
            let r = abs.result;
            (
                r.compressed_size_m,
                r.compressed_size_v,
                r.vvs.labels(&r.forest),
            )
        })
    };
    assert_eq!(run().ok(), run().ok());
}
