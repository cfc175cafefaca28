//! Large-scale smoke tests, ignored by default (they take minutes in
//! debug builds). Run with:
//!
//! ```bash
//! cargo test --release -p provabs --test stress -- --ignored
//! ```

use provabs::algo::greedy::greedy_vvs;
use provabs::algo::optimal::optimal_vvs;
use provabs::datagen::workload::{Workload, WorkloadConfig};
use provabs::provenance::guard::Guard;
use provabs::provenance::working::WorkingSet;
use provabs::scenario::executor::EvalOptions;
use provabs::scenario::scenario::Scenario;
use provabs::scenario::speedup::max_equivalence_error;
use provabs::{SessionBuilder, Strategy};

/// The telephony workload at ~50× the test scale: several hundred
/// thousand monomials, exercising the sparse DP, the greedy index and the
/// speedup harness end to end.
#[test]
#[ignore = "multi-minute in debug builds; run with --release -- --ignored"]
fn telephony_at_scale() {
    let mut data = Workload::Telephony.generate(&WorkloadConfig {
        scale: 10.0,
        param_modulus: 128,
        seed: 1,
    });
    assert!(data.polys.size_m() > 100_000, "large instance");
    let forest = data.primary_tree(2, 1);
    let bound = data.polys.size_m() / 2;
    let source = WorkingSet::from_polyset(&data.polys);
    let guard = Guard::unlimited();
    let opt = optimal_vvs(&source, &forest, bound, &guard)
        .expect("attainable")
        .0
        .result;
    assert!(opt.is_adequate_for(bound));
    let (greedy, _) = greedy_vvs(&source, &forest, bound, &guard).expect("attainable");
    assert!(greedy.result.compressed_size_v <= opt.compressed_size_v);

    // The what-if machinery stays numerically sound at scale.
    let names = opt.vvs.labels(&opt.forest);
    let scenarios: Vec<_> = (0..10).map(|i| Scenario::random(&names, 0.5, i)).collect();
    let valuations: Vec<_> = scenarios
        .iter()
        .map(|s| s.valuation(&mut data.vars))
        .collect();
    assert!(max_equivalence_error(&data.polys, &opt, &valuations) < 1e-9);
    let session = SessionBuilder::new(data.polys, data.vars)
        .forest(forest)
        .strategy(Strategy::Optimal)
        .bound(bound)
        .build()
        .expect("valid");
    let report = session
        .speedup_report(&scenarios, 3, &EvalOptions::serial_reference())
        .expect("known names, attainable bound");
    assert!(
        report.speedup_pct > 0.0,
        "compression must pay off at scale"
    );
}

/// Full pipeline determinism at a larger TPC-H scale.
#[test]
#[ignore = "multi-minute in debug builds; run with --release -- --ignored"]
fn tpch_q10_at_scale_is_deterministic() {
    let run = || {
        let mut data = Workload::TpchQ10.generate(&WorkloadConfig {
            scale: 20.0,
            param_modulus: 128,
            seed: 2,
        });
        let forest = data.primary_tree(1, 3);
        let bound = data.polys.size_m() * 99 / 100;
        let source = WorkingSet::from_polyset(&data.polys);
        optimal_vvs(&source, &forest, bound, &Guard::unlimited())
            .map(|(abs, _)| (abs.result.compressed_size_m, abs.result.compressed_size_v))
            .map_err(|e| format!("{e}"))
    };
    assert_eq!(run(), run());
}
