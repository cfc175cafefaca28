//! Criterion benchmark of Opt vs the competitor summarization [3]
//! (Figure 12's inner loop) at a scale the quadratic competitor can
//! handle.

use criterion::{criterion_group, criterion_main, Criterion};
use provabs_core::competitor::pairwise_summarize;
use provabs_core::optimal::optimal_vvs;
use provabs_datagen::workload::{Workload, WorkloadConfig};
use provabs_provenance::guard::Guard;
use provabs_provenance::working::WorkingSet;

fn bench_competitor(c: &mut Criterion) {
    let mut data = Workload::TpchQ1.generate(&WorkloadConfig {
        scale: 1.0,
        ..WorkloadConfig::default()
    });
    let forest = data.primary_tree(1, 1);
    let bound = data.polys.size_m() * 3 / 4;
    let guard = Guard::unlimited();

    let mut group = c.benchmark_group("competitor/tpch_q1");
    group.sample_size(10);
    group.bench_function("opt", |b| {
        b.iter(|| {
            optimal_vvs(
                &WorkingSet::from_polyset(&data.polys),
                &forest,
                bound,
                &guard,
            )
        })
    });
    group.bench_function("prox", |b| {
        b.iter(|| {
            pairwise_summarize(
                &WorkingSet::from_polyset(&data.polys),
                &forest,
                bound,
                &guard,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_competitor);
criterion_main!(benches);
