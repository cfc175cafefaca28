//! Criterion benchmark of scenario assignment time, original vs
//! compressed provenance (Figure 10's inner loop).

use criterion::{criterion_group, criterion_main, Criterion};
use provabs_core::optimal::optimal_vvs;
use provabs_datagen::workload::{Workload, WorkloadConfig};
use provabs_provenance::guard::Guard;
use provabs_provenance::working::WorkingSet;
use provabs_scenario::scenario::Scenario;

fn bench_apply(c: &mut Criterion) {
    let mut data = Workload::Telephony.generate(&WorkloadConfig {
        scale: 2.0,
        ..WorkloadConfig::default()
    });
    let forest = data.primary_tree(1, 2);
    let bound = data.polys.size_m() / 2;
    let source = WorkingSet::from_polyset(&data.polys);
    let (abs, _) = optimal_vvs(&source, &forest, bound, &Guard::unlimited()).expect("compressible");
    let result = abs.result;
    let compressed = result.apply(&data.polys);
    let names = result.vvs.labels(&result.forest);
    let coarse: Vec<_> = (0..16)
        .map(|i| Scenario::random(&names, 0.5, i).valuation(&mut data.vars))
        .collect();
    let lifted: Vec<_> = coarse
        .iter()
        .map(|v| result.vvs.lift_valuation(&result.forest, v))
        .collect();

    let mut group = c.benchmark_group("apply/telephony");
    group.sample_size(20);
    group.bench_function("original", |b| {
        b.iter(|| {
            lifted
                .iter()
                .map(|v| v.eval_set(&data.polys))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("compressed", |b| {
        b.iter(|| {
            coarse
                .iter()
                .map(|v| v.eval_set(&compressed))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);
