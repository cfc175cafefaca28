//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * sparse (§4.1) vs dense DP arrays in Algorithm 1,
//! * the `D_P` remainder-map ML computation vs the naive
//!   substitute-and-count definition (both baselines are oracles of
//!   `provabs_core::reference`; every timed closure starts from the
//!   hash-map poly-set, bridge included).

use criterion::{criterion_group, criterion_main, Criterion};
use provabs_core::loss::TreeLoss;
use provabs_core::optimal::optimal_vvs;
use provabs_core::reference::{ml_naive, optimal_vvs_dense};
use provabs_datagen::workload::{Workload, WorkloadConfig};
use provabs_provenance::guard::Guard;
use provabs_provenance::working::WorkingSet;
use provabs_trees::cut::Vvs;

fn bench_dp_variants(c: &mut Criterion) {
    let mut data = Workload::Telephony.generate(&WorkloadConfig {
        scale: 1.0,
        ..WorkloadConfig::default()
    });
    let forest = data.primary_tree(2, 1);
    let bound = data.polys.size_m() / 2;
    let mut group = c.benchmark_group("ablation/dp");
    group.sample_size(10);
    group.bench_function("sparse", |b| {
        b.iter(|| {
            optimal_vvs(
                &WorkingSet::from_polyset(&data.polys),
                &forest,
                bound,
                &Guard::unlimited(),
            )
        })
    });
    group.bench_function("dense", |b| {
        b.iter(|| optimal_vvs_dense(&data.polys, &forest, bound))
    });
    group.finish();
}

fn bench_ml_variants(c: &mut Criterion) {
    let mut data = Workload::Telephony.generate(&WorkloadConfig {
        scale: 1.0,
        ..WorkloadConfig::default()
    });
    let forest = data.primary_tree(1, 2);
    let cleaned = provabs_trees::clean::clean_forest(&forest, &data.polys);
    let tree = cleaned.tree(0).clone();
    let mut group = c.benchmark_group("ablation/ml");
    group.sample_size(10);
    // Efficient: one pass computes ML for every node.
    group.bench_function("remainder_maps_all_nodes", |b| {
        b.iter(|| TreeLoss::build(&WorkingSet::from_polyset(&data.polys), &tree))
    });
    // Naive: substitute-and-count per internal node.
    group.bench_function("naive_all_nodes", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for node in tree.node_ids() {
                if tree.is_leaf(node) {
                    continue;
                }
                let mut chosen: Vec<_> = tree
                    .leaves()
                    .into_iter()
                    .filter(|&l| !tree.is_ancestor_or_self(node, l))
                    .collect();
                chosen.push(node);
                let vvs = Vvs::from_per_tree(vec![chosen]);
                total += ml_naive(&data.polys, &cleaned, &vvs);
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dp_variants, bench_ml_variants);
criterion_main!(benches);
