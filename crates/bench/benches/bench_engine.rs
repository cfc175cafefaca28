//! Criterion benchmark of provenance-aware query evaluation: the cost of
//! generating the provenance in the first place (the paper's offline
//! phase), plus the join micro-bench: the fused `Pipeline` (plan, build
//! the `JoinIndex`, probe, materialise the result once) beside the eager
//! `ops::hash_join` it replaced, on selective and non-selective probes.

use criterion::{criterion_group, criterion_main, Criterion};
use provabs_datagen::telephony;
use provabs_datagen::tpch;
use provabs_engine::ops::hash_join;
use provabs_engine::query::Pipeline;
use provabs_engine::Expr;
use provabs_provenance::var::VarTable;

fn bench_engine(c: &mut Criterion) {
    let tele = telephony::generate(telephony::TelephonyConfig {
        customers: 2_000,
        ..telephony::TelephonyConfig::default()
    });
    let tp = tpch::generate(tpch::TpchConfig {
        scale: 4.0,
        ..tpch::TpchConfig::default()
    });

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("telephony_revenue", |b| {
        b.iter(|| {
            let mut vars = VarTable::new();
            telephony::revenue_provenance(&tele, &mut vars)
        })
    });
    group.bench_function("tpch_q1", |b| {
        b.iter(|| {
            let mut vars = VarTable::new();
            tpch::q1(&tp, &mut vars)
        })
    });
    group.bench_function("tpch_q5", |b| {
        b.iter(|| {
            let mut vars = VarTable::new();
            tpch::q5(&tp, &mut vars)
        })
    });
    group.bench_function("tpch_q10", |b| {
        b.iter(|| {
            let mut vars = VarTable::new();
            tpch::q10(&tp, &mut vars)
        })
    });
    group.finish();
}

/// The join micro-bench: both cases probe the same build side (Cust,
/// keyed by customer id), but the selective case first filters the probe
/// side down to one month (≈ 1/12 of the rows reach the index), while the
/// non-selective case probes with every call row and every probe matches.
/// Each `Pipeline` case is the whole life of a plan — build it, build the
/// join index, drive it into the result table — which is what one eager
/// `hash_join` call (the `eager/` cases, the test oracle) also does.
fn bench_join(c: &mut Criterion) {
    let tele = telephony::generate(telephony::TelephonyConfig {
        customers: 4_000,
        ..telephony::TelephonyConfig::default()
    });
    let catalog = &tele.catalog;
    let calls_join_cust = |probe: Pipeline| {
        probe
            .join(catalog, "Cust", &[("CID", "ID")])
            .expect("join keys exist")
            .table()
            .len()
    };
    let january = Expr::col("Mo").eq(Expr::lit(1i64));

    let mut group = c.benchmark_group("engine/join");
    group.sample_size(20);
    // Non-selective: every Calls row has a matching customer.
    group.bench_function("non-selective", |b| {
        b.iter(|| calls_join_cust(Pipeline::scan(catalog, "Calls").expect("registered")))
    });
    // Selective: only January calls probe the index (~1/12 of the rows).
    group.bench_function("selective", |b| {
        b.iter(|| {
            calls_join_cust(
                Pipeline::scan(catalog, "Calls")
                    .expect("registered")
                    .filter(&january)
                    .expect("well-typed"),
            )
        })
    });

    let cust = catalog.get("Cust").expect("registered");
    let calls = catalog.get("Calls").expect("registered");
    group.bench_function("eager/non-selective", |b| {
        b.iter(|| hash_join(calls, cust, &[("CID", "ID")], "c").expect("join"))
    });
    group.bench_function("eager/selective", |b| {
        b.iter(|| {
            let january = provabs_engine::ops::filter(calls, &january).expect("filter");
            hash_join(&january, cust, &[("CID", "ID")], "c").expect("join")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_join);
criterion_main!(benches);
