//! Cross-workload equivalence battery for the sharded engine.
//!
//! Three contracts, each checked across telephony, TPC-H Q10 and the
//! supply-chain BOM workload at several bounds:
//!
//! 1. **K = 1 is the plain engine, bit for bit** — same VVS, same
//!    measures, same error (including `best_possible`).
//! 2. **K > 1 keeps whole-set bound meaning** — a complete sharded run
//!    satisfies the *global* monomial bound (or reports a sharded floor
//!    above it) and preserves every polynomial's value.
//! 3. **Streaming ingest matches whole-input compression** on what
//!    compression preserves: every per-polynomial coefficient sum
//!    survives to the digit (tolerance `1e-9` relative, for f64
//!    re-association only), and both paths land under the same bound.
//!
//! The `#[ignore]`d million-monomial test at the bottom is the CI stress
//! job's entry point (`--release -- --ignored`): bounded-memory ingest
//! of `ScaleConfig::million()` with the peak-live assertion.

use provabs_core::greedy::greedy_vvs;
use provabs_core::shard::{sharded_greedy, StreamingCompressor, StreamingConfig};
use provabs_datagen::scale::{scale_chunks, scale_forest, scale_working_set, ScaleConfig};
use provabs_datagen::{Workload, WorkloadData};
use provabs_provenance::guard::Guard;
use provabs_provenance::working::WorkingSet;
use provabs_testkit::fixture;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;

/// The three workload families the battery sweeps, at test-time scale.
fn workloads() -> [(&'static str, WorkloadData, Forest); 3] {
    [
        Workload::Telephony,
        Workload::TpchQ10,
        Workload::SupplyChain,
    ]
    .map(|w| {
        let (data, forest) = fixture(w);
        (w.name(), data, forest)
    })
}

/// A bound sweep for a working set of `size_m` monomials: identity,
/// light, halving, aggressive, and unattainably tight.
fn bounds_for(size_m: usize) -> Vec<usize> {
    vec![
        size_m + 5,
        size_m * 3 / 4,
        (size_m / 2).max(1),
        (size_m / 4).max(1),
        1,
    ]
}

/// Per-polynomial coefficient sums — the invariant every abstraction
/// preserves exactly (up to f64 re-association).
fn poly_sums(ws: &WorkingSet<f64>) -> Vec<f64> {
    (0..ws.num_polys())
        .map(|pi| ws.poly_terms(pi).map(|(_, c)| *c).sum())
        .collect()
}

#[test]
fn one_shard_is_the_plain_engine_across_workloads() {
    let guard = Guard::unlimited();
    for (name, data, forest) in &workloads() {
        let ws = &data.interned.working;
        for bound in bounds_for(ws.size_m()) {
            let plain = greedy_vvs(ws, forest, bound, &guard);
            let sharded = sharded_greedy(ws, forest, bound, 1, &guard);
            match (plain, sharded) {
                (Ok((pa, pc)), Ok((sa, sc))) => {
                    assert_eq!(pa.result.vvs, sa.result.vvs, "{name} bound {bound}");
                    assert_eq!(
                        pa.result.compressed_size_m, sa.result.compressed_size_m,
                        "{name} bound {bound}"
                    );
                    assert_eq!(
                        pa.result.compressed_size_v, sa.result.compressed_size_v,
                        "{name} bound {bound}"
                    );
                    assert_eq!(pa.working.size_m(), sa.working.size_m());
                    assert_eq!(pc.is_complete(), sc.is_complete());
                }
                (Err(pe), Err(se)) => {
                    assert_eq!(format!("{pe:?}"), format!("{se:?}"), "{name} bound {bound}");
                }
                (p, s) => panic!("{name} bound {bound}: plain {p:?} vs sharded {s:?} disagree"),
            }
        }
    }
}

#[test]
fn multi_shard_respects_the_global_bound_across_workloads() {
    let guard = Guard::unlimited();
    for (name, data, forest) in &workloads() {
        let ws = &data.interned.working;
        let original_sums = poly_sums(ws);
        for shards in [2, 4, 8] {
            for bound in bounds_for(ws.size_m()) {
                match sharded_greedy(ws, forest, bound, shards, &guard) {
                    Ok((abs, completion)) => {
                        assert!(completion.is_complete(), "{name} K={shards} bound {bound}");
                        assert!(
                            abs.result.compressed_size_m <= bound,
                            "{name} K={shards}: {} > bound {bound}",
                            abs.result.compressed_size_m
                        );
                        assert_eq!(abs.working.size_m(), abs.result.compressed_size_m);
                        assert_eq!(abs.result.original_size_m, ws.size_m());
                        // Value preservation: the abstraction only merges
                        // monomials, summing their coefficients.
                        let sums = poly_sums(&abs.working);
                        assert_eq!(sums.len(), original_sums.len());
                        for (a, b) in sums.iter().zip(&original_sums) {
                            assert!(
                                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                                "{name} K={shards} bound {bound}: {a} vs {b}"
                            );
                        }
                    }
                    Err(TreeError::BoundUnattainable {
                        bound: b,
                        best_possible,
                    }) => {
                        assert_eq!(b, bound);
                        assert!(
                            best_possible > bound,
                            "{name} K={shards}: floor {best_possible} not above bound {bound}"
                        );
                    }
                    Err(e) => panic!("{name} K={shards} bound {bound}: {e:?}"),
                }
            }
        }
    }
}

#[test]
fn streaming_matches_whole_input_compression_on_the_scale_fixture() {
    let cfg = ScaleConfig {
        groups: 24,
        plans: 16,
        months: 12,
        fill_permille: 900,
        seed: 7,
    };
    let guard = Guard::unlimited();
    let mut vars = provabs_provenance::VarTable::new();
    let whole = scale_working_set(&cfg, &mut vars);
    let forest = scale_forest(&cfg, &mut vars);
    let bound = whole.size_m() / 6;
    let (whole_abs, completion) = sharded_greedy(&whole, &forest, bound, 1, &guard).unwrap();
    assert!(completion.is_complete());
    let whole_sums = poly_sums(&whole_abs.working);

    for (chunk_groups, budget_divisor) in [(4, 3), (7, 5), (24, 2)] {
        let mut stream = StreamingCompressor::new(
            &forest,
            StreamingConfig {
                bound,
                max_live_monomials: whole.size_m() / budget_divisor,
            },
        );
        for chunk in scale_chunks(cfg, chunk_groups, &mut vars) {
            stream.ingest(&chunk, &guard).unwrap();
        }
        let (abs, completion, stats) = stream.finish(&guard).unwrap();
        assert!(completion.is_complete(), "chunks of {chunk_groups}");
        assert_eq!(stats.ingested_size_m, whole.size_m());
        assert_eq!(abs.result.original_size_m, whole.size_m());
        // Both paths satisfy the same global bound…
        assert!(
            abs.result.compressed_size_m <= bound,
            "chunks of {chunk_groups}: {} > {bound}",
            abs.result.compressed_size_m
        );
        // …and preserve every per-polynomial value exactly (documented
        // tolerance: f64 re-association across differing merge orders).
        let sums = poly_sums(&abs.working);
        assert_eq!(sums.len(), whole_sums.len(), "chunks of {chunk_groups}");
        for (a, b) in sums.iter().zip(&whole_sums) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "chunks of {chunk_groups}: {a} vs {b}"
            );
        }
    }
}

/// The CI stress job's entry point: bounded-memory streaming over the
/// million-monomial preset. Run with
/// `cargo test -p provabs-core --release --test shard_equivalence -- --ignored`.
#[test]
#[ignore = "million-monomial stress fixture; run explicitly in release"]
fn million_monomial_streaming_stays_under_the_memory_budget() {
    let cfg = ScaleConfig::million();
    let guard = Guard::unlimited();
    let mut vars = provabs_provenance::VarTable::new();
    let forest = scale_forest(&cfg, &mut vars);
    let budget = 220_000;
    let bound = 60_000;
    let mut stream = StreamingCompressor::new(
        &forest,
        StreamingConfig {
            bound,
            max_live_monomials: budget,
        },
    );
    let mut max_chunk = 0usize;
    for chunk in scale_chunks(cfg, 50, &mut vars) {
        max_chunk = max_chunk.max(chunk.size_m());
        stream.ingest(&chunk, &guard).unwrap();
    }
    let (abs, completion, stats) = stream.finish(&guard).unwrap();
    assert!(completion.is_complete());
    assert!(
        stats.ingested_size_m >= 1_000_000,
        "preset under a million: {}",
        stats.ingested_size_m
    );
    // The documented peak contract: threshold plus one resident chunk.
    assert!(
        stats.peak_live_monomials <= budget.max(bound) + max_chunk,
        "peak {} over budget {budget} + chunk {max_chunk}",
        stats.peak_live_monomials
    );
    assert!(stats.flushes > 0, "the budget never tripped");
    assert!(abs.result.compressed_size_m <= bound);
    assert_eq!(abs.result.original_size_m, stats.ingested_size_m);
}
