//! Warm restart: compress once, save the compiled state, reopen it
//! later — and serve scenarios without recompressing or recompiling.
//!
//! The session's compressed state (variable table, forests, chosen VVS,
//! the frozen columns of the abstracted and of the original provenance)
//! is written as one versioned, checksummed artifact by [`Session::save`]. A later process reopens it
//! with [`Session::open_mapped`] — the zero-copy path: the compiled
//! columns the evaluator runs on are resliced straight from the
//! memory-mapped file — and answers the same batches bit-for-bit
//! identically with `compile_count() == 0`.
//!
//! Run with `cargo run --example warm_restart`.

use provabs::datagen::workload::{Workload, WorkloadConfig};
use provabs::{Scenario, Session, SessionBuilder};

fn main() {
    // A cold start: generate the telephony workload, compress it, ask.
    let mut data = Workload::Telephony.generate(&WorkloadConfig {
        scale: 0.1,
        param_modulus: 16,
        seed: 11,
    });
    let forest = data.primary_tree(1, 0);
    let bound = (data.polys.size_m() / 2).max(1);
    let cold = SessionBuilder::new(data.polys.clone(), data.vars.clone())
        .forest(forest)
        .bound(bound)
        .build()
        .expect("valid configuration");
    let result = cold.compress().expect("attainable bound");
    println!(
        "cold start: compressed {} → {} monomials",
        result.original_size_m, result.compressed_size_m
    );

    let names = cold.abstracted_labels().expect("compressed");
    let scenarios: Vec<Scenario> = (0..16)
        .map(|i| Scenario::random(&names, 0.6, 2000 + i))
        .collect();
    let cold_run = cold.ask(&scenarios).expect("known names");
    println!(
        "cold ask: {} scenarios × {} polys, compile_count = {}",
        cold_run.values.len(),
        cold_run.values[0].len(),
        cold.compile_count()
    );

    // Persist the whole compiled state as one artifact.
    let mut path = std::env::temp_dir();
    path.push(format!("provabs-warm-restart-{}.pvabs", std::process::id()));
    cold.save(&path).expect("save artifact");
    let file_len = std::fs::metadata(&path).expect("saved").len();
    println!("saved artifact: {} ({file_len} bytes)", path.display());

    // The warm restart: reopen zero-copy and serve the same batch.
    // No compression, no compilation — the columns come from the file.
    let warm = Session::open_mapped(&path).expect("open artifact");
    println!("reopened: {:?}", warm.artifact_info());
    let warm_run = warm.ask(&scenarios).expect("known names");
    assert_eq!(warm.compile_count(), 0, "a warm restart must never compile");
    for (a, b) in cold_run
        .values
        .iter()
        .flatten()
        .zip(warm_run.values.iter().flatten())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "answers must be bit-identical");
    }
    println!(
        "warm ask: identical answers, compile_count = {} (elapsed {:?} vs cold {:?})",
        warm.compile_count(),
        warm_run.elapsed,
        cold_run.elapsed
    );

    let _ = std::fs::remove_file(&path);
}
