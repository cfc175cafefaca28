//! The full telephony pipeline through one [`Session`]: generate a
//! database, run the revenue query with provenance, compress with the
//! greedy algorithm over a two-tree forest (plans × quarters), and
//! compare what-if turnaround on the original vs the compressed
//! provenance.
//!
//! Run with `cargo run --release --example telephony_whatif`.

use provabs::datagen::telephony::{
    generate, month_leaves, plan_leaves, revenue_provenance, TelephonyConfig,
};
use provabs::provenance::guard::Guard;
use provabs::provenance::VarTable;
use provabs::scenario::executor::EvalOptions;
use provabs::trees::forest::Forest;
use provabs::trees::generate::shaped_tree;
use provabs::{Scenario, SessionBuilder};

fn main() {
    // 1. Generate a telephony database and its revenue provenance.
    let config = TelephonyConfig {
        customers: 5_000,
        zips: 100,
        plans: 128,
        months: 12,
        seed: 7,
    };
    let data = generate(config.clone());
    let mut vars = VarTable::new();
    let grouped = revenue_provenance(&data, &mut vars);
    println!(
        "generated {} tuples → {} polynomials, {} monomials, {} variables",
        data.catalog.total_tuples(),
        grouped.polys.len(),
        grouped.polys.size_m(),
        grouped.polys.size_v()
    );

    // 2. Abstraction forest: plans grouped 8 × 16 (type-1 tree), months
    //    grouped into quarters. The session defaults are exactly this
    //    pipeline's needs: greedy incremental compression (the forest has
    //    two trees, so the optimal DP does not apply) to half the size,
    //    batches on the compiled parallel engine.
    let plans = shaped_tree("AllPlans", &plan_leaves(&config), &[8], &mut vars);
    let months = shaped_tree("Year", &month_leaves(&config), &[4], &mut vars);
    let forest = Forest::new(vec![plans, months]).expect("disjoint trees");
    let session = SessionBuilder::from_query(grouped, vars)
        .forest(forest)
        .build()
        .expect("valid configuration");

    // 3. Compress once (Algorithm 2).
    let result = session.compress().expect("bound attainable");
    println!(
        "greedy VVS: |S| = {}, compressed to {} monomials (ML = {}, VL = {})",
        result.vvs.len(),
        result.compressed_size_m,
        result.ml(),
        result.vl()
    );

    // 4. A batch of analyst scenarios over the abstracted variables.
    let names = session.abstracted_labels().expect("compressed above");
    let scenarios: Vec<_> = (0..100).map(|i| Scenario::random(&names, 0.4, i)).collect();

    // Sanity: compressed answers equal original answers under lifting.
    let err = session
        .equivalence_error(&scenarios)
        .expect("known variables");
    println!("max deviation compressed vs original: {err:.2e}");

    // 5. Measure the assignment-time speedup (Figure 10's quantity) on
    //    the paper-faithful serial engine, then answer the same batch on
    //    the session's production engine — compiled once, asked many
    //    times, zero recompilation.
    let report = session
        .speedup_report(&scenarios, 5, session.eval_options())
        .expect("known variables");
    println!(
        "what-if batch: original {:.2} ms, compressed {:.2} ms → speedup {:.1} %",
        report.original.as_secs_f64() * 1e3,
        report.compressed.as_secs_f64() * 1e3,
        report.speedup_pct
    );

    // 6. The same batch, engine ablation: serial hash-map vs the cached
    //    frozen columnar path. The two currencies agree up to float
    //    summation order (the hash-map bridge and the arena-frozen
    //    lowering order monomials differently); repeated asks on one
    //    engine are bit-identical. Abstraction and engine speedups
    //    compose.
    let serial = session
        .ask_with(
            &scenarios,
            &EvalOptions::serial_reference(),
            &Guard::unlimited(),
        )
        .expect("known variables");
    let engine = session.ask(&scenarios).expect("known variables");
    let compiled_before = session.compile_count();
    let engine2 = session.ask(&scenarios).expect("known variables");
    for (row_a, row_b) in serial.values.iter().zip(&engine.values) {
        for (a, b) in row_a.iter().zip(row_b) {
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() / scale < 1e-12,
                "engines diverged beyond summation-order noise: {a} vs {b}"
            );
        }
    }
    assert_eq!(engine.values, engine2.values);
    assert_eq!(
        session.compile_count(),
        compiled_before,
        "repeated asks must not recompile"
    );
    println!(
        "engine: serial-hashmap {:.2} ms vs cached-compiled {:.2} ms ({:.1}× on the compressed provenance)",
        serial.elapsed.as_secs_f64() * 1e3,
        engine2.elapsed.as_secs_f64() * 1e3,
        serial.elapsed.as_secs_f64() / engine2.elapsed.as_secs_f64().max(1e-12),
    );
}
