//! TPC-H Q5 compression study through the [`Session`] façade: the
//! size/granularity trade-off frontier and a bound sweep comparing Opt
//! and Greedy — one cloned builder per point, one provenance shared by
//! all of them.
//!
//! Run with `cargo run --release --example tpch_compression`.

use provabs::datagen::workload::{Workload, WorkloadConfig};
use provabs::provenance::guard::Guard;
use provabs::{SessionBuilder, Strategy};
use std::time::Instant;

fn main() {
    let mut data = Workload::TpchQ5.generate(&WorkloadConfig {
        scale: 8.0,
        ..WorkloadConfig::default()
    });
    println!(
        "TPC-H Q5: {} polynomials, {} monomials, {} variables ({} input tuples)",
        data.polys.len(),
        data.polys.size_m(),
        data.polys.size_v(),
        data.total_tuples
    );

    // The suppliers abstraction tree (type 2, shape [2, 4]); the builder
    // carries provenance + forest, and every sweep point clones it.
    let forest = data.primary_tree(2, 1);
    let total = data.polys.size_m();
    let builder = SessionBuilder::new(data.polys, data.vars).forest(forest);

    // One DP run yields the whole Pareto frontier of attainable
    // (size, granularity) points.
    let frontier = builder
        .clone()
        .strategy(Strategy::Optimal)
        .build()
        .expect("valid configuration")
        .frontier(&Guard::unlimited())
        .expect("single tree");
    println!("\nsize/granularity frontier (|P↓S|_M → |P↓S|_V):");
    for (m, v) in &frontier {
        println!("  {m:>8} → {v}");
    }

    // Bound sweep: Opt vs Greedy, times and granularity.
    println!("\nbound sweep:");
    println!(
        "{:>8} {:>12} {:>12} {:>8} {:>8}",
        "B", "opt [ms]", "greedy [ms]", "opt V", "greedy V"
    );
    let floor = frontier.last().expect("non-empty").0;
    for i in 0..5 {
        let bound = (floor + (total - floor) * i / 5).max(1);
        let time_one = |strategy: Strategy| {
            let session = builder
                .clone()
                .strategy(strategy)
                .bound(bound)
                .build()
                .expect("valid configuration");
            let t = Instant::now();
            let outcome = session.compress().map(|r| r.compressed_size_v).ok();
            (outcome, t.elapsed())
        };
        let (opt, t_opt) = time_one(Strategy::Optimal);
        let (greedy, t_greedy) = time_one(Strategy::default());
        let fmt = |v: Option<usize>| v.map(|v| v.to_string()).unwrap_or("-".into());
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>8} {:>8}",
            bound,
            t_opt.as_secs_f64() * 1e3,
            t_greedy.as_secs_f64() * 1e3,
            fmt(opt),
            fmt(greedy),
        );
    }
}
