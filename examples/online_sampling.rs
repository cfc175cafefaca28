//! Online compression via sampling (§6), end to end through [`Session`].
//!
//! Instead of materialising the full provenance before compressing, the
//! VVS is chosen on a sample with an adapted bound, then applied to the
//! full provenance — trading a small risk of missing the bound for a
//! large reduction in compression cost. Each sampling fraction is one
//! cloned builder with `Strategy::Online`.
//!
//! Run with `cargo run --release --example online_sampling`.

use provabs::algo::online::estimate_full_size;
use provabs::datagen::workload::{Workload, WorkloadConfig};
use provabs::{SessionBuilder, Strategy};
use std::time::Instant;

fn main() {
    let mut data = Workload::Telephony.generate(&WorkloadConfig {
        scale: 4.0,
        ..WorkloadConfig::default()
    });
    let forest = data.primary_tree(2, 1);
    let total = data.polys.size_m();
    let bound = total * 2 / 3;
    println!(
        "provenance: {} monomials (≈{} KiB), bound {}",
        total,
        data.polys.estimated_bytes() / 1024,
        bound
    );
    let estimate = estimate_full_size(&data.interned.working, &[0.1, 0.2, 0.4], 7);
    let builder = SessionBuilder::new(data.polys, data.vars)
        .forest(forest)
        .bound(bound);

    // Offline reference.
    let t0 = Instant::now();
    let offline = builder
        .clone()
        .strategy(Strategy::Optimal)
        .build()
        .expect("valid configuration");
    let offline_vl = offline.compress().expect("attainable").vl();
    println!(
        "\noffline: VL {} in {:.1} ms",
        offline_vl,
        t0.elapsed().as_secs_f64() * 1e3
    );

    // §6's size estimation from growing samples.
    println!(
        "extrapolated full size: {estimate} (real {total}, error {:.1} %)",
        100.0 * (estimate as f64 - total as f64).abs() / total as f64
    );

    // The online scheme at several sampling fractions.
    println!(
        "\n{:>9} {:>12} {:>9} {:>9}",
        "fraction", "online [ms]", "adequate", "VL"
    );
    for fraction in [0.05, 0.1, 0.2, 0.4, 0.8] {
        let session = builder
            .clone()
            .strategy(Strategy::Online { fraction, seed: 7 })
            .build()
            .expect("valid configuration");
        let t = Instant::now();
        match session.compress() {
            Ok(full) => println!(
                "{:>9.2} {:>12.1} {:>9} {:>9}",
                fraction,
                t.elapsed().as_secs_f64() * 1e3,
                full.is_adequate_for(bound),
                full.vl()
            ),
            Err(e) => println!("{fraction:>9.2} sampling failed: {e}"),
        }
    }
    println!(
        "\nsmall samples miss the bound (unrepresentative — the risk §6 \
              anticipates); larger fractions approach the offline granularity \
              at a fraction of the cost."
    );
}
