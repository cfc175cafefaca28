//! Quickstart: the paper's running example, end to end through the
//! [`Session`] façade.
//!
//! Builds the revenue provenance polynomial of Example 2, the plans
//! abstraction tree of Figure 2, compresses optimally for a bound, and
//! answers a what-if question on the compressed provenance — one handle,
//! compress once, ask many.
//!
//! Run with `cargo run --example quickstart`.

use provabs::provenance::display::{poly_to_string, polyset_to_string};
use provabs::provenance::parse::parse_polyset;
use provabs::provenance::VarTable;
use provabs::trees::forest::Forest;
use provabs::trees::generate::plans_tree;
use provabs::{Scenario, SessionBuilder, Strategy};

fn main() {
    // The provenance of "revenue per zip code" for zip 10001 (Example 2):
    // one variable per calling plan (p1, f1, y1, v) and per month (m1, m3).
    let mut vars = VarTable::new();
    let polys = parse_polyset(
        "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
         + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3",
        &mut vars,
    )
    .expect("well-formed polynomial");
    println!("original provenance (|P|_M = {}):", polys.size_m());
    print!("{}", polyset_to_string(&polys, &vars));

    // The plans abstraction tree of Figure 2 constrains which plan
    // variables may be grouped into meta-variables. The session owns the
    // whole pipeline: compress once (optimal DP, at most 4 monomials,
    // maximal remaining granularity — Algorithm 1), then serve scenarios.
    let forest = Forest::single(plans_tree(&mut vars));
    let session = SessionBuilder::new(polys, vars)
        .forest(forest)
        .strategy(Strategy::Optimal)
        .bound(4)
        .build()
        .expect("valid configuration");
    let result = session.compress().expect("bound is attainable");
    println!(
        "\nchosen VVS (B = 4): {:?}  — ML = {}, VL = {}",
        result.vvs.labels(&result.forest),
        result.ml(),
        result.vl()
    );
    let compressed = session.abstracted().expect("compressed above");
    println!("compressed provenance (|P↓S|_M = {}):", compressed.size_m());
    for p in compressed.iter() {
        println!("{}", poly_to_string(p, session.vars()));
    }

    // What if all special plans get 10 % cheaper? One ask on the session
    // answers it from the cached compiled provenance.
    let baseline: f64 = session
        .ask(&[Scenario::new()])
        .expect("known variables")
        .values[0]
        .iter()
        .sum();
    let what_if: f64 = session
        .ask(&[Scenario::new().set("Special", 0.9)])
        .expect("known variables")
        .values[0]
        .iter()
        .sum();
    println!("\nrevenue baseline: {baseline:.2}");
    println!("revenue if special plans cost 90 %: {what_if:.2}");
}
