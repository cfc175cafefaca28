//! Tuple-level how-provenance and hypothetical deletions (§2.1 case 1),
//! with a [`Session`] grouping tuple variables by nation.
//!
//! A join query is captured with one variable per supplier tuple; the
//! output polynomials answer "does this result survive if those suppliers
//! disappear?" — a deletion is exactly the multiplicative scenario
//! `variable × 0`, so the session's `ask` answers it: a part survives
//! iff its provenance evaluates to a non-zero count. Abstraction trees
//! group suppliers by nation so a whole nation can be switched off with
//! one meta-variable.
//!
//! Run with `cargo run --example deletion_propagation`.

use provabs::engine::expr::Expr;
use provabs::engine::param::VarRule;
use provabs::engine::query::Pipeline;
use provabs::engine::schema::{ColumnType, Schema};
use provabs::engine::table::Table;
use provabs::engine::value::Value;
use provabs::provenance::valuation::Valuation;
use provabs::provenance::VarTable;
use provabs::{Scenario, SessionBuilder};

fn main() {
    // Suppliers (with their nation) and the parts they can deliver.
    let mut suppliers = Table::new(Schema::of(&[
        ("sid", ColumnType::Int),
        ("nation", ColumnType::Str),
    ]));
    for (sid, nation) in [(1, "FR"), (2, "FR"), (3, "DE"), (4, "DE")] {
        suppliers
            .push(vec![Value::Int(sid), Value::str(nation)])
            .expect("well-typed");
    }
    let mut offers = Table::new(Schema::of(&[
        ("sid", ColumnType::Int),
        ("part", ColumnType::Str),
    ]));
    for (sid, part) in [
        (1, "bolt"),
        (2, "bolt"),
        (3, "bolt"),
        (3, "nut"),
        (4, "nut"),
    ] {
        offers
            .push(vec![Value::Int(sid), Value::str(part)])
            .expect("well-typed");
    }

    // Which parts are obtainable? π_part(suppliers ⋈ offers), as counting
    // how-provenance: each supplier tuple is its own variable s<sid>,
    // offers are trusted facts, and every join match counts 1 — so
    // deletions are valuations `x ↦ 0` and survival is "value > 0".
    let mut vars = VarTable::new();
    let parts = Pipeline::from_table(suppliers)
        .join_table(&offers, &[("sid", "sid")], "o")
        .expect("join")
        .aggregate_sum(
            &["part"],
            &Expr::lit(1.0),
            &[VarRule::per_value("sid", "s")],
            &mut vars,
        )
        .expect("aggregate");
    println!("how-provenance per part:");
    for (key, p) in parts.keys.iter().zip(parts.polys.iter()) {
        println!("  {} : {:?}", key[0], p);
    }
    let keys = parts.keys;

    // The session: group suppliers by nation, keep the nation level
    // (bound 3 merges each nation into its meta-variable).
    let session = SessionBuilder::new(parts.polys, vars)
        .forest_text("AllSup(FR(s1, s2), DE(s3, s4))")
        .expect("well-formed tree")
        .bound(3)
        .build()
        .expect("valid configuration");

    // Hypothetical deletion, fine-grained: what if supplier 3 leaves?
    // Posed on the original provenance (the fine variable still exists
    // there), before any abstraction.
    let s3 = session.vars().lookup("s3").expect("interned above");
    let val = Valuation::neutral().set(s3, 0.0);
    println!("\nwithout s3 (on the original provenance):");
    let survives_fine = val.eval_set(session.original());
    for (k, value) in keys.iter().zip(&survives_fine) {
        println!("  {} available: {}", k[0], *value > 0.0);
    }

    // Compress: nation-level granularity, smaller provenance.
    let result = session.compress().expect("bound attainable");
    println!(
        "\nabstracted by nation: {} → {} monomials, VVS {:?}",
        result.original_size_m,
        result.compressed_size_m,
        result.vvs.labels(&result.forest)
    );
    for (k, p) in keys
        .iter()
        .zip(session.abstracted().expect("compressed").iter())
    {
        println!("  {} : {:?}", k[0], p);
    }

    // Coarse what-if through the session: all German suppliers disappear
    // at once — one meta-variable set to zero, answered from the cached
    // compiled provenance.
    let run = session
        .ask(&[Scenario::new().set("DE", 0.0)])
        .expect("known meta-variable");
    println!("\nwithout the DE nation:");
    for (k, value) in keys.iter().zip(&run.values[0]) {
        println!("  {} available: {}", k[0], *value > 0.0);
    }
}
