//! Authoring abstraction forests as plain text, sessions from end to end.
//!
//! An analyst writes the hierarchy in the `label(child, …)` notation —
//! one tree per line — and hands it to a [`SessionBuilder`], which
//! parses, cleans and applies it. This is the intended deployment mode
//! of §2.2: "the abstraction trees may be obtained by leveraging
//! existing ontologies on the annotated data" or authored manually.
//!
//! Run with `cargo run --example trees_from_text`.

use provabs::datagen::fixture::example_polys;
use provabs::provenance::display::polyset_to_string;
use provabs::provenance::guard::Guard;
use provabs::provenance::VarTable;
use provabs::trees::text::forest_to_text;
use provabs::{Scenario, SessionBuilder, Strategy};

fn main() {
    // The running example's two hierarchies, as an analyst would write
    // them in a config file.
    let config = "\
# calling-plan families (Figure 2)
Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))
# months grouped by quarter (Figure 3)
Year(q1(m1,m2,m3), q2(m4,m5,m6), q3(m7,m8,m9), q4(m10,m11,m12))
";
    let mut vars = VarTable::new();
    let polys = example_polys(&mut vars);
    let builder = SessionBuilder::new(polys, vars)
        .forest_text(config)
        .expect("well-formed config");

    // Greedy compression to half size over the file-defined forest. The
    // algorithm cleans the forest first — dropping the leaves that never
    // occur in this provenance (p2, y2, y3, f2, and the months outside
    // January/March).
    let session = builder.clone().build().expect("valid configuration");
    println!(
        "parsed {} trees with {} cuts in total",
        session.forest().num_trees(),
        session.forest().count_cuts()
    );
    let result = session.compress().expect("bound attainable");
    println!("\ncleaned forest:\n{}", forest_to_text(&result.forest));
    println!(
        "chosen VVS: {:?} — {} → {} monomials",
        result.vvs.labels(&result.forest),
        result.original_size_m,
        result.compressed_size_m
    );

    // The per-tree optimal frontier of the plans tree tells the analyst
    // what each extra variable of granularity costs in size.
    let plans_only = builder
        .clone()
        .forest_text(
            "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))",
        )
        .expect("well-formed line")
        .strategy(Strategy::Optimal)
        .build()
        .expect("valid configuration");
    let frontier = plans_only
        .frontier(&Guard::unlimited())
        .expect("single tree");
    println!("\nplans-tree frontier (|P↓S|_M → |P↓S|_V):");
    for (m, v) in frontier {
        println!("  {m:>3} → {v}");
    }

    // Ask on the abstracted space: a −10 % discount on all business
    // plans, answered from the session's cached compiled provenance.
    let down = session.abstracted().expect("compressed above");
    println!(
        "\nabstracted provenance:\n{}",
        polyset_to_string(down, session.vars())
    );
    let labels = session.abstracted_labels().expect("compressed above");
    let target = labels.first().expect("non-empty").clone();
    let run = session
        .ask(&[Scenario::new().set(&target, 0.9)])
        .expect("known variable");
    println!(
        "revenues if {target} gets 10 % cheaper: {:?}",
        run.values[0]
    );
}
