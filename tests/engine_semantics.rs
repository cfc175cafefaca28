//! Property tests of the relational engine against straight-line
//! reference computations: join/filter/aggregate results and their
//! provenance must agree with hand-rolled evaluation.

use provabs::engine::expr::Expr;
use provabs::engine::param::VarRule;
use provabs::engine::query::Pipeline;
use provabs::engine::schema::{ColumnType, Schema};
use provabs::engine::table::Table;
use provabs::engine::value::Value;
use provabs::engine::Catalog;
use provabs::provenance::{Valuation, VarTable};
use provabs_testkit::{cases, Rng};
use std::collections::BTreeMap;

/// fact(key, group, amount) rows.
type FactRows = Vec<(i64, i64, i64)>;
/// dim(key, rate) rows.
type DimRows = Vec<(i64, f64)>;

/// Cases each property runs.
const CASES: u64 = 64;

/// Random fact/dim tables: fact(key, group, amount) with 1–29 rows,
/// dim(key, rate) with 1–7 distinct keys.
fn tables(rng: &mut Rng) -> (FactRows, DimRows) {
    let facts = (0..rng.within(1..=29))
        .map(|_| (rng.int(0..=7), rng.int(0..=3), rng.int(1..=99)))
        .collect();
    let mut dims = BTreeMap::new();
    let len = rng.within(1..=7);
    while dims.len() < len {
        dims.insert(rng.int(0..=7), (1 + rng.below(49)) as f64 / 10.0);
    }
    (facts, dims.into_iter().collect())
}

fn build_catalog(facts: &[(i64, i64, i64)], dims: &[(i64, f64)]) -> Catalog {
    let mut fact = Table::new(Schema::of(&[
        ("key", ColumnType::Int),
        ("grp", ColumnType::Int),
        ("amount", ColumnType::Int),
    ]));
    for &(k, g, a) in facts {
        fact.push(vec![Value::Int(k), Value::Int(g), Value::Int(a)])
            .expect("well-typed");
    }
    let mut dim = Table::new(Schema::of(&[
        ("dkey", ColumnType::Int),
        ("rate", ColumnType::Float),
    ]));
    for &(k, r) in dims {
        dim.push(vec![Value::Int(k), Value::float(r)])
            .expect("well-typed");
    }
    let mut catalog = Catalog::new();
    catalog.register("fact", fact).expect("fresh");
    catalog.register("dim", dim).expect("fresh");
    catalog
}

/// SUM(amount · rate) GROUP BY grp through the engine equals a
/// hand-rolled nested loop, and the provenance at all-ones equals the
/// plain answer.
#[test]
fn aggregate_matches_reference() {
    cases(CASES, 901, |rng, _| {
        let (facts, dims) = tables(rng);
        let catalog = build_catalog(&facts, &dims);
        let mut vars = VarTable::new();
        let grouped = Pipeline::scan(&catalog, "fact")
            .expect("registered")
            .join(&catalog, "dim", &[("key", "dkey")])
            .expect("join keys")
            .aggregate_sum(
                &["grp"],
                &Expr::col("amount").mul(Expr::col("rate")),
                &[VarRule::per_mod("key", 4, "k")],
                &mut vars,
            )
            .expect("well-typed");

        // Reference: nested-loop join + group sums.
        let mut reference: BTreeMap<i64, f64> = Default::default();
        for &(k, g, a) in &facts {
            for &(dk, r) in &dims {
                if k == dk {
                    *reference.entry(g).or_insert(0.0) += a as f64 * r;
                }
            }
        }
        assert_eq!(grouped.len(), reference.len());
        for (key, poly) in grouped.keys.iter().zip(grouped.polys.iter()) {
            let g = key[0].as_i64().expect("int key");
            let expected = reference[&g];
            let got = poly.eval(|_| 1.0);
            assert!(
                (got - expected).abs() < 1e-6 * expected.abs().max(1.0),
                "group {g}: {got} vs {expected}"
            );
        }
    });
}

/// Scaling the contribution of one parameter variable scales exactly
/// the rows it covers (linearity of the provenance polynomial).
#[test]
fn parameter_scaling_is_linear() {
    cases(CASES, 902, |rng, _| {
        let (facts, dims) = tables(rng);
        let factor = 3.0 * rng.unit();
        let catalog = build_catalog(&facts, &dims);
        let mut vars = VarTable::new();
        let grouped = Pipeline::scan(&catalog, "fact")
            .expect("registered")
            .join(&catalog, "dim", &[("key", "dkey")])
            .expect("join keys")
            .aggregate_sum(
                &["grp"],
                &Expr::col("amount").mul(Expr::col("rate")),
                &[VarRule::per_mod("key", 4, "k")],
                &mut vars,
            )
            .expect("well-typed");
        let Some(k0) = vars.lookup("k0") else {
            return;
        };
        let val = Valuation::neutral().set(k0, factor);
        // Reference with the k0 bucket scaled.
        let mut reference: BTreeMap<i64, f64> = Default::default();
        for &(k, g, a) in &facts {
            for &(dk, r) in &dims {
                if k == dk {
                    let scale = if k.rem_euclid(4) == 0 { factor } else { 1.0 };
                    *reference.entry(g).or_insert(0.0) += a as f64 * r * scale;
                }
            }
        }
        for (key, poly) in grouped.keys.iter().zip(grouped.polys.iter()) {
            let g = key[0].as_i64().expect("int key");
            let got = val.eval(poly);
            let expected = reference[&g];
            assert!(
                (got - expected).abs() < 1e-6 * expected.abs().max(1.0),
                "group {g}: {got} vs {expected}"
            );
        }
    });
}

/// Filters commute with aggregation: aggregating the filtered
/// pipeline equals filtering the reference.
#[test]
fn filter_then_aggregate() {
    cases(CASES, 903, |rng, _| {
        let (facts, dims) = tables(rng);
        let cut = rng.int(0..=99);
        let catalog = build_catalog(&facts, &dims);
        let mut vars = VarTable::new();
        let grouped = Pipeline::scan(&catalog, "fact")
            .expect("registered")
            .filter(&Expr::col("amount").ge(Expr::lit(cut)))
            .expect("well-typed")
            .join(&catalog, "dim", &[("key", "dkey")])
            .expect("join keys")
            .aggregate_sum(
                &["grp"],
                &Expr::col("amount").mul(Expr::col("rate")),
                &[],
                &mut vars,
            )
            .expect("well-typed");
        let mut reference: BTreeMap<i64, f64> = Default::default();
        for &(k, g, a) in &facts {
            if a < cut {
                continue;
            }
            for &(dk, r) in &dims {
                if k == dk {
                    *reference.entry(g).or_insert(0.0) += a as f64 * r;
                }
            }
        }
        assert_eq!(grouped.len(), reference.len());
        for (key, value) in grouped.keys.iter().zip(grouped.plain_values()) {
            let g = key[0].as_i64().expect("int key");
            assert!((value - reference[&g]).abs() < 1e-6 * value.abs().max(1.0));
        }
    });
}
