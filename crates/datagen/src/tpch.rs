//! A TPC-H-style database and the evaluation's three queries (§4.2).
//!
//! The paper runs the non-nested TPC-H queries and reports Q1, Q5 and Q10
//! as representative: Q1 yields *few polynomials with many monomials*
//! (8 groups), Q5 *25 polynomials* (one per nation) with many monomials,
//! and Q10 *many polynomials with few monomials* (one per customer).
//! The generator below reproduces those provenance shapes at laptop
//! scale: schema and cardinality ratios follow TPC-H, contents are
//! deterministic pseudo-random (see DESIGN.md's substitution table).
//!
//! Parameterization (§4.2): the discount measure of LINEITEM is
//! multiplied by `s{suppkey mod M}` and `p{partkey mod M}` with `M = 128`
//! by default (`param_modulus` sweeps it for the variable-count
//! experiment of Figure 14).

use provabs_engine::expr::Expr;
use provabs_engine::param::VarRule;
use provabs_engine::query::{GroupedProvenance, Pipeline};
use provabs_engine::schema::{ColumnType, Schema};
use provabs_engine::table::Table;
use provabs_engine::value::Value;
use provabs_engine::Catalog;
use provabs_provenance::var::VarTable;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// TPC-H generator configuration. Cardinalities follow TPC-H ratios per
/// "scale unit": suppliers ×10, parts ×200, customers ×150, orders
/// ×1500, 1–7 lineitems per order.
#[derive(Clone, Debug)]
pub struct TpchConfig {
    /// Scale units (1.0 ≈ 17k tuples; TPC-H SF 1 would be ~1000 units).
    pub scale: f64,
    /// Parameterization modulus `M` (paper: 128).
    pub param_modulus: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            param_modulus: 128,
            seed: 42,
        }
    }
}

impl TpchConfig {
    fn count(&self, per_unit: usize, min: usize) -> usize {
        ((per_unit as f64 * self.scale) as usize).max(min)
    }
}

/// A generated TPC-H-style database.
#[derive(Debug)]
pub struct TpchData {
    /// REGION .. LINEITEM tables.
    pub catalog: Catalog,
    /// The configuration used.
    pub config: TpchConfig,
}

const RETURN_FLAGS: [&str; 4] = ["A", "N", "R", "X"];
const LINE_STATUS: [&str; 2] = ["O", "F"];

/// Generates the database.
pub fn generate(config: TpchConfig) -> TpchData {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    // At least one supplier per nation so Q5's per-nation grouping can
    // reach all 25 groups (TPC-H proper has 10k suppliers at SF 1).
    let suppliers = config.count(30, 25);
    let parts = config.count(200, 8);
    let customers = config.count(150, 8);
    let orders = config.count(1500, 16);

    let mut region = Table::new(Schema::of(&[
        ("r_regionkey", ColumnType::Int),
        ("r_name", ColumnType::Str),
    ]));
    for (k, name) in ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
        .iter()
        .enumerate()
    {
        region
            .push([Value::Int(k as i64), Value::str(*name)])
            .expect("generated rows are well-typed");
    }

    let mut nation = Table::new(Schema::of(&[
        ("n_nationkey", ColumnType::Int),
        ("n_name", ColumnType::Str),
        ("n_regionkey", ColumnType::Int),
    ]));
    for k in 0..25i64 {
        nation
            .push([
                Value::Int(k),
                Value::str(format!("NATION{k:02}")),
                Value::Int(k % 5),
            ])
            .expect("generated rows are well-typed");
    }

    let mut supplier = Table::new(Schema::of(&[
        ("s_suppkey", ColumnType::Int),
        ("s_nationkey", ColumnType::Int),
    ]));
    for k in 0..suppliers {
        // Round-robin nation assignment guarantees full nation coverage.
        supplier
            .push([Value::Int(k as i64), Value::Int(k as i64 % 25)])
            .expect("generated rows are well-typed");
    }

    let mut part = Table::new(Schema::of(&[
        ("p_partkey", ColumnType::Int),
        ("p_retailprice", ColumnType::Float),
    ]));
    for k in 0..parts {
        part.push([
            Value::Int(k as i64),
            Value::float(rng.gen_range(900..2100) as f64 / 2.0),
        ])
        .expect("generated rows are well-typed");
    }

    let mut customer = Table::new(Schema::of(&[
        ("c_custkey", ColumnType::Int),
        ("c_nationkey", ColumnType::Int),
    ]));
    for k in 0..customers {
        customer
            .push([Value::Int(k as i64), Value::Int(rng.gen_range(0..25))])
            .expect("generated rows are well-typed");
    }

    let mut orders_t = Table::new(Schema::of(&[
        ("o_orderkey", ColumnType::Int),
        ("o_custkey", ColumnType::Int),
        ("o_orderyear", ColumnType::Int),
    ]));
    let mut lineitem = Table::new(Schema::of(&[
        ("l_orderkey", ColumnType::Int),
        ("l_partkey", ColumnType::Int),
        ("l_suppkey", ColumnType::Int),
        ("l_quantity", ColumnType::Int),
        ("l_extendedprice", ColumnType::Float),
        ("l_discount", ColumnType::Float),
        ("l_returnflag", ColumnType::Str),
        ("l_linestatus", ColumnType::Str),
    ]));
    // One string per flag, shared by every row that carries it.
    let return_flags = RETURN_FLAGS.map(Value::str);
    let line_status = LINE_STATUS.map(Value::str);
    for ok in 0..orders {
        orders_t
            .push([
                Value::Int(ok as i64),
                Value::Int(rng.gen_range(0..customers) as i64),
                Value::Int(rng.gen_range(1992..1999)),
            ])
            .expect("generated rows are well-typed");
        for _ in 0..rng.gen_range(1..=7usize) {
            let qty = rng.gen_range(1..=50i64);
            let price = qty as f64 * rng.gen_range(900..2100) as f64 / 2.0;
            lineitem
                .push([
                    Value::Int(ok as i64),
                    Value::Int(rng.gen_range(0..parts) as i64),
                    Value::Int(rng.gen_range(0..suppliers) as i64),
                    Value::Int(qty),
                    Value::float(price),
                    Value::float(rng.gen_range(0..=10) as f64 / 100.0),
                    return_flags[rng.gen_range(0..RETURN_FLAGS.len())].clone(),
                    line_status[rng.gen_range(0..LINE_STATUS.len())].clone(),
                ])
                .expect("generated rows are well-typed");
        }
    }

    let mut catalog = Catalog::new();
    catalog.register("region", region).expect("fresh catalog");
    catalog.register("nation", nation).expect("fresh catalog");
    catalog
        .register("supplier", supplier)
        .expect("fresh catalog");
    catalog.register("part", part).expect("fresh catalog");
    catalog
        .register("customer", customer)
        .expect("fresh catalog");
    catalog.register("orders", orders_t).expect("fresh catalog");
    catalog
        .register("lineitem", lineitem)
        .expect("fresh catalog");
    TpchData { catalog, config }
}

fn discount_rules(config: &TpchConfig) -> [VarRule; 2] {
    [
        VarRule::per_mod("l_suppkey", config.param_modulus, "s"),
        VarRule::per_mod("l_partkey", config.param_modulus, "p"),
    ]
}

/// The revenue measure `l_extendedprice · (1 − l_discount)`.
fn revenue_measure() -> Expr {
    Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount")))
}

/// Aggregates a spec through the hash-map representation.
fn aggregate(
    (pipeline, cols, measure, rules): (Pipeline, Vec<&'static str>, Expr, Vec<VarRule>),
    vars: &mut VarTable,
) -> GroupedProvenance {
    pipeline
        .aggregate_sum(&cols, &measure, &rules, vars)
        .expect("aggregation is well-typed")
}

/// The Q1 pipeline plus aggregation spec (shared by [`q1`] and the
/// workload façade).
pub fn q1_spec(data: &TpchData) -> (Pipeline, Vec<&'static str>, Expr, Vec<VarRule>) {
    let pipeline = Pipeline::scan(&data.catalog, "lineitem").expect("table registered");
    (
        pipeline,
        vec!["l_returnflag", "l_linestatus"],
        revenue_measure(),
        discount_rules(&data.config).to_vec(),
    )
}

/// Q1 (pricing summary): `GROUP BY l_returnflag, l_linestatus` over
/// LINEITEM — few polynomials (8 groups), many monomials each.
pub fn q1(data: &TpchData, vars: &mut VarTable) -> GroupedProvenance {
    aggregate(q1_spec(data), vars)
}

/// The Q5 pipeline plus aggregation spec.
pub fn q5_spec(data: &TpchData) -> (Pipeline, Vec<&'static str>, Expr, Vec<VarRule>) {
    let pipeline = Pipeline::scan(&data.catalog, "customer")
        .expect("table registered")
        .join(&data.catalog, "orders", &[("c_custkey", "o_custkey")])
        .expect("join keys exist")
        .join(&data.catalog, "lineitem", &[("o_orderkey", "l_orderkey")])
        .expect("join keys exist")
        .join(&data.catalog, "supplier", &[("l_suppkey", "s_suppkey")])
        .expect("join keys exist")
        .filter(&Expr::col("c_nationkey").eq(Expr::col("s_nationkey")))
        .expect("columns exist")
        .join(&data.catalog, "nation", &[("s_nationkey", "n_nationkey")])
        .expect("join keys exist");
    (
        pipeline,
        vec!["n_name"],
        revenue_measure(),
        discount_rules(&data.config).to_vec(),
    )
}

/// Q5 (local supplier volume): CUSTOMER ⋈ ORDERS ⋈ LINEITEM ⋈ SUPPLIER ⋈
/// NATION with the `c_nationkey = s_nationkey` condition, grouped by
/// nation — 25 polynomials.
pub fn q5(data: &TpchData, vars: &mut VarTable) -> GroupedProvenance {
    aggregate(q5_spec(data), vars)
}

/// The Q10 pipeline plus aggregation spec.
pub fn q10_spec(data: &TpchData) -> (Pipeline, Vec<&'static str>, Expr, Vec<VarRule>) {
    let pipeline = Pipeline::scan(&data.catalog, "customer")
        .expect("table registered")
        .join(&data.catalog, "orders", &[("c_custkey", "o_custkey")])
        .expect("join keys exist")
        .join(&data.catalog, "lineitem", &[("o_orderkey", "l_orderkey")])
        .expect("join keys exist")
        .filter(&Expr::col("l_returnflag").eq(Expr::lit("R")))
        .expect("columns exist");
    (
        pipeline,
        vec!["c_custkey"],
        revenue_measure(),
        discount_rules(&data.config).to_vec(),
    )
}

/// Q10 (returned items): CUSTOMER ⋈ ORDERS ⋈ LINEITEM with
/// `l_returnflag = 'R'`, grouped by customer — many polynomials with few
/// monomials each.
pub fn q10(data: &TpchData, vars: &mut VarTable) -> GroupedProvenance {
    aggregate(q10_spec(data), vars)
}

/// Q3 (shipping priority): CUSTOMER ⋈ ORDERS ⋈ LINEITEM grouped by
/// order — very many polynomials, very few monomials each (the extreme
/// version of Q10's shape). One of the paper's "all non-nested TPC-H
/// queries"; not in its reported trio, provided for completeness.
pub fn q3(data: &TpchData, vars: &mut VarTable) -> GroupedProvenance {
    Pipeline::scan(&data.catalog, "customer")
        .expect("table registered")
        .join(&data.catalog, "orders", &[("c_custkey", "o_custkey")])
        .expect("join keys exist")
        .join(&data.catalog, "lineitem", &[("o_orderkey", "l_orderkey")])
        .expect("join keys exist")
        .aggregate_sum(
            &["o_orderkey"],
            &revenue_measure(),
            &discount_rules(&data.config),
            vars,
        )
        .expect("aggregation is well-typed")
}

/// Q6 (forecasting revenue change): a single filtered scan of LINEITEM
/// with one global SUM — exactly one polynomial, the opposite extreme of
/// Q3/Q10. `SUM(l_extendedprice · l_discount)` over mid-size quantities.
pub fn q6(data: &TpchData, vars: &mut VarTable) -> GroupedProvenance {
    Pipeline::scan(&data.catalog, "lineitem")
        .expect("table registered")
        .filter(
            &Expr::col("l_quantity")
                .lt(Expr::lit(24i64))
                .and(Expr::col("l_discount").ge(Expr::lit(0.05))),
        )
        .expect("columns exist")
        .aggregate_sum(
            &[], // no grouping: one global aggregate
            &Expr::col("l_extendedprice").mul(Expr::col("l_discount")),
            &discount_rules(&data.config),
            vars,
        )
        .expect("aggregation is well-typed")
}

/// Supplier-variable leaf names `s0..s{M-1}`.
pub fn supplier_leaves(config: &TpchConfig) -> Vec<String> {
    (0..config.param_modulus).map(|i| format!("s{i}")).collect()
}

/// Part-variable leaf names `p0..p{M-1}`.
pub fn part_leaves(config: &TpchConfig) -> Vec<String> {
    (0..config.param_modulus).map(|i| format!("p{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchData {
        generate(TpchConfig {
            scale: 0.5,
            param_modulus: 16,
            seed: 11,
        })
    }

    #[test]
    fn generation_matches_tpch_ratios() {
        let d = small();
        assert_eq!(d.catalog.get("region").expect("registered").len(), 5);
        assert_eq!(d.catalog.get("nation").expect("registered").len(), 25);
        let orders = d.catalog.get("orders").expect("registered").len();
        let lineitems = d.catalog.get("lineitem").expect("registered").len();
        assert!(lineitems >= orders, "≥1 lineitem per order");
        assert!(lineitems <= orders * 7);
    }

    #[test]
    fn plans_read_as_written_with_the_equality_folded() {
        let d = small();
        assert_eq!(q1_spec(&d).0.explain(), "scan lineitem");
        // Q10's literal filter has no join to fold into: it stays a
        // filter, after the last join.
        assert_eq!(
            q10_spec(&d).0.explain(),
            "scan customer\n\
             join orders on (c_custkey = o_custkey)\n\
             join lineitem on (o_orderkey = l_orderkey)\n\
             filter l_returnflag = 'R'"
        );
        // Q5's `c_nationkey = s_nationkey` becomes a second key of the
        // supplier join it follows, not of the nation join after it.
        assert_eq!(
            q5_spec(&d).0.explain(),
            "scan customer\n\
             join orders on (c_custkey = o_custkey)\n\
             join lineitem on (o_orderkey = l_orderkey)\n\
             join supplier on (l_suppkey = s_suppkey, c_nationkey = s_nationkey) [pushed down]\n\
             join nation on (s_nationkey = n_nationkey)"
        );
    }

    #[test]
    fn q1_shape_few_groups_many_monomials() {
        let d = small();
        let mut vars = VarTable::new();
        let g = q1(&d, &mut vars);
        assert!(g.len() <= 8, "returnflag × linestatus");
        assert!(g.len() >= 4);
        let avg = g.polys.size_m() as f64 / g.len() as f64;
        assert!(avg > 20.0, "many monomials per group, got {avg}");
    }

    #[test]
    fn q5_shape_one_group_per_nation() {
        let d = small();
        let mut vars = VarTable::new();
        let g = q5(&d, &mut vars);
        assert!(g.len() <= 25);
        assert!(g.len() >= 10, "most nations appear, got {}", g.len());
    }

    #[test]
    fn q10_shape_many_groups_few_monomials() {
        let d = small();
        let mut vars = VarTable::new();
        let g = q10(&d, &mut vars);
        assert!(g.len() >= 30, "one group per returning customer");
        let avg = g.polys.size_m() as f64 / g.len() as f64;
        assert!(avg < 40.0, "few monomials per group, got {avg}");
    }

    #[test]
    fn parameterization_uses_modulus_variables() {
        let d = small();
        let mut vars = VarTable::new();
        let _ = q1(&d, &mut vars);
        for (_, name) in vars.iter() {
            assert!(name.starts_with('s') || name.starts_with('p'));
            let idx: i64 = name[1..].parse().expect("s<i>/p<i>");
            assert!((0..16).contains(&idx));
        }
    }

    #[test]
    fn q3_shape_one_group_per_order() {
        let d = small();
        let mut vars = VarTable::new();
        let g = q3(&d, &mut vars);
        let orders = d.catalog.get("orders").expect("registered").len();
        // Orders without a matching customer cannot occur (generator
        // draws custkeys from the customer range), so every order groups.
        assert_eq!(g.len(), orders);
        let avg = g.polys.size_m() as f64 / g.len() as f64;
        assert!(avg < 8.0, "1–7 lineitems per order, got {avg}");
    }

    #[test]
    fn q6_is_a_single_polynomial() {
        let d = small();
        let mut vars = VarTable::new();
        let g = q6(&d, &mut vars);
        assert_eq!(g.len(), 1);
        assert_eq!(g.keys[0], Vec::<provabs_engine::value::Value>::new());
        // The filter keeps a strict subset of the lineitems.
        let all = d.catalog.get("lineitem").expect("registered").len();
        assert!(g.polys.size_m() > 0);
        assert!(g.polys.size_m() < all);
        // Neutral evaluation equals the reference filtered sum.
        let lineitem = d.catalog.get("lineitem").expect("registered");
        let reference: f64 = (0..lineitem.len())
            .map(|i| lineitem.row(i))
            .filter(|r| r[3].as_i64().expect("int") < 24 && r[5].as_f64().expect("float") >= 0.05)
            .map(|r| r[4].as_f64().expect("float") * r[5].as_f64().expect("float"))
            .sum();
        assert!((g.plain_values()[0] - reference).abs() < 1e-6 * reference.max(1.0));
    }

    #[test]
    fn q5_plain_totals_are_consistent_with_lineitems() {
        // Every Q5 group total is positive and bounded by the total
        // revenue of all lineitems.
        let d = small();
        let mut vars = VarTable::new();
        let g = q5(&d, &mut vars);
        let lineitem = d.catalog.get("lineitem").expect("registered");
        let all: f64 = (0..lineitem.len())
            .map(|i| lineitem.row(i))
            .map(|r| {
                let price = r[4].as_f64().expect("float");
                let disc = r[5].as_f64().expect("float");
                price * (1.0 - disc)
            })
            .sum();
        let grouped: f64 = g.plain_values().iter().sum();
        assert!(grouped <= all + 1e-6);
        assert!(g.plain_values().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn determinism_across_runs() {
        let a = small();
        let b = small();
        let mut va = VarTable::new();
        let mut vb = VarTable::new();
        assert_eq!(
            q10(&a, &mut va).plain_values(),
            q10(&b, &mut vb).plain_values()
        );
    }
}
