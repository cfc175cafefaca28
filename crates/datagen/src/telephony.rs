//! The Telephony Company benchmark (§4.2).
//!
//! "We used the provenance generated for the query from our running
//! example, where the plans price was parametrized by month and plan (by
//! 12 and 128 variables respectively). The tables were populated with
//! randomly generated data […] For each customer select randomly one of
//! 128 possible plans, 5-digit zip code and the total number of calls
//! durations for each month."
//!
//! The generator is deterministic in its seed; plan variables are
//! `p0..p{plans-1}`, month variables `m1..m12`.

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

/// Telephony generator configuration.
#[derive(Clone, Debug)]
pub struct TelephonyConfig {
    /// Number of customers (the paper varies 10K–5M; scale to taste).
    pub customers: usize,
    /// Number of distinct zip codes (one provenance polynomial each).
    pub zips: usize,
    /// Number of calling plans / plan variables (paper: 128).
    pub plans: usize,
    /// Number of months with call activity (paper: 12).
    pub months: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TelephonyConfig {
    fn default() -> Self {
        Self {
            customers: 2_000,
            zips: 50,
            plans: 128,
            months: 12,
            seed: 42,
        }
    }
}

/// A generated telephony database.
#[derive(Debug)]
pub struct TelephonyData {
    /// Cust / Calls / Plans tables.
    pub catalog: Catalog,
    /// The configuration used.
    pub config: TelephonyConfig,
}

/// Generates the Cust / Calls / Plans tables.
pub fn generate(config: TelephonyConfig) -> TelephonyData {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut cust = Table::new(Schema::of(&[
        ("ID", ColumnType::Int),
        ("PlanId", ColumnType::Int),
        ("Zip", ColumnType::Str),
    ]));
    let mut calls = Table::new(Schema::of(&[
        ("CID", ColumnType::Int),
        ("Mo", ColumnType::Int),
        ("Dur", ColumnType::Int),
    ]));
    calls.reserve(config.customers * config.months);
    for id in 0..config.customers {
        let plan = rng.gen_range(0..config.plans) as i64;
        let zip = format!("{:05}", 10_000 + rng.gen_range(0..config.zips));
        cust.push([Value::Int(id as i64), Value::Int(plan), Value::str(&zip)])
            .expect("generated rows are well-typed");
        for mo in 1..=config.months {
            // Not every customer calls every month, matching the sparser
            // real-world distribution.
            if rng.gen_range(0..100) < 85 {
                let dur = rng.gen_range(20..1500);
                calls
                    .push([
                        Value::Int(id as i64),
                        Value::Int(mo as i64),
                        Value::Int(dur),
                    ])
                    .expect("generated rows are well-typed");
            }
        }
    }
    let mut plans = Table::new(Schema::of(&[
        ("PlanId", ColumnType::Int),
        ("PMo", ColumnType::Int),
        ("Price", ColumnType::Float),
    ]));
    for plan in 0..config.plans {
        for mo in 1..=config.months {
            let price = rng.gen_range(5..60) as f64 / 100.0;
            plans
                .push([
                    Value::Int(plan as i64),
                    Value::Int(mo as i64),
                    Value::float(price),
                ])
                .expect("generated rows are well-typed");
        }
    }
    let mut catalog = Catalog::new();
    catalog.register("Cust", cust).expect("fresh catalog");
    catalog.register("Calls", calls).expect("fresh catalog");
    catalog.register("Plans", plans).expect("fresh catalog");
    TelephonyData { catalog, config }
}

/// The joined pipeline plus aggregation spec of the revenue query —
/// shared by [`revenue_provenance`] and by [`crate::workload`], which
/// aggregates both forms off one join.
pub fn revenue_spec(data: &TelephonyData) -> (Pipeline, Vec<&'static str>, Expr, Vec<VarRule>) {
    let pipeline = Pipeline::scan(&data.catalog, "Cust")
        .expect("table registered")
        .join(&data.catalog, "Calls", &[("ID", "CID")])
        .expect("join keys exist")
        .join(&data.catalog, "Plans", &[("PlanId", "PlanId")])
        .expect("join keys exist")
        .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
        .expect("columns exist");
    (
        pipeline,
        vec!["Zip"],
        Expr::col("Dur").mul(Expr::col("Price")),
        vec![
            VarRule::per_value("PlanId", "p"),
            VarRule::per_value("Mo", "m"),
        ],
    )
}

/// The revenue-per-zip query with the (plan, month) parameterization:
/// `SELECT Zip, SUM(Dur · Price · p_plan · m_month) GROUP BY Zip`.
pub fn revenue_provenance(data: &TelephonyData, vars: &mut VarTable) -> GroupedProvenance {
    let (pipeline, cols, measure, rules) = revenue_spec(data);
    pipeline
        .aggregate_sum(&cols, &measure, &rules, vars)
        .expect("aggregation is well-typed")
}

/// The plan-variable leaf names (`p0..p{plans-1}`), the leaf set of the
/// benchmark's "plans abstraction tree".
pub fn plan_leaves(config: &TelephonyConfig) -> Vec<String> {
    (0..config.plans).map(|i| format!("p{i}")).collect()
}

/// The month-variable leaf names (`m1..m{months}`).
pub fn month_leaves(config: &TelephonyConfig) -> Vec<String> {
    (1..=config.months).map(|i| format!("m{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TelephonyConfig {
        TelephonyConfig {
            customers: 200,
            zips: 10,
            plans: 16,
            months: 12,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(small());
        let b = generate(small());
        assert_eq!(a.catalog.total_tuples(), b.catalog.total_tuples());
        let mut va = VarTable::new();
        let mut vb = VarTable::new();
        let pa = revenue_provenance(&a, &mut va);
        let pb = revenue_provenance(&b, &mut vb);
        assert_eq!(pa.polys.size_m(), pb.polys.size_m());
        assert_eq!(pa.plain_values(), pb.plain_values());
    }

    #[test]
    fn the_revenue_plan_has_no_residual_filter() {
        // `Mo = PMo` is folded into the Plans join: one plan row is
        // probed per call, not twelve enumerated and eleven dropped.
        let (pipeline, ..) = revenue_spec(&generate(small()));
        assert_eq!(
            pipeline.explain(),
            "scan Cust\n\
             join Calls on (ID = CID)\n\
             join Plans on (PlanId = PlanId, Mo = PMo) [pushed down]"
        );
    }

    #[test]
    fn one_polynomial_per_zip() {
        let data = generate(small());
        let mut vars = VarTable::new();
        let g = revenue_provenance(&data, &mut vars);
        assert!(g.len() <= 10);
        assert!(g.len() >= 8, "with 200 customers most zips are hit");
        // Variables come only from the two parameterizations.
        for (_, name) in vars.iter() {
            assert!(name.starts_with('p') || name.starts_with('m'), "{name}");
        }
    }

    #[test]
    fn monomials_pair_plan_and_month() {
        let data = generate(small());
        let mut vars = VarTable::new();
        let g = revenue_provenance(&data, &mut vars);
        for p in g.polys.iter() {
            for (m, _) in p.iter() {
                assert_eq!(m.num_vars(), 2, "each monomial is p_i · m_j");
            }
        }
        // Max possible distinct monomials per zip: plans × months.
        let cap = 16 * 12;
        assert!(g.polys.iter().all(|p| p.size_m() <= cap));
    }

    #[test]
    fn plain_values_match_polynomials_at_ones() {
        let data = generate(small());
        let mut vars = VarTable::new();
        let g = revenue_provenance(&data, &mut vars);
        let at_ones = g.polys.eval(|_| 1.0);
        assert_eq!(g.plain_values(), at_ones);
        assert!(at_ones.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn leaf_name_helpers() {
        let cfg = small();
        assert_eq!(plan_leaves(&cfg).len(), 16);
        assert_eq!(month_leaves(&cfg)[0], "m1");
        assert_eq!(month_leaves(&cfg)[11], "m12");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(TelephonyConfig { seed: 1, ..small() });
        let b = generate(TelephonyConfig { seed: 2, ..small() });
        let mut va = VarTable::new();
        let mut vb = VarTable::new();
        let pa = revenue_provenance(&a, &mut va);
        let pb = revenue_provenance(&b, &mut vb);
        assert_ne!(pa.plain_values(), pb.plain_values());
    }
}
