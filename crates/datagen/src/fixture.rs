//! The exact database fragment of Figure 1.
//!
//! Customer 1's January duration is 552 (the figure prints 522, which is
//! inconsistent with Example 2's coefficient `220.8 = 552 × 0.4`; every
//! other coefficient matches the figure, so we follow the polynomial).

use provabs_engine::expr::Expr;
use provabs_engine::param::VarRule;
use provabs_engine::query::{GroupedProvenance, Pipeline};
use provabs_engine::schema::{ColumnType, Schema};
use provabs_engine::table::Table;
use provabs_engine::value::Value;
use provabs_engine::Catalog;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::VarTable;
use provabs_trees::forest::Forest;
use provabs_trees::generate::{months_tree, plans_tree};

/// Builds the Cust / Calls / Plans catalog of Figure 1.
pub fn figure_1_catalog() -> Catalog {
    let mut cust = Table::new(Schema::of(&[
        ("ID", ColumnType::Int),
        ("Plan", ColumnType::Str),
        ("Zip", ColumnType::Str),
    ]));
    for (id, plan, zip) in [
        (1, "A", "10001"),
        (2, "F1", "10001"),
        (3, "SB1", "10002"),
        (4, "Y1", "10001"),
        (5, "V", "10001"),
        (6, "E", "10002"),
        (7, "SB2", "10002"),
    ] {
        cust.push([Value::Int(id), Value::str(plan), Value::str(zip)])
            .expect("figure 1 rows are well-typed");
    }
    let mut calls = Table::new(Schema::of(&[
        ("CID", ColumnType::Int),
        ("Mo", ColumnType::Int),
        ("Dur", ColumnType::Int),
    ]));
    for (cid, mo, dur) in [
        (1, 1, 552),
        (2, 1, 364),
        (3, 1, 779),
        (4, 1, 253),
        (5, 1, 168),
        (6, 1, 1044),
        (7, 1, 697),
        (1, 3, 480),
        (2, 3, 327),
        (3, 3, 805),
        (4, 3, 290),
        (5, 3, 121),
        (6, 3, 1130),
        (7, 3, 671),
    ] {
        calls
            .push([Value::Int(cid), Value::Int(mo), Value::Int(dur)])
            .expect("figure 1 rows are well-typed");
    }
    let mut plans = Table::new(Schema::of(&[
        ("Plan", ColumnType::Str),
        ("PMo", ColumnType::Int),
        ("Price", ColumnType::Float),
    ]));
    for (plan, mo, price) in [
        ("A", 1, 0.4),
        ("F1", 1, 0.35),
        ("Y1", 1, 0.3),
        ("V", 1, 0.25),
        ("SB1", 1, 0.1),
        ("SB2", 1, 0.1),
        ("E", 1, 0.05),
        ("A", 3, 0.5),
        ("F1", 3, 0.35),
        ("Y1", 3, 0.25),
        ("V", 3, 0.2),
        ("SB1", 3, 0.1),
        ("SB2", 3, 0.15),
        ("E", 3, 0.05),
    ] {
        plans
            .push([Value::str(plan), Value::Int(mo), Value::float(price)])
            .expect("figure 1 rows are well-typed");
    }
    let mut catalog = Catalog::new();
    catalog.register("Cust", cust).expect("fresh catalog");
    catalog.register("Calls", calls).expect("fresh catalog");
    catalog.register("Plans", plans).expect("fresh catalog");
    catalog
}

/// Runs the revenue query of Example 1 with the parameterization of
/// Example 2 (plan variables `p1, f1, y1, v, b1, b2, e`; month variables
/// `m1, m3`).
pub fn example_provenance(vars: &mut VarTable) -> GroupedProvenance {
    let catalog = figure_1_catalog();
    Pipeline::scan(&catalog, "Cust")
        .expect("table registered")
        .join(&catalog, "Calls", &[("ID", "CID")])
        .expect("join keys exist")
        .join(&catalog, "Plans", &[("Plan", "Plan")])
        .expect("join keys exist")
        .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
        .expect("columns exist")
        .aggregate_sum(
            &["Zip"],
            &Expr::col("Dur").mul(Expr::col("Price")),
            &[
                VarRule::mapped(
                    "Plan",
                    [
                        ("A", "p1"),
                        ("F1", "f1"),
                        ("Y1", "y1"),
                        ("V", "v"),
                        ("SB1", "b1"),
                        ("SB2", "b2"),
                        ("E", "e"),
                    ],
                ),
                VarRule::per_value("Mo", "m"),
            ],
            vars,
        )
        .expect("aggregation is well-typed")
}

/// The polynomial set `{P1, P2}` of Example 13 (zip 10001 then 10002).
pub fn example_polys(vars: &mut VarTable) -> PolySet<f64> {
    example_provenance(vars).polys
}

/// The abstraction forest of the running example: the plans tree of
/// Figure 2 and the months tree of Figure 3.
pub fn example_forest(vars: &mut VarTable) -> Forest {
    Forest::new(vec![plans_tree(vars), months_tree(vars)]).expect("figure trees are disjoint")
}

/// A small, fixed instance of the supply-chain BOM family (the third
/// fixture family, next to telephony and TPC-H): deterministic and tiny
/// like the Figure 1 fragment, but with the family's characteristic
/// *wide* four-variable monomials and a *deep* component taxonomy.
pub fn bom_example_data() -> crate::bom::BomData {
    crate::bom::generate(crate::bom::BomConfig {
        products: 24,
        families: 4,
        assemblies: 12,
        components: 16,
        param_modulus: 8,
        seed: 5,
    })
}

/// The cost roll-up provenance of [`bom_example_data`]: one polynomial
/// per product family, every monomial `prod·asm·c·f`.
pub fn bom_example_polys(vars: &mut VarTable) -> PolySet<f64> {
    crate::bom::cost_rollup(&bom_example_data(), vars).polys
}

/// A deep (4-level binary) abstraction tree over the fixture's eight
/// component classes — the forest shape the BOM family exists to
/// exercise.
pub fn bom_example_forest(vars: &mut VarTable) -> Forest {
    let data = bom_example_data();
    Forest::single(provabs_trees::generate::shaped_tree(
        "Comp",
        &crate::bom::component_leaves(&data.config),
        &[2, 2, 2],
        vars,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_has_paper_cardinalities() {
        let c = figure_1_catalog();
        assert_eq!(c.get("Cust").expect("registered").len(), 7);
        assert_eq!(c.get("Calls").expect("registered").len(), 14);
        assert_eq!(c.get("Plans").expect("registered").len(), 14);
        assert_eq!(c.total_tuples(), 35);
    }

    #[test]
    fn provenance_matches_examples_2_and_13() {
        let mut vars = VarTable::new();
        let polys = example_polys(&mut vars);
        assert_eq!(polys.len(), 2);
        assert_eq!(polys.size_m(), 14); // 8 + 6
        assert_eq!(polys.size_v(), 9); // 7 plan vars + m1, m3
    }

    #[test]
    fn forest_is_compatible_after_cleaning() {
        let mut vars = VarTable::new();
        let polys = example_polys(&mut vars);
        let forest = example_forest(&mut vars);
        let cleaned = provabs_trees::clean::clean_forest(&forest, &polys);
        cleaned.check_compatible(&polys).expect("compatible");
        assert_eq!(cleaned.num_trees(), 2);
    }

    #[test]
    fn bom_fixture_is_wide_deep_and_compatible() {
        let mut vars = VarTable::new();
        let polys = bom_example_polys(&mut vars);
        assert!(!polys.is_empty());
        assert!(polys.len() <= 4, "one polynomial per family");
        for (_, mono, _) in polys.monomials() {
            assert_eq!(mono.num_vars(), 4, "wide monomials");
        }
        let forest = bom_example_forest(&mut vars);
        assert_eq!(forest.tree(0).num_leaves(), 8);
        let cleaned = provabs_trees::clean::clean_forest(&forest, &polys);
        cleaned.check_compatible(&polys).expect("compatible");
        // Deterministic across calls.
        let mut vars2 = VarTable::new();
        let again = bom_example_polys(&mut vars2);
        assert_eq!(polys.size_m(), again.size_m());
    }
}
