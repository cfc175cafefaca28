//! The supply-chain bill-of-materials workload — the third fixture
//! family, exercising a *different monomial-shape regime*.
//!
//! The paper's two workloads (telephony, TPC-H) produce narrow monomials
//! — exactly two variables each (`p·m`, `s·p`). Real provenance is often
//! *wide*: a cost roll-up through a bill of materials multiplies one
//! annotation per join level. This generator models that: products are
//! assembled from sub-assemblies, which consume components produced at
//! facilities; the cost roll-up query
//!
//! ```sql
//! SELECT family, SUM(qty · cost · prod_i · asm_j · c_k · f_l)
//! FROM product ⋈ bom ⋈ usage ⋈ component
//! GROUP BY family
//! ```
//!
//! parameterizes *four* variable families at once (product, assembly,
//! component, facility classes — each `mod M` like TPC-H's suppliers), so
//! every monomial has four distinct variables and the remainder index of
//! the abstraction algorithms works on genuinely wide remainders. The
//! matching abstraction trees are *deep*: component classes form the
//! primary family, intended for layered shapes
//! ([`crate::workload::WorkloadData::primary_shaped`] with fan-outs like
//! `[2, 2, 2, 2]`), mirroring multi-level commodity taxonomies.
//!
//! Deterministic in its seed, like the sibling generators.

use provabs_engine::expr::Expr;
use provabs_engine::param::VarRule;
use provabs_engine::query::{GroupedProvenance, GroupedProvenanceInterned, Pipeline};
use provabs_engine::schema::{ColumnType, Schema};
use provabs_engine::table::Table;
use provabs_engine::value::Value;
use provabs_engine::Catalog;
use provabs_provenance::var::VarTable;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of production facilities (the secondary variable family).
pub const FACILITIES: usize = 8;

/// BOM generator configuration.
#[derive(Clone, Debug)]
pub struct BomConfig {
    /// Number of finished products.
    pub products: usize,
    /// Number of product families (one provenance polynomial each).
    pub families: usize,
    /// Number of distinct sub-assemblies.
    pub assemblies: usize,
    /// Number of distinct components.
    pub components: usize,
    /// Parameterization modulus `M` for the product/assembly/component
    /// classes (facilities use the fixed [`FACILITIES`] count).
    pub param_modulus: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BomConfig {
    fn default() -> Self {
        Self {
            products: 150,
            families: 10,
            assemblies: 80,
            components: 120,
            param_modulus: 128,
            seed: 42,
        }
    }
}

/// A generated supply-chain database.
#[derive(Debug)]
pub struct BomData {
    /// product / bom / usage / component tables.
    pub catalog: Catalog,
    /// The configuration used.
    pub config: BomConfig,
}

/// Generates the product / bom / usage / component tables.
pub fn generate(config: BomConfig) -> BomData {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut product = Table::new(Schema::of(&[
        ("pid", ColumnType::Int),
        ("family", ColumnType::Int),
    ]));
    let mut bom = Table::new(Schema::of(&[
        ("bpid", ColumnType::Int),
        ("aid", ColumnType::Int),
    ]));
    for pid in 0..config.products {
        product
            .push([
                Value::Int(pid as i64),
                Value::Int(rng.gen_range(0..config.families) as i64),
            ])
            .expect("generated rows are well-typed");
        // Each product is built from 2–4 distinct-ish sub-assemblies.
        for _ in 0..rng.gen_range(2..=4usize) {
            bom.push([
                Value::Int(pid as i64),
                Value::Int(rng.gen_range(0..config.assemblies) as i64),
            ])
            .expect("generated rows are well-typed");
        }
    }
    let mut usage = Table::new(Schema::of(&[
        ("uaid", ColumnType::Int),
        ("sid", ColumnType::Int),
        ("fid", ColumnType::Int),
        ("qty", ColumnType::Int),
    ]));
    for aid in 0..config.assemblies {
        // Each assembly consumes 3–6 components, each sourced from one
        // facility.
        for _ in 0..rng.gen_range(3..=6usize) {
            usage
                .push([
                    Value::Int(aid as i64),
                    Value::Int(rng.gen_range(0..config.components) as i64),
                    Value::Int(rng.gen_range(0..FACILITIES) as i64),
                    Value::Int(rng.gen_range(1..=20i64)),
                ])
                .expect("generated rows are well-typed");
        }
    }
    let mut component = Table::new(Schema::of(&[
        ("csid", ColumnType::Int),
        ("cost", ColumnType::Float),
    ]));
    for sid in 0..config.components {
        component
            .push([
                Value::Int(sid as i64),
                Value::float(rng.gen_range(50..5000) as f64 / 100.0),
            ])
            .expect("generated rows are well-typed");
    }
    let mut catalog = Catalog::new();
    catalog.register("product", product).expect("fresh catalog");
    catalog.register("bom", bom).expect("fresh catalog");
    catalog.register("usage", usage).expect("fresh catalog");
    catalog
        .register("component", component)
        .expect("fresh catalog");
    BomData { catalog, config }
}

/// The cost roll-up pipeline plus aggregation spec (shared by both
/// aggregation forms and the workload façade): four parameterized
/// variable families → four-variable monomials.
pub fn cost_rollup_spec(data: &BomData) -> (Pipeline, Vec<&'static str>, Expr, Vec<VarRule>) {
    let pipeline = Pipeline::scan(&data.catalog, "product")
        .expect("table registered")
        .join(&data.catalog, "bom", &[("pid", "bpid")])
        .expect("join keys exist")
        .join(&data.catalog, "usage", &[("aid", "uaid")])
        .expect("join keys exist")
        .join(&data.catalog, "component", &[("sid", "csid")])
        .expect("join keys exist");
    let m = data.config.param_modulus;
    (
        pipeline,
        vec!["family"],
        Expr::col("qty").mul(Expr::col("cost")),
        vec![
            VarRule::per_mod("pid", m, "prod"),
            VarRule::per_mod("aid", m, "asm"),
            VarRule::per_mod("sid", m, "c"),
            VarRule::per_value("fid", "f"),
        ],
    )
}

/// The cost roll-up provenance: one polynomial per product family, wide
/// (four-variable) monomials.
pub fn cost_rollup(data: &BomData, vars: &mut VarTable) -> GroupedProvenance {
    let (pipeline, cols, measure, rules) = cost_rollup_spec(data);
    pipeline
        .aggregate_sum(&cols, &measure, &rules, vars)
        .expect("aggregation is well-typed")
}

/// [`cost_rollup`] emitted directly into the interned currency.
pub fn cost_rollup_interned(data: &BomData, vars: &mut VarTable) -> GroupedProvenanceInterned {
    let (pipeline, cols, measure, rules) = cost_rollup_spec(data);
    pipeline
        .aggregate_sum_interned(&cols, &measure, &rules, vars)
        .expect("aggregation is well-typed")
}

/// The component-class leaf names `c0..c{M-1}` — the primary abstraction
/// family (commodity taxonomy; build *deep* trees over these).
pub fn component_leaves(config: &BomConfig) -> Vec<String> {
    let classes = (config.param_modulus as usize).min(config.components);
    (0..classes).map(|i| format!("c{i}")).collect()
}

/// The facility leaf names `f0..f{FACILITIES-1}` — the secondary family.
pub fn facility_leaves(_config: &BomConfig) -> Vec<String> {
    (0..FACILITIES).map(|i| format!("f{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BomConfig {
        BomConfig {
            products: 40,
            families: 6,
            assemblies: 20,
            components: 30,
            param_modulus: 16,
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
        let pa = cost_rollup(&a, &mut va);
        let pb = cost_rollup(&b, &mut vb);
        assert_eq!(pa.polys.size_m(), pb.polys.size_m());
        assert_eq!(pa.plain_values(), pb.plain_values());
    }

    #[test]
    fn monomials_are_wide() {
        let data = generate(small());
        let mut vars = VarTable::new();
        let g = cost_rollup(&data, &mut vars);
        assert!(g.len() <= 6, "one polynomial per family");
        assert!(!g.is_empty());
        for p in g.polys.iter() {
            for (m, _) in p.iter() {
                assert_eq!(m.num_vars(), 4, "prod · asm · c · f per monomial");
            }
        }
        // All four variable families appear.
        for prefix in ["prod", "asm", "c", "f"] {
            assert!(
                vars.iter().any(|(_, n)| n.starts_with(prefix)
                    && n[prefix.len()..].parse::<u64>().is_ok()),
                "family {prefix} missing"
            );
        }
    }

    #[test]
    fn interned_emission_matches_hashmap_aggregation() {
        let data = generate(small());
        let mut va = VarTable::new();
        let grouped = cost_rollup(&data, &mut va);
        let mut vb = VarTable::new();
        let interned = cost_rollup_interned(&data, &mut vb);
        assert_eq!(grouped.keys, interned.keys);
        assert_eq!(interned.working.size_m(), grouped.polys.size_m());
        assert_eq!(interned.working.size_v(), grouped.polys.size_v());
        let bridged = interned.into_grouped();
        for (a, b) in bridged.polys.iter().zip(grouped.polys.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn leaf_name_helpers() {
        let cfg = small();
        assert_eq!(component_leaves(&cfg).len(), 16);
        assert_eq!(component_leaves(&cfg)[0], "c0");
        assert_eq!(facility_leaves(&cfg).len(), FACILITIES);
    }

    #[test]
    fn deep_tree_over_component_classes_is_compatible() {
        let data = generate(small());
        let mut vars = VarTable::new();
        let g = cost_rollup(&data, &mut vars);
        let tree = provabs_trees::generate::shaped_tree(
            "Comp",
            &component_leaves(&data.config),
            &[2, 2, 2, 2],
            &mut vars,
        );
        let forest = provabs_trees::forest::Forest::single(tree);
        let cleaned = provabs_trees::clean::clean_forest(&forest, &g.polys);
        cleaned.check_compatible(&g.polys).expect("compatible");
    }
}
