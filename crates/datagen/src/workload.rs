//! A uniform façade over the four evaluation workloads.
//!
//! Every experiment of §4.3 runs over the same four provenance sets —
//! TPC-H Q5, Q10, Q1 and the running-example (telephony) query — combined
//! with abstraction trees over the "primary" variable family (suppliers
//! for TPC-H, plans for telephony). [`Workload::generate`] produces the
//! polynomials plus everything needed to build those trees.

use crate::{bom, telephony, tpch};
use provabs_engine::expr::Expr;
use provabs_engine::param::VarRule;
use provabs_engine::query::{GroupedProvenanceInterned, Pipeline};
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::VarTable;
use provabs_trees::forest::Forest;
use provabs_trees::generate::{binary_forest, paper_tree, shaped_tree};

/// One of the five evaluation workloads (the paper's four plus the
/// supply-chain BOM family).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TPC-H Q5: 25 polynomials, many monomials each.
    TpchQ5,
    /// TPC-H Q10: many polynomials, few monomials each.
    TpchQ10,
    /// TPC-H Q1: 8 polynomials, many monomials each.
    TpchQ1,
    /// The telephony running example.
    Telephony,
    /// The supply-chain BOM cost roll-up: few polynomials, *wide*
    /// (four-variable) monomials, deep component taxonomies.
    SupplyChain,
}

impl Workload {
    /// All workloads, the paper's four first (figure order), then the
    /// supply-chain extension.
    pub const ALL: [Workload; 5] = [
        Workload::TpchQ5,
        Workload::TpchQ10,
        Workload::TpchQ1,
        Workload::Telephony,
        Workload::SupplyChain,
    ];

    /// Display name matching the figure captions.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchQ5 => "TPC-H query 5",
            Workload::TpchQ10 => "TPC-H query 10",
            Workload::TpchQ1 => "TPC-H query 1",
            Workload::Telephony => "Running example query",
            Workload::SupplyChain => "Supply-chain BOM query",
        }
    }

    /// Generates the workload's provenance — in both currencies, off one
    /// shared join pipeline: the hash-map `polys` and the engine-emitted
    /// interned form (`interned`), over the same variable table.
    ///
    /// Deliberate trade-off: the joins (the expensive part) run once,
    /// but the grouped aggregation runs twice and both representations
    /// stay resident, so fixture generation pays one extra linear pass
    /// plus the second form's memory even for callers that use only
    /// one. The equivalence suites and benches need both sides of every
    /// workload; generation is test/bench tooling, not the runtime hot
    /// path.
    pub fn generate(self, config: &WorkloadConfig) -> WorkloadData {
        let mut vars = VarTable::new();
        let (spec, total_tuples, primary_leaves, secondary_leaves) = match self {
            Workload::TpchQ5 | Workload::TpchQ10 | Workload::TpchQ1 => {
                let data = tpch::generate(tpch::TpchConfig {
                    scale: config.scale,
                    param_modulus: config.param_modulus,
                    seed: config.seed,
                });
                let spec = match self {
                    Workload::TpchQ5 => tpch::q5_spec(&data),
                    Workload::TpchQ10 => tpch::q10_spec(&data),
                    _ => tpch::q1_spec(&data),
                };
                (
                    spec,
                    data.catalog.total_tuples(),
                    tpch::supplier_leaves(&data.config),
                    tpch::part_leaves(&data.config),
                )
            }
            Workload::Telephony => {
                let tcfg = telephony::TelephonyConfig {
                    customers: (2_000.0 * config.scale) as usize,
                    zips: ((50.0 * config.scale) as usize).clamp(5, 5_000),
                    plans: config.param_modulus as usize,
                    months: 12,
                    seed: config.seed,
                };
                let data = telephony::generate(tcfg.clone());
                (
                    telephony::revenue_spec(&data),
                    data.catalog.total_tuples(),
                    telephony::plan_leaves(&tcfg),
                    telephony::month_leaves(&tcfg),
                )
            }
            Workload::SupplyChain => {
                let bcfg = bom::BomConfig {
                    products: ((150.0 * config.scale) as usize).max(40),
                    families: ((10.0 * config.scale) as usize).clamp(5, 200),
                    assemblies: ((80.0 * config.scale) as usize).max(20),
                    components: ((120.0 * config.scale) as usize)
                        .max(config.param_modulus as usize),
                    param_modulus: config.param_modulus,
                    seed: config.seed,
                };
                let data = bom::generate(bcfg.clone());
                (
                    bom::cost_rollup_spec(&data),
                    data.catalog.total_tuples(),
                    bom::component_leaves(&bcfg),
                    bom::facility_leaves(&bcfg),
                )
            }
        };
        // Aggregate both representations off the one joined pipeline; the
        // second pass looks variables up in the already-populated table,
        // so both forms share ids.
        let (pipeline, cols, measure, rules): (Pipeline, Vec<&'static str>, Expr, Vec<VarRule>) =
            spec;
        let grouped = pipeline
            .aggregate_sum(&cols, &measure, &rules, &mut vars)
            .expect("aggregation is well-typed");
        let interned = pipeline
            .aggregate_sum_interned(&cols, &measure, &rules, &mut vars)
            .expect("aggregation is well-typed");
        WorkloadData {
            workload: self,
            total_tuples,
            polys: grouped.polys,
            interned,
            primary_leaves,
            secondary_leaves,
            vars,
        }
    }
}

/// Shared generator knobs.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Size multiplier (1.0 = laptop-scale defaults).
    pub scale: f64,
    /// Number of primary (and secondary) parameterization variables
    /// (paper: 128).
    pub param_modulus: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            param_modulus: 128,
            seed: 42,
        }
    }
}

/// A generated workload: polynomials plus tree-building material.
#[derive(Debug)]
pub struct WorkloadData {
    /// Which workload this is.
    pub workload: Workload,
    /// The provenance polynomials `𝒫` (hash-map representation).
    pub polys: PolySet<f64>,
    /// The same provenance in the interned currency, as emitted by the
    /// engine's interned aggregation over the same pipeline (group keys
    /// omitted; variable ids shared with [`WorkloadData::vars`]).
    pub interned: GroupedProvenanceInterned,
    /// The shared variable table (parameterization variables interned;
    /// tree meta-variables are added by the tree builders below).
    pub vars: VarTable,
    /// Leaf names of the primary abstraction family (suppliers / plans).
    pub primary_leaves: Vec<String>,
    /// Leaf names of the secondary family (parts / months).
    pub secondary_leaves: Vec<String>,
    /// Total input tuples that produced the provenance (Figure 8 x-axis).
    pub total_tuples: usize,
}

impl WorkloadData {
    /// The paper's tree of `tree_type ∈ 1..=7` and shape index, over the
    /// primary leaves (the "suppliers abstraction tree" of the figures).
    pub fn primary_tree(&mut self, tree_type: u8, shape_idx: usize) -> Forest {
        Forest::single(
            paper_tree(
                tree_type,
                shape_idx,
                "Supp",
                &self.primary_leaves,
                &mut self.vars,
            )
            .expect("tree type in 1..=7 with an in-range shape"),
        )
    }

    /// A layered tree with explicit fan-outs over the primary leaves.
    pub fn primary_shaped(&mut self, fanouts: &[usize]) -> Forest {
        Forest::single(shaped_tree(
            "Supp",
            &self.primary_leaves,
            fanouts,
            &mut self.vars,
        ))
    }

    /// The Figure 11 forest: `num_trees` binary 3-level trees, 16 primary
    /// leaves each.
    pub fn binary_forest(&mut self, num_trees: usize) -> Forest {
        binary_forest(num_trees, &self.primary_leaves, &mut self.vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            scale: 0.2,
            param_modulus: 32,
            seed: 3,
        }
    }

    #[test]
    fn all_workloads_generate_non_empty_provenance() {
        for w in Workload::ALL {
            let data = w.generate(&cfg());
            assert!(!data.polys.is_empty(), "{}", w.name());
            assert!(data.polys.size_m() > 0, "{}", w.name());
            assert!(data.total_tuples > 0, "{}", w.name());
        }
    }

    #[test]
    fn shapes_match_the_paper() {
        let q1 = Workload::TpchQ1.generate(&cfg());
        let q10 = Workload::TpchQ10.generate(&cfg());
        assert!(q1.polys.len() <= 8);
        assert!(q10.polys.len() > q1.polys.len() * 3, "Q10 has many groups");
        let q1_avg = q1.polys.size_m() as f64 / q1.polys.len() as f64;
        let q10_avg = q10.polys.size_m() as f64 / q10.polys.len() as f64;
        assert!(q1_avg > q10_avg, "Q1 polys are fatter than Q10's");
    }

    #[test]
    fn primary_tree_is_compatible_after_cleaning() {
        for w in Workload::ALL {
            let mut data = w.generate(&cfg());
            let forest = data.primary_tree(1, 1);
            let cleaned = provabs_trees::clean::clean_forest(&forest, &data.polys);
            cleaned
                .check_compatible(&data.polys)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }

    #[test]
    fn binary_forest_builds_over_primary_leaves() {
        let mut data = Workload::TpchQ5.generate(&cfg());
        let f = data.binary_forest(2);
        assert_eq!(f.num_trees(), 2);
    }

    #[test]
    fn param_modulus_controls_variable_count() {
        let narrow = Workload::TpchQ1.generate(&WorkloadConfig {
            param_modulus: 8,
            ..cfg()
        });
        let wide = Workload::TpchQ1.generate(&WorkloadConfig {
            param_modulus: 64,
            ..cfg()
        });
        assert!(wide.polys.size_v() > narrow.polys.size_v());
        assert!(narrow.polys.size_v() <= 16); // ≤ 8 supplier + 8 part vars
    }
}
