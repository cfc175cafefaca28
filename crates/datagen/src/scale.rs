//! The telephony-shaped *scale* fixture: million-monomial provenance
//! emitted straight into the interned currency.
//!
//! The paper's evaluation grows telephony to millions of calls (§4.2);
//! regenerating that through the relational engine would spend the bench
//! budget on joins, not compression. This fixture emits the *provenance
//! shape* of the telephony revenue query directly: one polynomial per
//! zip-code group, monomials `z_g · p_i · m_j` (a per-group context
//! variable times a plan and a month variable), with a configurable fill
//! factor. Every monomial's presence and coefficient is a pure function
//! of `(seed, group, plan, month)` — no sequential RNG state — so the
//! [chunked emission](scale_chunks) used by the streaming-ingest path
//! produces exactly the same terms as the [whole set](scale_working_set)
//! regardless of chunk size.
//!
//! The matching abstraction forest ([`scale_forest`]) is a layered plans
//! tree plus a quarters/months tree; the `z_g` context variables stay
//! outside the forest (each group's polynomial collapses to
//! `z_g · Plans · Year` at full compression, so the exhaustion floor is
//! roughly one monomial per group).

use provabs_provenance::intern::MonoArena;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use provabs_trees::forest::Forest;
use provabs_trees::generate::shaped_tree;

/// Scale-fixture configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Number of output groups (polynomials; one `z_g` context variable
    /// each).
    pub groups: usize,
    /// Number of plan variables (paper: 128).
    pub plans: usize,
    /// Number of month variables (paper: 12).
    pub months: usize,
    /// Fill factor in permille: how many of the `groups · plans · months`
    /// candidate monomials are present (paper's data is sparse — not
    /// every plan is sold in every zip).
    pub fill_permille: u32,
    /// Seed of the per-monomial hash.
    pub seed: u64,
}

impl Default for ScaleConfig {
    /// A laptop-scale instance (≈ 20K monomials).
    fn default() -> Self {
        Self {
            groups: 60,
            plans: 32,
            months: 12,
            fill_permille: 900,
            seed: 42,
        }
    }
}

impl ScaleConfig {
    /// The million-monomial preset: ≈ 700 · 128 · 12 · 0.95 ≈ 1.02M
    /// terms across 700 polynomials.
    pub fn million() -> Self {
        Self {
            groups: 700,
            plans: 128,
            months: 12,
            fill_permille: 950,
            seed: 42,
        }
    }

    /// The candidate-monomial count before the fill factor.
    pub fn slots(&self) -> usize {
        self.groups * self.plans * self.months
    }
}

/// SplitMix64 — the per-monomial hash making emission chunk-independent.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The (presence, coefficient) decision for one `(group, plan, month)`
/// slot — pure in the config seed.
fn slot(config: &ScaleConfig, g: usize, i: usize, j: usize) -> Option<f64> {
    let key = (g as u64) << 32 | (i as u64) << 8 | j as u64;
    let h = mix(config.seed ^ key);
    if (h % 1000) as u32 >= config.fill_permille {
        return None;
    }
    // Prices in 0.25 .. 10.24, two decimals — telephony-like magnitudes.
    Some(((h >> 16) % 1000 + 25) as f64 / 100.0)
}

/// Interns the fixture's variables: `(plan ids, month ids, group ids)`.
/// Idempotent on a shared table (interning is).
fn intern_vars(config: &ScaleConfig, vars: &mut VarTable) -> (Vec<VarId>, Vec<VarId>, Vec<VarId>) {
    let plans = (0..config.plans)
        .map(|i| vars.intern(&format!("p{i}")))
        .collect();
    let months = (1..=config.months)
        .map(|j| vars.intern(&format!("m{j}")))
        .collect();
    let groups = (0..config.groups)
        .map(|g| vars.intern(&format!("z{g}")))
        .collect();
    (plans, months, groups)
}

/// Emits the polynomials of groups `range` as one working set. The
/// filled slots are counted first (a slot is a hash, not a monomial), so
/// the arena's columns and the term columns are allocated once, at their
/// size. `z_g·p_i·m_j` is a different monomial for every `(g, i, j)`, so
/// each is appended through one arena writer a group, with no probe and
/// no interning table (ADR 026); its ids ascend in emission order and the
/// terms go into the columns as they are emitted.
fn emit_groups(
    config: &ScaleConfig,
    range: std::ops::Range<usize>,
    plans: &[VarId],
    months: &[VarId],
    zips: &[VarId],
) -> WorkingSet<f64> {
    let mut filled = 0;
    for g in range.clone() {
        for i in 0..config.plans {
            filled += (0..config.months)
                .filter(|&j| slot(config, g, i, j).is_some())
                .count();
        }
    }
    let arena = MonoArena::with_capacity(filled, 3 * filled);
    let mut ws = WorkingSet::with_capacity(arena, range.len(), filled);
    let mut factors = Vec::with_capacity(3);
    let mut terms = Vec::with_capacity(config.plans * config.months);
    for g in range {
        let mut arena = ws.arena_mut().writer();
        for (i, &p) in plans.iter().enumerate() {
            for (j, &m) in months.iter().enumerate() {
                let Some(coeff) = slot(config, g, i, j) else {
                    continue;
                };
                factors.clear();
                factors.extend([(zips[g], 1), (p, 1), (m, 1)]);
                Monomial::canonicalise(&mut factors);
                terms.push((arena.append(&factors), coeff));
            }
        }
        drop(arena);
        ws.push_poly(terms.drain(..));
    }
    ws
}

/// The whole fixture as one interned working set — `groups` polynomials
/// over a fresh arena, never materialising a hash-map poly-set.
pub fn scale_working_set(config: &ScaleConfig, vars: &mut VarTable) -> WorkingSet<f64> {
    let (plans, months, zips) = intern_vars(config, vars);
    emit_groups(config, 0..config.groups, &plans, &months, &zips)
}

/// Chunked emission for the out-of-core ingest path: yields working sets
/// of `groups_per_chunk` polynomials each (the last one smaller), each
/// over its own arena, in group order. Concatenated, the chunks are
/// term-for-term the whole fixture — only one chunk needs to be resident
/// at a time.
pub fn scale_chunks(
    config: ScaleConfig,
    groups_per_chunk: usize,
    vars: &mut VarTable,
) -> ScaleChunks {
    let (plans, months, zips) = intern_vars(&config, vars);
    ScaleChunks {
        config,
        groups_per_chunk: groups_per_chunk.max(1),
        next_group: 0,
        plans,
        months,
        zips,
    }
}

/// Iterator of [`scale_chunks`]. Variable ids were interned up front, so
/// the iterator owns everything it needs; chunks are independent.
pub struct ScaleChunks {
    config: ScaleConfig,
    groups_per_chunk: usize,
    next_group: usize,
    plans: Vec<VarId>,
    months: Vec<VarId>,
    zips: Vec<VarId>,
}

impl Iterator for ScaleChunks {
    type Item = WorkingSet<f64>;

    fn next(&mut self) -> Option<WorkingSet<f64>> {
        if self.next_group >= self.config.groups {
            return None;
        }
        let upper = (self.next_group + self.groups_per_chunk).min(self.config.groups);
        let range = self.next_group..upper;
        self.next_group = upper;
        Some(emit_groups(
            &self.config,
            range,
            &self.plans,
            &self.months,
            &self.zips,
        ))
    }
}

/// The fixture's abstraction forest: a 3-level layered plans tree
/// (`Plans` → 8 regions → 4 sub-groups each) and a quarters/months tree
/// (`Year` → 4 quarters). The `z_g` context variables are deliberately
/// outside the forest.
pub fn scale_forest(config: &ScaleConfig, vars: &mut VarTable) -> Forest {
    let plan_leaves: Vec<String> = (0..config.plans).map(|i| format!("p{i}")).collect();
    let month_leaves: Vec<String> = (1..=config.months).map(|j| format!("m{j}")).collect();
    let plans = shaped_tree("Plans", &plan_leaves, &[8, 4], vars);
    let months = shaped_tree("Year", &month_leaves, &[4], vars);
    Forest::new(vec![plans, months]).expect("plan and month labels are disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_deterministic_and_dense() {
        let cfg = ScaleConfig::default();
        let mut va = VarTable::new();
        let mut vb = VarTable::new();
        let a = scale_working_set(&cfg, &mut va);
        let b = scale_working_set(&cfg, &mut vb);
        assert_eq!(a.num_polys(), cfg.groups);
        assert_eq!(a.size_m(), b.size_m());
        assert!(a.size_m() > cfg.slots() * 8 / 10, "fill factor ~0.9");
        assert!(a.size_m() < cfg.slots());
        // Every monomial is z_g · p_i · m_j.
        for pi in 0..a.num_polys() {
            for (id, _) in a.poly_terms(pi) {
                assert_eq!(a.mono(id).num_vars(), 3);
            }
        }
    }

    #[test]
    fn chunks_concatenate_to_the_whole_fixture() {
        let cfg = ScaleConfig {
            groups: 17,
            ..ScaleConfig::default()
        };
        let mut vars = VarTable::new();
        let whole = scale_working_set(&cfg, &mut vars);
        for chunk_size in [1, 4, 17, 40] {
            let mut seen_polys = 0usize;
            let mut seen_m = 0usize;
            for chunk in scale_chunks(cfg, chunk_size, &mut vars) {
                for pi in 0..chunk.num_polys() {
                    // Arena ids differ between the chunk and the whole,
                    // so compare the coefficient multisets (exact — the
                    // same slots produce bit-identical coefficients).
                    let mut whole_c: Vec<f64> =
                        whole.poly_terms(seen_polys + pi).map(|(_, c)| *c).collect();
                    let mut chunk_c: Vec<f64> = chunk.poly_terms(pi).map(|(_, c)| *c).collect();
                    whole_c.sort_by(f64::total_cmp);
                    chunk_c.sort_by(f64::total_cmp);
                    assert_eq!(whole_c, chunk_c, "chunk_size {chunk_size}");
                }
                seen_polys += chunk.num_polys();
                seen_m += chunk.size_m();
            }
            assert_eq!(seen_polys, cfg.groups);
            assert_eq!(seen_m, whole.size_m());
        }
    }

    #[test]
    fn forest_covers_the_parameter_variables_only() {
        let cfg = ScaleConfig::default();
        let mut vars = VarTable::new();
        let ws = scale_working_set(&cfg, &mut vars);
        let forest = scale_forest(&cfg, &mut vars);
        assert_eq!(forest.num_trees(), 2);
        // Plan and month leaves are in the forest; z context vars are not.
        assert!(forest
            .locate(vars.lookup("p0").expect("interned"))
            .is_some());
        assert!(forest
            .locate(vars.lookup("m1").expect("interned"))
            .is_some());
        assert!(forest
            .locate(vars.lookup("z0").expect("interned"))
            .is_none());
        assert!(ws.size_v() > cfg.groups, "z vars plus parameters are live");
    }

    #[test]
    fn million_preset_is_million_scale() {
        let cfg = ScaleConfig::million();
        // Exact generation is the stress suite's job; here only the
        // arithmetic contract of the preset.
        assert!(cfg.slots() > 1_000_000);
        assert!(cfg.slots() * cfg.fill_permille as usize / 1000 >= 1_000_000);
    }
}
