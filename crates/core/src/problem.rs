//! Problem definitions (§2.4) and result types.
//!
//! Given a polynomial set `𝒫`, a compatible abstraction forest `𝒯` and a
//! bound `B ∈ {1..|𝒫|_M}`, a VVS `S` is
//!
//! * **adequate** for `B` if `|𝒫↓S|_M ≤ B`,
//! * **precise** for `B, K` if `|𝒫↓S|_M = B` and `|𝒫↓S|_V = K`,
//! * **optimal** for `B` if adequate and no adequate VVS retains more
//!   distinct variables.
//!
//! All algorithms in this crate take the provenance as an interned
//! [`WorkingSet`] (a hash-map poly-set is an *input format*, lowered once
//! by [`WorkingSet::from_polyset`]) and return an [`InternedAbstraction`]:
//! the [`AbstractionResult`] — the chosen VVS together with the (cleaned)
//! forest it refers to and the four size/granularity measures — plus the
//! rewritten `𝒫↓S`.

use provabs_provenance::coeff::Coefficient;
use provabs_provenance::fxhash::FxHashSet;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::VarId;
use provabs_provenance::working::WorkingSet;
use provabs_trees::clean::clean_forest_vars;
use provabs_trees::cut::Vvs;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;

/// The outcome of choosing a VVS for a polynomial set.
#[derive(Clone, Debug)]
pub struct AbstractionResult {
    /// The forest the VVS refers to (cleaned against the polynomials).
    pub forest: Forest,
    /// The chosen valid variable set.
    pub vvs: Vvs,
    /// `|𝒫|_M` before abstraction.
    pub original_size_m: usize,
    /// `|𝒫|_V` before abstraction.
    pub original_size_v: usize,
    /// `|𝒫↓S|_M` after abstraction.
    pub compressed_size_m: usize,
    /// `|𝒫↓S|_V` after abstraction.
    pub compressed_size_v: usize,
}

impl AbstractionResult {
    /// The induced monomial loss `ML(S) = |𝒫|_M − |𝒫↓S|_M`.
    pub fn ml(&self) -> usize {
        self.original_size_m - self.compressed_size_m
    }

    /// The induced variable loss `VL(S) = |𝒫|_V − |𝒫↓S|_V`.
    pub fn vl(&self) -> usize {
        self.original_size_v - self.compressed_size_v
    }

    /// Whether the abstraction is adequate for `bound` (Def. 7).
    pub fn is_adequate_for(&self, bound: usize) -> bool {
        self.compressed_size_m <= bound
    }

    /// Applies the chosen abstraction to a polynomial set (normally the
    /// one it was computed from): `𝒫↓S`. This is the materialising bridge
    /// out of the interned currency — the algorithms themselves return
    /// `𝒫↓S` as [`InternedAbstraction::working`].
    pub fn apply<C: Coefficient>(&self, polys: &PolySet<C>) -> PolySet<C> {
        self.vvs.apply(polys, &self.forest)
    }
}

/// Cleans the forest against the provenance and checks compatibility —
/// the shared preamble of every algorithm. Returns the cleaned forest
/// and the live-variable set it was cleaned against (`|𝒫|_V` is its
/// length: the one pass over the provenance a caller needs for it).
///
/// The live-variable set and the distinct live monomials are read
/// straight from the working set's arena.
pub fn prepare<C: Coefficient>(
    working: &WorkingSet<C>,
    forest: &Forest,
) -> Result<(Forest, FxHashSet<VarId>), TreeError> {
    let live = working.live_vars();
    let cleaned = clean_forest_vars(forest, &live);
    cleaned.check_compatible_parts(&live, working.live_monomials())?;
    Ok((cleaned, live))
}

/// An abstraction outcome carried in the interned currency: the selection
/// measures ([`AbstractionResult`]) together with the rewritten `𝒫↓S` as
/// a [`WorkingSet`] over the shared monomial arena. Callers evaluate it
/// by freezing ([`WorkingSet::freeze`]) instead of materialising a
/// poly-set and re-compiling — the id-to-id hand-off the pipeline is
/// built around.
#[derive(Clone, Debug)]
pub struct InternedAbstraction<C> {
    /// The selection outcome: chosen VVS, cleaned forest, size measures.
    pub result: AbstractionResult,
    /// The abstracted provenance `𝒫↓S` in interned form.
    pub working: WorkingSet<C>,
    /// The distinct variables of `working` (`result.compressed_size_v` is
    /// its length) — derived once, when the result was measured.
    pub live_vars: FxHashSet<VarId>,
}

/// Applies `vvs` to a working set (consuming it) and measures everything,
/// returning both the measures and the rewritten working set so
/// downstream layers keep speaking ids. `forest` must be the forest the
/// VVS was built over (typically already cleaned), and `original_size_v`
/// the working set's `|𝒫|_V` — which whoever cleaned that forest has
/// (the length of [`prepare`]'s live set).
///
/// Each distinct monomial is remapped exactly once regardless of how many
/// polynomials share it, and the merge is `u32`-id accumulation; the
/// sizes are identical to a direct [`Vvs::apply`] (the working set
/// mirrors `map_vars` term-set semantics).
pub fn evaluate_vvs<C: Coefficient>(
    mut working: WorkingSet<C>,
    forest: &Forest,
    vvs: Vvs,
    original_size_v: usize,
) -> InternedAbstraction<C> {
    let original_size_m = working.size_m();
    let subst = vvs.substitution(forest);
    if !subst.is_empty() {
        working.apply_var_map(|v| subst.target(v));
    }
    let live_vars = working.live_vars();
    let result = AbstractionResult {
        forest: forest.clone(),
        vvs,
        original_size_m,
        original_size_v,
        compressed_size_m: working.size_m(),
        compressed_size_v: live_vars.len(),
    };
    InternedAbstraction {
        result,
        working,
        live_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::var::VarTable;
    use provabs_trees::builder::TreeBuilder;

    #[test]
    fn evaluate_vvs_measures_example_6() {
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3",
            &mut vars,
        )
        .expect("parse");
        let tree = TreeBuilder::new("Plans")
            .child("Plans", "Special")
            .leaves("Special", ["f1", "y1", "v"])
            .child("Plans", "p1")
            .build(&mut vars)
            .expect("tree");
        let forest = Forest::single(tree);
        let vvs = Vvs::from_labels(&forest, &vars, &["Plans"]).expect("labels");
        let r = evaluate_vvs(WorkingSet::from_polyset(&polys), &forest, vvs, 6).result;
        assert_eq!(r.original_size_m, 8);
        assert_eq!(r.original_size_v, 6);
        assert_eq!(r.compressed_size_m, 2);
        assert_eq!(r.compressed_size_v, 3);
        assert_eq!(r.ml(), 6);
        assert_eq!(r.vl(), 3);
        assert!(r.is_adequate_for(2));
        assert!(!r.is_adequate_for(1));
    }

    #[test]
    fn prepare_cleans_and_checks() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("1·m1 + 2·m3", &mut vars).expect("parse");
        let tree = TreeBuilder::new("Year")
            .child("Year", "q1")
            .leaves("q1", ["m1", "m2", "m3"])
            .build(&mut vars)
            .expect("tree");
        let forest = Forest::single(tree);
        // m2 does not occur: raw forest is incompatible, prepare fixes it.
        assert!(forest.check_compatible(&polys).is_err());
        let (cleaned, live) = prepare(&WorkingSet::from_polyset(&polys), &forest).expect("prepare");
        assert_eq!(live, polys.var_set());
        assert_eq!(cleaned.num_trees(), 1);
        assert_eq!(cleaned.tree(0).num_leaves(), 2);
    }
}
