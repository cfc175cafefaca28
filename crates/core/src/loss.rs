//! Monomial loss (`ML`) and variable loss (`VL`) computation.
//!
//! `ML_𝒫(S) = |𝒫|_M − |𝒫↓S|_M` and `VL_𝒫(S) = |𝒫|_V − |𝒫↓S|_V` (§3.1).
//!
//! The definition itself (substitute and count) is the oracle
//! [`crate::reference::ml_naive`]. For a whole tree, [`TreeLoss`]
//! implements the efficient computation of §4.1: one pass over the
//! polynomials builds, for each leaf `l`, the set
//! `D_P[l] = { (M_l, exp) | M ∈ M(P), l ∈ M }` of *remainders* (the
//! monomial with `l` removed, plus `l`'s exponent — two monomials merge
//! under abstraction iff their remainders and exponents agree). Then for a
//! node `v` with descendant leaves `l_0..l_m`,
//! `ML({v}) = Σᵢ |D_P[l_i]| − |∪ᵢ D_P[l_i]|`, computed for *every* node in
//! one bottom-up merge (small-to-large, so the total work is
//! `O(|𝒫|_M · log n)`).

use provabs_provenance::coeff::Coefficient;
use provabs_provenance::fxhash::FxHashMap;
use provabs_provenance::working::{RemainderClasses, WorkingSet};
use provabs_trees::tree::{AbsTree, NodeId};

/// Per-node `ML({v})` and `VL({v})` for one tree, precomputed with the
/// `D_P` remainder maps of §4.1.
#[derive(Clone, Debug)]
pub struct TreeLoss {
    /// `ml[v] = ML({v})`: monomials saved if all leaves below `v` merge.
    pub ml: Vec<usize>,
    /// `vl[v] = VL({v})`: number of descendant leaves minus one (0 for
    /// leaves). Assumes a cleaned tree (every leaf occurs in `𝒫`).
    pub vl: Vec<usize>,
}

impl TreeLoss {
    /// Builds the index for `tree` against the working set. Each distinct
    /// monomial's remainder and exponent are classed once, over the whole
    /// set, with [`RemainderClasses`]; a term's key is then its
    /// `(polynomial, class)` pair, numbered in first-occurrence order.
    /// Nothing is interned; the working set is only read.
    ///
    /// Requires compatibility: each monomial contains at most one node of
    /// `tree` (checked by [`crate::problem::prepare`] upstream; here a
    /// debug assertion on leaf-ness).
    pub fn build<C: Coefficient>(ws: &WorkingSet<C>, tree: &AbsTree) -> Self {
        let mut per_leaf: Vec<Vec<u32>> = vec![Vec::new(); tree.num_nodes()];
        let mut classes = RemainderClasses::default();
        classes.reset(ws.size_m());
        // Per arena id: its class, once a term has held it.
        let mut class_of = vec![u32::MAX; ws.arena().len()];
        // Per class: the polynomial it was last met in, and its key there.
        let mut met: Vec<(usize, u32)> = Vec::new();
        let mut keys = 0;
        for pi in 0..ws.num_polys() {
            for &id in ws.poly_mono_ids(pi) {
                // Compatibility: at most one tree node per monomial.
                let mut vars = ws.mono(id).vars();
                let Some((v, node)) = vars.find_map(|v| tree.node_of_var(v).map(|n| (v, n))) else {
                    continue;
                };
                debug_assert!(tree.is_leaf(node), "meta-variable in polynomials");
                let class = &mut class_of[id as usize];
                if *class == u32::MAX {
                    *class = classes.push(ws.arena(), id, v) as u32;
                    met.resize(classes.count(), (usize::MAX, 0));
                }
                let met = &mut met[*class as usize];
                if met.0 != pi {
                    *met = (pi, keys);
                    keys += 1;
                }
                per_leaf[node.index()].push(met.1);
            }
        }
        Self::from_per_leaf(tree, per_leaf)
    }

    /// The bottom-up merge: folds per-leaf
    /// remainder-class id lists into per-node `ML`/`VL` values
    /// (small-to-large, `O(|𝒫|_M · log n)`).
    fn from_per_leaf(tree: &AbsTree, mut per_leaf: Vec<Vec<u32>>) -> Self {
        let n = tree.num_nodes();
        let mut ml = vec![0usize; n];
        let mut vl = vec![0usize; n];
        let mut maps: Vec<Option<(FxHashMap<u32, u32>, usize)>> = (0..n).map(|_| None).collect();
        for id in tree.postorder() {
            if tree.is_leaf(id) {
                let entries = std::mem::take(&mut per_leaf[id.index()]);
                let total = entries.len();
                let mut map = FxHashMap::default();
                map.reserve(total);
                for e in entries {
                    *map.entry(e).or_insert(0) += 1;
                }
                maps[id.index()] = Some((map, total));
                // ml, vl stay 0 for leaves.
            } else {
                let mut acc: Option<(FxHashMap<u32, u32>, usize)> = None;
                for &c in tree.children(id) {
                    let child = maps[c.index()]
                        .take()
                        .expect("postorder visits children first");
                    acc = Some(match acc {
                        None => child,
                        Some((mut big, big_total)) => {
                            let (mut small, small_total) = child;
                            if small.len() > big.len() {
                                std::mem::swap(&mut big, &mut small);
                            }
                            for (k, v) in small {
                                *big.entry(k).or_insert(0) += v;
                            }
                            (big, big_total + small_total)
                        }
                    });
                }
                let (map, total) = acc.expect("internal node has children");
                ml[id.index()] = total - map.len();
                vl[id.index()] = tree.num_descendant_leaves(id) - 1;
                maps[id.index()] = Some((map, total));
            }
        }
        Self { ml, vl }
    }

    /// `ML({v})` for a single node.
    pub fn ml_of(&self, v: NodeId) -> usize {
        self.ml[v.index()]
    }

    /// `VL({v})` for a single node.
    pub fn vl_of(&self, v: NodeId) -> usize {
        self.vl[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ml_delta_of_group, ml_naive};
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::polyset::PolySet;
    use provabs_provenance::var::{VarId, VarTable};
    use provabs_trees::builder::TreeBuilder;
    use provabs_trees::cut::Vvs;
    use provabs_trees::forest::Forest;

    /// The cleaned plans tree of Example 13 over P1, P2.
    fn example_13() -> (PolySet<f64>, AbsTree, VarTable) {
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3\n\
             77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 \
             + 69.7·b2·m1 + 100.65·b2·m3",
            &mut vars,
        )
        .expect("parse");
        let tree = TreeBuilder::new("Plans")
            .child("Plans", "p1")
            .child("Plans", "Special")
            .child("Plans", "Business")
            .leaves("Special", ["f1", "y1", "v"])
            .child("Business", "SB")
            .child("Business", "e")
            .leaves("SB", ["b1", "b2"])
            .build(&mut vars)
            .expect("tree");
        (polys, tree, vars)
    }

    #[test]
    fn example_13_losses_via_remainder_maps() {
        let (polys, tree, vars) = example_13();
        let loss = TreeLoss::build(&WorkingSet::from_polyset(&polys), &tree);
        let node = |l: &str| {
            tree.node_of_var(vars.lookup(l).expect("interned"))
                .expect("in tree")
        };
        // "ASB[2] = 1 ... reduce the provenance by two monomials".
        assert_eq!(loss.ml_of(node("SB")), 2);
        assert_eq!(loss.vl_of(node("SB")), 1);
        // ASp[4] = 2 (Special merges f1, y1, v in both months).
        assert_eq!(loss.ml_of(node("Special")), 4);
        assert_eq!(loss.vl_of(node("Special")), 2);
        // Business merges b1, b2, e: 3 monomials → 1 per month.
        assert_eq!(loss.ml_of(node("Business")), 4);
        assert_eq!(loss.vl_of(node("Business")), 2);
        // Root merges everything: P1 8→2, P2 6→2 → ML = 10.
        assert_eq!(loss.ml_of(node("Plans")), 10);
        assert_eq!(loss.vl_of(node("Plans")), 6);
        // Leaves lose nothing.
        assert_eq!(loss.ml_of(node("p1")), 0);
        assert_eq!(loss.vl_of(node("p1")), 0);
    }

    #[test]
    fn efficient_ml_matches_naive_for_every_node() {
        let (polys, tree, _) = example_13();
        let forest = Forest::single(tree.clone());
        let loss = TreeLoss::build(&WorkingSet::from_polyset(&polys), &tree);
        for node in tree.node_ids() {
            if tree.is_leaf(node) {
                continue;
            }
            // VVS choosing only `node` (and every other leaf as itself).
            let mut chosen: Vec<NodeId> = tree
                .leaves()
                .into_iter()
                .filter(|&l| !tree.is_ancestor_or_self(node, l))
                .collect();
            chosen.push(node);
            let vvs = Vvs::from_per_tree(vec![chosen]);
            vvs.validate(&forest).expect("valid");
            assert_eq!(
                loss.ml_of(node),
                ml_naive(&polys, &forest, &vvs),
                "node {}",
                tree.label_of(node)
            );
        }
    }

    #[test]
    fn exponents_distinguish_remainders() {
        // x²·a and x·a must not merge with y·a when x,y → g, because the
        // exponents differ: x²·a → g²·a ≠ g·a.
        let mut vars = VarTable::new();
        let polys = parse_polyset("1·x^2·a + 2·x·a + 3·y·a", &mut vars).expect("parse");
        let tree = TreeBuilder::new("g")
            .leaves("g", ["x", "y"])
            .build(&mut vars)
            .expect("tree");
        let loss = TreeLoss::build(&WorkingSet::from_polyset(&polys), &tree);
        // Only x·a and y·a merge → ML = 1.
        assert_eq!(loss.ml_of(tree.root()), 1);
        let forest = Forest::single(tree.clone());
        let vvs = Vvs::from_labels(&forest, &vars, &["g"]).expect("labels");
        assert_eq!(ml_naive(&polys, &forest, &vvs), 1);
    }

    #[test]
    fn monomials_in_different_polynomials_never_merge() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("1·x·a\n1·y·a", &mut vars).expect("parse");
        let tree = TreeBuilder::new("g")
            .leaves("g", ["x", "y"])
            .build(&mut vars)
            .expect("tree");
        let loss = TreeLoss::build(&WorkingSet::from_polyset(&polys), &tree);
        assert_eq!(loss.ml_of(tree.root()), 0);
    }

    #[test]
    fn ml_delta_of_group_matches_substitution() {
        let (polys, tree, vars) = example_13();
        let group: Vec<VarId> = ["b1", "b2", "e"]
            .iter()
            .map(|l| vars.lookup(l).expect("interned"))
            .collect();
        let delta = ml_delta_of_group(&polys, &group);
        // Same as abstracting Business directly.
        let loss = TreeLoss::build(&WorkingSet::from_polyset(&polys), &tree);
        let business = tree
            .node_of_var(vars.lookup("Business").expect("interned"))
            .expect("node");
        assert_eq!(delta, loss.ml_of(business));
        // Single-variable groups lose nothing.
        assert_eq!(ml_delta_of_group(&polys, &group[..1]), 0);
    }
}
