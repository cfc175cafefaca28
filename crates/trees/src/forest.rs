//! Valid abstraction forests (§2.3).
//!
//! A set of abstraction trees is a *valid abstraction forest* when its
//! trees are pairwise disjoint. A forest is *compatible* with a polynomial
//! set when (1) tree leaves are variables of the polynomials, (2) internal
//! meta-variables are fresh, and (3) every monomial contains at most one
//! node per tree.

use crate::error::TreeError;
use crate::tree::{AbsTree, NodeId};
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::fxhash::FxHashMap;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::VarId;

/// A valid abstraction forest: disjoint abstraction trees with a global
/// variable → (tree, node) index.
#[derive(Clone, Debug)]
pub struct Forest {
    trees: Vec<AbsTree>,
    var_index: FxHashMap<VarId, (usize, NodeId)>,
}

impl Forest {
    /// Builds a forest, checking the disjointness condition of §2.3.
    pub fn new(trees: Vec<AbsTree>) -> Result<Self, TreeError> {
        let mut var_index = FxHashMap::default();
        for (ti, tree) in trees.iter().enumerate() {
            for id in tree.node_ids() {
                let v = tree.var_of(id);
                if var_index.insert(v, (ti, id)).is_some() {
                    return Err(TreeError::ForestNotDisjoint(tree.label_of(id).to_string()));
                }
            }
        }
        Ok(Self { trees, var_index })
    }

    /// A forest with a single tree.
    pub fn single(tree: AbsTree) -> Self {
        Self::new(vec![tree]).expect("a single tree is always disjoint")
    }

    /// The trees, in construction order.
    pub fn trees(&self) -> &[AbsTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// The `i`-th tree.
    pub fn tree(&self, i: usize) -> &AbsTree {
        &self.trees[i]
    }

    /// Total number of nodes over all trees (the `n` of the complexity
    /// bounds).
    pub fn num_nodes(&self) -> usize {
        self.trees.iter().map(AbsTree::num_nodes).sum()
    }

    /// Locates the tree and node denoting variable `v`, if any.
    pub fn locate(&self, v: VarId) -> Option<(usize, NodeId)> {
        self.var_index.get(&v).copied()
    }

    /// Whether `v` labels any node of the forest.
    pub fn contains_var(&self, v: VarId) -> bool {
        self.var_index.contains_key(&v)
    }

    /// All leaf variables of all trees, `L(𝒯)`.
    pub fn leaf_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for tree in &self.trees {
            out.extend(tree.leaves().into_iter().map(|id| tree.var_of(id)));
        }
        out
    }

    /// Number of cuts across the whole forest (product over trees),
    /// saturating at `u128::MAX`.
    pub fn count_cuts(&self) -> u128 {
        self.trees
            .iter()
            .fold(1u128, |acc, t| acc.saturating_mul(t.count_cuts()))
    }

    /// Checks that the forest is compatible with `polys` (§2.2):
    ///
    /// 1. every leaf occurs in the polynomials (footnote 1; run
    ///    [`crate::clean::clean_forest`] first if not),
    /// 2. no internal meta-variable occurs in the polynomials,
    /// 3. every monomial contains at most one node of each tree.
    pub fn check_compatible<C: Coefficient>(&self, polys: &PolySet<C>) -> Result<(), TreeError> {
        self.check_compatible_parts(
            &polys.var_set(),
            polys.monomials().map(|(_, m, _)| m.view()),
        )
    }

    /// [`check_compatible`](Self::check_compatible) over the raw parts —
    /// the occurring-variable set and an iterator of the (distinct)
    /// monomials. Interned provenance representations use this to verify
    /// compatibility without materialising a [`PolySet`]; condition 3 is
    /// per-monomial, so iterating each distinct monomial once suffices.
    pub fn check_compatible_parts<'a>(
        &self,
        poly_vars: &provabs_provenance::fxhash::FxHashSet<VarId>,
        monos: impl Iterator<Item = provabs_provenance::monomial::MonoRef<'a>>,
    ) -> Result<(), TreeError> {
        for tree in &self.trees {
            for id in tree.node_ids() {
                let in_polys = poly_vars.contains(&tree.var_of(id));
                if tree.is_leaf(id) && !in_polys {
                    return Err(TreeError::LeafNotInPolynomials(
                        tree.label_of(id).to_string(),
                    ));
                }
                if !tree.is_leaf(id) && in_polys {
                    return Err(TreeError::MetaVariableInPolynomials(
                        tree.label_of(id).to_string(),
                    ));
                }
            }
        }
        // Condition 3: per-monomial, at most one variable per tree.
        let mut seen_tree: Vec<Option<VarId>> = vec![None; self.trees.len()];
        for mono in monos {
            for slot in seen_tree.iter_mut() {
                *slot = None;
            }
            for v in mono.vars() {
                if let Some((ti, _)) = self.locate(v) {
                    if let Some(prev) = seen_tree[ti] {
                        if prev != v {
                            return Err(TreeError::MonomialNotCompatible {
                                tree_root: self.trees[ti]
                                    .label_of(self.trees[ti].root())
                                    .to_string(),
                            });
                        }
                    }
                    seen_tree[ti] = Some(v);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::var::VarTable;

    fn months_tree(vars: &mut VarTable) -> AbsTree {
        TreeBuilder::new("Year")
            .child("Year", "q1")
            .leaves("q1", ["m1", "m3"])
            .build(vars)
            .expect("valid tree")
    }

    fn plans_tree(vars: &mut VarTable) -> AbsTree {
        TreeBuilder::new("Plans")
            .leaves("Plans", ["p1", "f1"])
            .build(vars)
            .expect("valid tree")
    }

    #[test]
    fn disjoint_forest_accepted() {
        let mut vars = VarTable::new();
        let f = Forest::new(vec![months_tree(&mut vars), plans_tree(&mut vars)]);
        let f = f.expect("disjoint");
        assert_eq!(f.num_trees(), 2);
        assert_eq!(f.leaf_vars().len(), 4);
        // months tree: {m1,m3}, {q1}, {Year} = 3 cuts; plans tree: 2 cuts.
        assert_eq!(f.count_cuts(), 6);
    }

    #[test]
    fn overlapping_trees_rejected() {
        let mut vars = VarTable::new();
        let t1 = months_tree(&mut vars);
        let t2 = TreeBuilder::new("Other")
            .leaves("Other", ["m1"]) // m1 already in t1
            .build(&mut vars)
            .expect("valid tree");
        let err = Forest::new(vec![t1, t2]).expect_err("must be rejected");
        assert_eq!(err, TreeError::ForestNotDisjoint("m1".into()));
    }

    #[test]
    fn locate_finds_tree_and_node() {
        let mut vars = VarTable::new();
        let f = Forest::new(vec![months_tree(&mut vars), plans_tree(&mut vars)]).expect("disjoint");
        let m3 = vars.lookup("m3").expect("interned");
        let (ti, node) = f.locate(m3).expect("m3 in forest");
        assert_eq!(ti, 0);
        assert_eq!(f.tree(ti).label_of(node), "m3");
        let unknown = vars.intern("zz");
        assert_eq!(f.locate(unknown), None);
    }

    #[test]
    fn compatibility_accepts_running_example() {
        let mut vars = VarTable::new();
        let polys =
            parse_polyset("2·p1·m1 + 3·p1·m3\n4·f1·m1 + 5·f1·m3", &mut vars).expect("parse");
        let f = Forest::new(vec![months_tree(&mut vars), plans_tree(&mut vars)]).expect("disjoint");
        f.check_compatible(&polys).expect("compatible");
    }

    #[test]
    fn compatibility_rejects_missing_leaf() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("2·p1·m1", &mut vars).expect("parse");
        let f = Forest::single(months_tree(&mut vars)); // m3 not in polys
        let err = f.check_compatible(&polys).expect_err("m3 missing");
        assert_eq!(err, TreeError::LeafNotInPolynomials("m3".into()));
    }

    #[test]
    fn compatibility_rejects_meta_variable_in_polys() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("2·m1·q1 + 1·m3", &mut vars).expect("parse");
        let f = Forest::single(months_tree(&mut vars));
        let err = f.check_compatible(&polys).expect_err("q1 is a meta var");
        assert_eq!(err, TreeError::MetaVariableInPolynomials("q1".into()));
    }

    #[test]
    fn compatibility_rejects_two_tree_vars_in_one_monomial() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("2·m1·m3", &mut vars).expect("parse");
        let f = Forest::single(months_tree(&mut vars));
        let err = f.check_compatible(&polys).expect_err("m1·m3 shares a tree");
        assert!(matches!(err, TreeError::MonomialNotCompatible { .. }));
    }

    #[test]
    fn repeated_variable_with_exponent_is_compatible() {
        // m1² is a single tree node occurring twice — that is one node of
        // the tree, still |m ∩ T| ≤ 1 distinct nodes.
        let mut vars = VarTable::new();
        let polys = parse_polyset("2·m1^2 + 1·m3", &mut vars).expect("parse");
        let f = Forest::single(months_tree(&mut vars));
        f.check_compatible(&polys).expect("exponent is fine");
    }
}
