//! Generators for the abstraction trees used in the paper's evaluation.
//!
//! * [`plans_tree`] / [`months_tree`] — the running example's trees
//!   (Figures 2 and 3),
//! * [`shaped_tree`] — layered trees described by a fan-out vector, the
//!   shapes of Figure 4,
//! * [`tree_type_shapes`] — the seven tree-type families of Table 2
//!   (type 1: 2-level, types 2–4: 3-level, types 5–7: 4-level),
//! * [`binary_forest`] — the eight 3-level binary trees (16 leaves each)
//!   of the multiple-trees experiment (Figure 11),
//! * [`random_tree`] — seeded random trees for property tests.

use crate::builder::TreeBuilder;
use crate::error::TreeError;
use crate::forest::Forest;
use crate::tree::AbsTree;
use provabs_provenance::var::VarTable;

/// The plans abstraction tree of Figure 2.
pub fn plans_tree(vars: &mut VarTable) -> AbsTree {
    TreeBuilder::new("Plans")
        .child("Plans", "Standard")
        .child("Plans", "Special")
        .child("Plans", "Business")
        .leaves("Standard", ["p1", "p2"])
        .child("Special", "Y")
        .child("Special", "F")
        .child("Special", "v")
        .leaves("Y", ["y1", "y2", "y3"])
        .leaves("F", ["f1", "f2"])
        .child("Business", "SB")
        .child("Business", "e")
        .leaves("SB", ["b1", "b2"])
        .build(vars)
        .expect("figure 2 tree is well-formed")
}

/// The months/quarters abstraction tree of Figure 3:
/// `Year → q1..q4 → m1..m12`.
pub fn months_tree(vars: &mut VarTable) -> AbsTree {
    let mut b = TreeBuilder::new("Year");
    for q in 1..=4 {
        let qlabel = format!("q{q}");
        b = b.child("Year", qlabel.clone());
        for m in (3 * q - 2)..=(3 * q) {
            b = b.child(qlabel.clone(), format!("m{m}"));
        }
    }
    b.build(vars).expect("figure 3 tree is well-formed")
}

/// Generates `count` leaf names `prefix0..prefix{count-1}` (the paper's
/// `s0..s127` supplier and `p0..p127` part variables).
pub fn leaf_names(prefix: &str, count: usize) -> Vec<String> {
    (0..count).map(|i| format!("{prefix}{i}")).collect()
}

/// Builds a layered tree over `leaves`: `fanouts[l]` children at internal
/// level `l` (root is level 0), with the leaves distributed evenly below
/// the bottom internal level. `prefix` namespaces the internal labels so
/// several shaped trees can share a forest.
///
/// With `fanouts = [2]` and 128 leaves this is the 2-level tree of
/// Figure 4a; `[2, 4]` a 3-level tree (Figure 4b); `[2, 2, 2]` a 4-level
/// tree (Figure 4c).
pub fn shaped_tree(
    prefix: &str,
    leaves: &[String],
    fanouts: &[usize],
    vars: &mut VarTable,
) -> AbsTree {
    assert!(!leaves.is_empty(), "shaped tree needs leaves");
    let root = prefix.to_string();
    let mut b = TreeBuilder::new(root.clone());
    // Current frontier of internal labels, expanded level by level.
    let mut frontier = vec![root];
    for (level, &fanout) in fanouts.iter().enumerate() {
        assert!(fanout >= 1, "fan-out must be at least 1");
        let mut next = Vec::with_capacity(frontier.len() * fanout);
        for parent in &frontier {
            for i in 0..fanout {
                let label = format!("{parent}.L{level}n{i}");
                b = b.child(parent.clone(), label.clone());
                next.push(label);
            }
        }
        frontier = next;
    }
    // Distribute leaves over the bottom frontier as evenly as possible.
    let groups = frontier.len();
    let base = leaves.len() / groups;
    let extra = leaves.len() % groups;
    let mut it = leaves.iter();
    for (gi, parent) in frontier.iter().enumerate() {
        let take = base + usize::from(gi < extra);
        for leaf in it.by_ref().take(take) {
            b = b.child(parent.clone(), leaf.clone());
        }
    }
    b.build(vars).expect("shaped tree labels are unique")
}

/// The fan-out vectors of each tree-type family of Table 2, ordered by
/// growing number of valid variable sets.
///
/// * type 1: 2-level trees, root fan-out 2..64 (Figure 4a),
/// * types 2–4: 3-level trees with root fan-out 2, 4, 8 (Figure 4b),
/// * types 5–7: 4-level trees (Figure 4c).
pub fn tree_type_shapes(ty: u8) -> Result<Vec<Vec<usize>>, TreeError> {
    Ok(match ty {
        1 => vec![vec![2], vec![4], vec![8], vec![16], vec![32], vec![64]],
        2 => vec![vec![2, 2], vec![2, 4], vec![2, 8], vec![2, 16], vec![2, 32]],
        3 => vec![vec![4, 2], vec![4, 4], vec![4, 8], vec![4, 16]],
        4 => vec![vec![8, 2], vec![8, 4], vec![8, 8]],
        5 => vec![vec![2, 2, 2], vec![2, 2, 4], vec![2, 2, 8], vec![2, 2, 16]],
        6 => vec![vec![2, 4, 2], vec![2, 4, 4], vec![2, 4, 8]],
        7 => vec![vec![4, 2, 2], vec![4, 2, 4], vec![4, 2, 8]],
        _ => return Err(TreeError::UnknownTreeType { ty }),
    })
}

/// The fan-out vector of the `shape_idx`-th tree of type `ty`: a typed
/// error for an unknown type or a shape index past the family's last.
pub fn tree_shape(ty: u8, shape_idx: usize) -> Result<Vec<usize>, TreeError> {
    let shapes = tree_type_shapes(ty)?;
    let past_the_last = TreeError::UnknownTreeShape {
        ty,
        shape_idx,
        shapes: shapes.len(),
    };
    shapes.into_iter().nth(shape_idx).ok_or(past_the_last)
}

/// Builds the `shape_idx`-th tree of type `ty` over `leaves`.
pub fn paper_tree(
    ty: u8,
    shape_idx: usize,
    prefix: &str,
    leaves: &[String],
    vars: &mut VarTable,
) -> Result<AbsTree, TreeError> {
    Ok(shaped_tree(
        prefix,
        leaves,
        &tree_shape(ty, shape_idx)?,
        vars,
    ))
}

/// The forest of the multiple-trees experiment (Figure 11): `num_trees`
/// 3-level binary trees, each over 16 consecutive leaves of `leaves`.
pub fn binary_forest(num_trees: usize, leaves: &[String], vars: &mut VarTable) -> Forest {
    assert!(
        leaves.len() >= num_trees * 16,
        "need 16 leaves per tree ({} × 16 > {})",
        num_trees,
        leaves.len()
    );
    let trees = (0..num_trees)
        .map(|i| {
            shaped_tree(
                &format!("B{i}"),
                &leaves[i * 16..(i + 1) * 16],
                &[2, 2],
                vars,
            )
        })
        .collect();
    Forest::new(trees).expect("trees over distinct leaves are disjoint")
}

/// A seeded random tree over `leaves` for property tests: recursively
/// partitions the leaves into 2–4 groups until groups are small.
pub fn random_tree(prefix: &str, leaves: &[String], seed: u64, vars: &mut VarTable) -> AbsTree {
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            // xorshift64*; never yields 0 for a non-zero state.
            let mut x = self.0.max(1);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    let mut rng = XorShift(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut b = TreeBuilder::new(prefix.to_string());
    let mut counter = 0usize;
    // Work stack of (parent label, leaf slice bounds).
    let mut stack: Vec<(String, usize, usize)> = vec![(prefix.to_string(), 0, leaves.len())];
    while let Some((parent, lo, hi)) = stack.pop() {
        let n = hi - lo;
        if n <= 3 || rng.below(4) == 0 {
            for leaf in &leaves[lo..hi] {
                b = b.child(parent.clone(), leaf.clone());
            }
            continue;
        }
        let groups = 2 + rng.below(3.min(n as u64 - 1)) as usize;
        let mut bounds = vec![lo, hi];
        while bounds.len() < groups + 1 {
            let cut = lo + 1 + rng.below((n - 1) as u64) as usize;
            if !bounds.contains(&cut) {
                bounds.push(cut);
            }
        }
        bounds.sort_unstable();
        for w in bounds.windows(2) {
            let label = format!("{prefix}.i{counter}");
            counter += 1;
            b = b.child(parent.clone(), label.clone());
            stack.push((label, w[0], w[1]));
        }
    }
    b.build(vars).expect("random tree labels are unique")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_trees_have_paper_dimensions() {
        let mut vars = VarTable::new();
        let plans = plans_tree(&mut vars);
        assert_eq!(plans.num_leaves(), 11);
        assert_eq!(plans.height(), 3);
        let months = months_tree(&mut vars);
        assert_eq!(months.num_leaves(), 12);
        assert_eq!(months.num_nodes(), 17); // root + 4 quarters + 12 months
        assert_eq!(months.count_cuts(), 17); // 1 + 2^4
    }

    #[test]
    fn table_2_node_counts_and_cut_counts() {
        // Spot-check the rows of Table 2 over 128 leaves.
        let leaves = leaf_names("s", 128);
        let cases: &[(u8, usize, usize, u128)] = &[
            // (type, shape index, expected nodes, expected #VVS)
            (1, 0, 131, 5),      // root 2, 64 leaves each
            (1, 1, 133, 17),     // root 4 → 1 + 2^4
            (1, 2, 137, 257),    // root 8 → 1 + 2^8
            (1, 3, 145, 65537),  // root 16 → 1 + 2^16
            (2, 0, 135, 26),     // [2,2] → 1 + 5²
            (2, 2, 147, 66050),  // [2,8] → 1 + 257²
            (3, 0, 141, 626),    // [4,2] → 1 + 5⁴
            (4, 0, 153, 390626), // [8,2] → 1 + 5⁸
            (5, 0, 143, 677),    // [2,2,2] → 1 + 26²
            (6, 0, 155, 391877), // [2,4,2] → 1 + 626²
            (7, 0, 157, 456977), // [4,2,2] → 1 + 26⁴
        ];
        for &(ty, idx, nodes, cuts) in cases {
            let mut vars = VarTable::new();
            let t = paper_tree(ty, idx, "Supp", &leaves, &mut vars).expect("in-range type");
            assert_eq!(t.num_nodes(), nodes, "nodes of type {ty} shape {idx}");
            assert_eq!(t.count_cuts(), cuts, "cuts of type {ty} shape {idx}");
        }
    }

    #[test]
    fn type_1_largest_shape_saturates_beyond_u64() {
        let leaves = leaf_names("s", 128);
        let mut vars = VarTable::new();
        let t = paper_tree(1, 5, "Supp", &leaves, &mut vars).expect("in-range type");
        assert_eq!(t.num_nodes(), 193);
        assert_eq!(t.count_cuts(), (1u128 << 64) + 1); // 1.84e19, Table 2
    }

    /// Both sides of the tree-type boundary: every in-range family
    /// resolves to shapes, and both out-of-range neighbours surface the
    /// typed error instead of panicking.
    #[test]
    fn tree_type_boundaries_are_typed() {
        for ty in 1..=7u8 {
            assert!(
                !tree_type_shapes(ty).expect("in range").is_empty(),
                "type {ty}"
            );
        }
        for ty in [0u8, 8, 255] {
            assert_eq!(
                tree_type_shapes(ty).expect_err("out of range"),
                TreeError::UnknownTreeType { ty }
            );
        }
        let leaves = leaf_names("s", 16);
        let mut vars = VarTable::new();
        let err = paper_tree(0, 0, "Supp", &leaves, &mut vars).expect_err("type 0");
        assert_eq!(err, TreeError::UnknownTreeType { ty: 0 });
        assert!(format!("{err}").contains("1..=7"));
    }

    /// A shape index past a family's last shape is a typed error, not an
    /// out-of-bounds panic; the last in-range index still builds.
    #[test]
    fn shape_index_boundaries_are_typed() {
        let leaves = leaf_names("s", 64);
        let mut vars = VarTable::new();
        for ty in 1..=7u8 {
            let shapes = tree_type_shapes(ty).expect("in range").len();
            paper_tree(ty, shapes - 1, "Supp", &leaves, &mut vars).expect("last shape");
            for shape_idx in [shapes, usize::MAX] {
                assert_eq!(
                    paper_tree(ty, shape_idx, "Supp", &leaves, &mut vars)
                        .expect_err("past the last shape"),
                    TreeError::UnknownTreeShape {
                        ty,
                        shape_idx,
                        shapes
                    }
                );
            }
        }
    }

    #[test]
    fn shaped_tree_distributes_uneven_leaves() {
        let leaves = leaf_names("x", 7);
        let mut vars = VarTable::new();
        let t = shaped_tree("R", &leaves, &[2], &mut vars);
        assert_eq!(t.num_leaves(), 7);
        let sizes: Vec<_> = t
            .children(t.root())
            .iter()
            .map(|&c| t.num_descendant_leaves(c))
            .collect();
        assert_eq!(sizes, [4, 3]);
    }

    #[test]
    fn binary_forest_shape() {
        let leaves = leaf_names("s", 128);
        let mut vars = VarTable::new();
        let f = binary_forest(8, &leaves, &mut vars);
        assert_eq!(f.num_trees(), 8);
        for t in f.trees() {
            assert_eq!(t.num_leaves(), 16);
            assert_eq!(t.height(), 3);
            assert_eq!(t.count_cuts(), 26); // [2,2] over 16 leaves
        }
    }

    #[test]
    fn random_tree_is_valid_and_covers_all_leaves() {
        let leaves = leaf_names("v", 23);
        for seed in 0..10u64 {
            let mut vars = VarTable::new();
            let t = random_tree("R", &leaves, seed, &mut vars);
            assert_eq!(t.num_leaves(), 23, "seed {seed}");
            assert!(t.count_cuts() >= 1);
            // Every leaf label is one of the supplied names.
            for leaf in t.leaves() {
                assert!(leaves.iter().any(|l| l == t.label_of(leaf)));
            }
        }
    }

    #[test]
    fn random_trees_differ_across_seeds() {
        let leaves = leaf_names("v", 64);
        let mut vars1 = VarTable::new();
        let mut vars2 = VarTable::new();
        let a = random_tree("R", &leaves, 1, &mut vars1);
        let b = random_tree("R", &leaves, 2, &mut vars2);
        // Not a strict requirement, but with 64 leaves collisions would
        // indicate a broken RNG.
        assert!(a.num_nodes() != b.num_nodes() || a.count_cuts() != b.count_cuts());
    }
}
