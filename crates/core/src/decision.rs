//! The decision problem (Def. 10): existence of a *precise* abstraction.
//!
//! Given `𝒫`, a compatible forest `𝒯`, a size `B` and a granularity `K`,
//! decide whether some VVS `S` satisfies `|𝒫↓S|_M = B` **and**
//! `|𝒫↓S|_V = K`. The problem is NP-hard in general (Prop. 11, proved in
//! [`crate::hardness`]); the solver here is the straightforward
//! exponential enumeration, usable on small instances and as the test
//! oracle for the reduction.

use crate::loss::TreeLoss;
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::fxhash::FxHashSet;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::working::WorkingSet;
use provabs_trees::cut::enumerate_forest_cuts;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;

/// Decides Def. 10 by exhaustive enumeration (exponential; refuses forests
/// with more than `cut_limit` cuts).
///
/// Unlike the optimization entry points this does **not** clean the
/// forest: the decision problem is stated for a compatible forest, and
/// cleaning would change `VL` accounting. Incompatible inputs error.
pub fn decide_precise<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
    size_b: usize,
    granularity_k: usize,
    cut_limit: u128,
) -> Result<bool, TreeError> {
    forest.check_compatible(polys)?;
    let cuts = forest.count_cuts();
    if cuts > cut_limit {
        return Err(TreeError::SearchSpaceTooLarge {
            cuts,
            limit: cut_limit,
        });
    }
    let all = enumerate_forest_cuts(forest, cut_limit as usize, cut_limit)
        .expect("count checked against limit");
    for vvs in all {
        let down = vvs.apply(polys, forest);
        if down.size_m() == size_b && down.size_v() == granularity_k {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Decides Def. 10 for a *single-tree* forest in polynomial time.
///
/// The NP-hardness of Prop. 11 needs multiple trees; with one tree the
/// loss pairs are additive over disjoint subtrees, so a bottom-up DP over
/// the *set of achievable `(ML, VL)` pairs* decides precision exactly:
/// `pairs(leaf) = {(0, 0)}`, `pairs(v) = (⊕ over children) ∪
/// {(ML({v}), VL({v}))}` where `⊕` is the pairwise sumset. Each set holds
/// at most `(|𝒫|_M + 1)·(|𝒫|_V + 1)` pairs, so the procedure is PTIME —
/// the single-tree counterpart of Prop. 12 on the decision side.
pub fn decide_precise_single_tree<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
    size_b: usize,
    granularity_k: usize,
) -> Result<bool, TreeError> {
    forest.check_compatible(polys)?;
    if forest.num_trees() != 1 {
        return Err(TreeError::ExpectedSingleTree(forest.num_trees()));
    }
    let total_m = polys.size_m();
    let total_v = polys.size_v();
    if size_b > total_m || granularity_k > total_v {
        return Ok(false);
    }
    let (target_ml, target_vl) = (total_m - size_b, total_v - granularity_k);

    let tree = forest.tree(0);
    let loss = TreeLoss::build(&WorkingSet::from_polyset(polys), tree);
    let mut pair_sets: Vec<FxHashSet<(usize, usize)>> =
        vec![FxHashSet::default(); tree.num_nodes()];
    for v in tree.postorder() {
        let mut set = FxHashSet::default();
        if tree.is_leaf(v) {
            set.insert((0, 0));
        } else {
            // Sumset over the children, pruned to the target box.
            let mut acc: FxHashSet<(usize, usize)> = FxHashSet::default();
            acc.insert((0, 0));
            for &c in tree.children(v) {
                let child = &pair_sets[c.index()];
                let mut next = FxHashSet::default();
                for &(am, av) in &acc {
                    for &(bm, bv) in child {
                        let p = (am + bm, av + bv);
                        if p.0 <= target_ml && p.1 <= target_vl {
                            next.insert(p);
                        }
                    }
                }
                acc = next;
            }
            set = acc;
            let own = (loss.ml_of(v), loss.vl_of(v));
            if own.0 <= target_ml && own.1 <= target_vl {
                set.insert(own);
            }
        }
        pair_sets[v.index()] = set;
    }
    Ok(pair_sets[tree.root().index()].contains(&(target_ml, target_vl)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::var::VarTable;
    use provabs_trees::builder::TreeBuilder;

    fn instance() -> (PolySet<f64>, Forest) {
        let mut vars = VarTable::new();
        // 2·a·x + 3·b·x + 4·c·y: grouping {a,b} merges the first two.
        let polys = parse_polyset("2·a·x + 3·b·x + 4·c·y", &mut vars).expect("parse");
        let tree = TreeBuilder::new("R")
            .child("R", "g")
            .leaves("g", ["a", "b"])
            .child("R", "c")
            .build(&mut vars)
            .expect("tree");
        (polys, Forest::single(tree))
    }

    #[test]
    fn finds_precise_abstractions() {
        let (polys, forest) = instance();
        // Identity: size 3, granularity 5.
        assert!(decide_precise(&polys, &forest, 3, 5, 1000).expect("small"));
        // {g, c}: size 2, granularity 4 (g, c, x, y).
        assert!(decide_precise(&polys, &forest, 2, 4, 1000).expect("small"));
        // {R}: a,b,c all merge → 2·R·x + 3·R·x + 4·R·y = 5·R·x + 4·R·y:
        // size 2, granularity 3.
        assert!(decide_precise(&polys, &forest, 2, 3, 1000).expect("small"));
    }

    #[test]
    fn rejects_imprecise_combinations() {
        let (polys, forest) = instance();
        assert!(!decide_precise(&polys, &forest, 1, 3, 1000).expect("small"));
        assert!(!decide_precise(&polys, &forest, 3, 4, 1000).expect("small"));
        assert!(!decide_precise(&polys, &forest, 2, 5, 1000).expect("small"));
    }

    #[test]
    fn incompatible_forest_errors() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("1·a", &mut vars).expect("parse");
        let tree = TreeBuilder::new("R")
            .leaves("R", ["a", "zz"])
            .build(&mut vars)
            .expect("tree");
        let forest = Forest::single(tree);
        assert!(decide_precise(&polys, &forest, 1, 1, 100).is_err());
    }

    #[test]
    fn cut_limit_is_respected() {
        let (polys, forest) = instance();
        let err = decide_precise(&polys, &forest, 2, 4, 1).expect_err("limit 1");
        assert!(matches!(err, TreeError::SearchSpaceTooLarge { .. }));
    }

    #[test]
    fn ptime_decision_matches_exhaustive_on_the_instance() {
        let (polys, forest) = instance();
        for b in 0..=polys.size_m() + 1 {
            for k in 0..=polys.size_v() + 1 {
                let slow = if b >= 1 && b <= polys.size_m() && k >= 1 && k <= polys.size_v() {
                    decide_precise(&polys, &forest, b, k, 1000).expect("small")
                } else {
                    false
                };
                let fast = decide_precise_single_tree(&polys, &forest, b, k).expect("one tree");
                assert_eq!(fast, slow, "B={b} K={k}");
            }
        }
    }

    #[test]
    fn ptime_decision_on_paper_example_13() {
        // The DP of Example 13 reaches ML 6 / VL 3 with {SB, Sp, e, p1}:
        // precise for B = 8, K = 6 (sizes 14−6 and 9−3).
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3\n\
             77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 \
             + 69.7·b2·m1 + 100.65·b2·m3",
            &mut vars,
        )
        .expect("parse");
        // Use the cleaned tree directly (compatibility required here).
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
        let forest = Forest::single(tree);
        assert!(decide_precise_single_tree(&polys, &forest, 8, 6).expect("one tree"));
        // No VVS loses 6 monomials while keeping 8 variables.
        assert!(!decide_precise_single_tree(&polys, &forest, 8, 8).expect("one tree"));
        // Out-of-range targets are simply false.
        assert!(!decide_precise_single_tree(&polys, &forest, 100, 1).expect("one tree"));
    }

    #[test]
    fn ptime_decision_rejects_forests() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("1·a + 1·b", &mut vars).expect("parse");
        let t1 = TreeBuilder::new("A")
            .leaves("A", ["a"])
            .build(&mut vars)
            .expect("t");
        let t2 = TreeBuilder::new("B")
            .leaves("B", ["b"])
            .build(&mut vars)
            .expect("t");
        let forest = Forest::new(vec![t1, t2]).expect("disjoint");
        assert!(matches!(
            decide_precise_single_tree(&polys, &forest, 2, 2),
            Err(TreeError::ExpectedSingleTree(2))
        ));
    }
}
