//! Algorithm 1: optimal valid-variable selection for a single tree.
//!
//! For every node `v` and every monomial loss `i ∈ 0..k` (where
//! `k = |𝒫|_M − B`), the dynamic program records the minimal variable loss
//! of a VVS drawn from the subtree of `v` achieving monomial loss exactly
//! `i`; index `k` is the "≥ k" bucket. A node's array is either the
//! knapsack combination of its children's arrays (losses add, because
//! compatibility makes sibling subtrees compress disjoint monomial
//! groups — the paper's key insight) or the singleton choice `S = {v}`.
//! The answer is the VVS encoded at the root's `k` entry, reconstructed by
//! walking the recorded choices (Prop. 12/14: PTIME, `O(n·w·k²·|𝒫|_M)`).
//!
//! [`optimal_vvs`] is the sparse variant of §4.1: arrays are hash maps
//! holding only non-⊥ entries, with the height-1 shortcut. The per-node
//! loss index is built from the working set's remainder classes
//! ([`TreeLoss::build`]) and the chosen VVS is applied in id space. The
//! dense transcription of the pseudo-code is the oracle
//! [`crate::reference::optimal_vvs_dense`].

use crate::loss::TreeLoss;
use crate::problem::{evaluate_vvs, prepare, InternedAbstraction};
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::fxhash::FxHashMap;
use provabs_provenance::guard::{Completion, Guard, Interrupt};
use provabs_provenance::working::WorkingSet;
use provabs_trees::cut::Vvs;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use provabs_trees::tree::{AbsTree, NodeId};

/// How a DP entry was obtained, for reconstruction.
#[derive(Clone, Debug)]
pub(crate) enum Choice {
    /// `S = {v}`: the node itself is chosen, abstracting its whole
    /// subtree.
    Take,
    /// Union of children VVSs; `alloc[i]` is the loss allocated to the
    /// `i`-th child.
    Split(Vec<usize>),
}

/// A DP cell: minimal variable loss and the choice realising it.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub(crate) vl: u64,
    pub(crate) choice: Choice,
}

/// Sparse per-node array: monomial loss → entry (only non-⊥ kept).
type SparseArray = FxHashMap<usize, Entry>;

pub(crate) fn better(slot: &mut Option<Entry>, vl: u64, choice: impl FnOnce() -> Choice) {
    if slot.as_ref().is_none_or(|e| vl < e.vl) {
        *slot = Some(Entry {
            vl,
            choice: choice(),
        });
    }
}

/// Runs the sparse DP over one (cleaned) tree; returns per-node arrays.
///
/// The guard is checked once per postorder node and once per child
/// folded into a knapsack. Unlike the greedy engines the DP has no
/// usable intermediate state, so a trip aborts the solve: the caller
/// falls back to the identity abstraction (always sound) tagged
/// [`Completion::Interrupted`], with `steps` = checks passed.
fn solve_sparse(
    tree: &AbsTree,
    loss: &TreeLoss,
    k: usize,
    guard: &Guard,
) -> Result<Vec<SparseArray>, (Interrupt, usize)> {
    let mut checkpoint = guard.checkpoint();
    let tick = |cp: &mut provabs_provenance::guard::Checkpoint<'_>| match cp.tick() {
        Ok(()) => Ok(()),
        Err(reason) => Err((reason, cp.ticks() as usize)),
    };
    let mut arrays: Vec<SparseArray> = vec![SparseArray::default(); tree.num_nodes()];
    for v in tree.postorder() {
        tick(&mut checkpoint)?;
        let mut arr = SparseArray::default();
        if tree.is_leaf(v) {
            arr.insert(
                0,
                Entry {
                    vl: 0,
                    choice: Choice::Take,
                },
            );
        } else {
            let children = tree.children(v);
            let height_one = children.iter().all(|&c| tree.is_leaf(c));
            if height_one {
                // §4.1 shortcut: all-leaf children contribute only the
                // zero-loss entry, so skip computeArray entirely.
                arr.insert(
                    0,
                    Entry {
                        vl: 0,
                        choice: Choice::Split(vec![0; children.len()]),
                    },
                );
            } else {
                // computeArray: fold children with a sparse knapsack.
                let mut cur: FxHashMap<usize, (u64, Vec<usize>)> = FxHashMap::default();
                for (s, e) in &arrays[children[0].index()] {
                    cur.insert(*s, (e.vl, vec![*s]));
                }
                for &c in &children[1..] {
                    tick(&mut checkpoint)?;
                    let carr = &arrays[c.index()];
                    let mut next: FxHashMap<usize, (u64, Vec<usize>)> = FxHashMap::default();
                    for (s, (vs, alloc)) in &cur {
                        for (t, et) in carr {
                            let j = (s + t).min(k);
                            let cand = vs + et.vl;
                            let slot = next.entry(j);
                            use std::collections::hash_map::Entry as E;
                            match slot {
                                E::Occupied(mut o) => {
                                    if cand < o.get().0 {
                                        let mut a = alloc.clone();
                                        a.push(*t);
                                        o.insert((cand, a));
                                    }
                                }
                                E::Vacant(vac) => {
                                    let mut a = alloc.clone();
                                    a.push(*t);
                                    vac.insert((cand, a));
                                }
                            }
                        }
                    }
                    cur = next;
                }
                for (j, (vl, alloc)) in cur {
                    arr.insert(
                        j,
                        Entry {
                            vl,
                            choice: Choice::Split(alloc),
                        },
                    );
                }
            }
            // The S = {v} option (lines 8–11 of Algorithm 1).
            let j = loss.ml_of(v).min(k);
            let vl_v = loss.vl_of(v) as u64;
            let mut slot = arr.remove(&j);
            better(&mut slot, vl_v, || Choice::Take);
            arr.insert(j, slot.expect("just set"));
        }
        arrays[v.index()] = arr;
    }
    Ok(arrays)
}

/// Walks the recorded choices, collecting the chosen nodes.
fn reconstruct(tree: &AbsTree, arrays: &[SparseArray], v: NodeId, j: usize, out: &mut Vec<NodeId>) {
    let entry = arrays[v.index()]
        .get(&j)
        .expect("reconstruction follows recorded entries");
    match &entry.choice {
        Choice::Take => out.push(v),
        Choice::Split(alloc) => {
            for (&c, &jc) in tree.children(v).iter().zip(alloc) {
                reconstruct(tree, arrays, c, jc, out);
            }
        }
    }
}

/// Algorithm 1 with the sparse arrays of §4.1, under an execution
/// [`Guard`].
///
/// Returns the optimal abstraction for `bound` — adequate
/// (`|𝒫↓S|_M ≤ bound`) with minimal variable loss — together with the
/// rewritten `𝒫↓S`, ready to freeze; or [`TreeError::BoundUnattainable`]
/// when no VVS reaches the bound (Example 8), or
/// [`TreeError::ExpectedSingleTree`] for multi-tree forests (use
/// [`crate::greedy::greedy_vvs`] there).
///
/// The DP, unlike the greedy engine, has no usable partial state: a
/// guard trip mid-solve falls back to the *identity abstraction* (the
/// only abstraction that is sound without finishing the search), tagged
/// [`Completion::Interrupted`] with `size_reached = |𝒫|_M`. The
/// bound-adequacy error only applies to complete runs.
///
/// ```
/// use provabs_provenance::{guard::Guard, parse::parse_polyset, VarTable};
/// use provabs_provenance::working::WorkingSet;
/// use provabs_trees::{builder::TreeBuilder, forest::Forest};
/// use provabs_core::optimal::optimal_vvs;
///
/// let mut vars = VarTable::new();
/// // Example 2's quarterly grouping: m1, m3 merge into q1.
/// let polys = parse_polyset("220.8·p1·m1 + 240·p1·m3", &mut vars).unwrap();
/// let tree = TreeBuilder::new("q1").leaves("q1", ["m1", "m3"]).build(&mut vars).unwrap();
/// let source = WorkingSet::from_polyset(&polys);
/// let (abs, _) = optimal_vvs(&source, &Forest::single(tree), 1, &Guard::unlimited()).unwrap();
/// assert_eq!(abs.result.compressed_size_m, 1); // 460.8·p1·q1
/// assert_eq!(abs.result.vl(), 1);
/// ```
pub fn optimal_vvs<C: Coefficient>(
    source: &WorkingSet<C>,
    forest: &Forest,
    bound: usize,
    guard: &Guard,
) -> Result<(InternedAbstraction<C>, Completion), TreeError> {
    let (cleaned, live) = prepare(source, forest)?;
    let total_m = source.size_m();
    if bound >= total_m {
        let vvs = Vvs::identity(&cleaned);
        return Ok((
            evaluate_vvs(source.clone(), &cleaned, vvs, live.len()),
            Completion::Complete,
        ));
    }
    if cleaned.num_trees() == 0 {
        return Err(TreeError::BoundUnattainable {
            bound,
            best_possible: total_m,
        });
    }
    if cleaned.num_trees() != 1 {
        return Err(TreeError::ExpectedSingleTree(cleaned.num_trees()));
    }
    let k = total_m - bound;
    let tree = cleaned.tree(0);
    let loss = TreeLoss::build(source, tree);
    let arrays = match solve_sparse(tree, &loss, k, guard) {
        Ok(arrays) => arrays,
        Err((reason, steps)) => {
            let vvs = Vvs::identity(&cleaned);
            let abs = evaluate_vvs(source.clone(), &cleaned, vvs, live.len());
            let completion = Completion::Interrupted {
                reason,
                steps,
                size_reached: abs.result.compressed_size_m,
            };
            return Ok((abs, completion));
        }
    };
    let root = tree.root();
    if !arrays[root.index()].contains_key(&k) {
        let best_ml = arrays[root.index()].keys().copied().max().unwrap_or(0);
        return Err(TreeError::BoundUnattainable {
            bound,
            best_possible: total_m - best_ml,
        });
    }
    let mut chosen = Vec::new();
    reconstruct(tree, &arrays, root, k, &mut chosen);
    let vvs = Vvs::from_per_tree(vec![chosen]);
    debug_assert!(vvs.validate(&cleaned).is_ok());
    Ok((
        evaluate_vvs(source.clone(), &cleaned, vvs, live.len()),
        Completion::Complete,
    ))
}

/// The full size/granularity trade-off frontier of a single tree: for
/// every attainable compressed size, the maximal attainable granularity.
///
/// One DP run (with `k` set to the maximal attainable loss) answers every
/// bound at once — handy for bound sweeps (Figures 9/10) and an extension
/// beyond the paper's single-bound API.
///
/// Returns `(compressed_size_m, compressed_size_v)` pairs sorted by
/// decreasing size, already filtered to the Pareto frontier. A tripped
/// guard leaves only the identity point, tagged
/// [`Completion::Interrupted`] — the same fallback as [`optimal_vvs`].
#[allow(clippy::type_complexity)]
pub fn optimal_frontier<C: Coefficient>(
    source: &WorkingSet<C>,
    forest: &Forest,
    guard: &Guard,
) -> Result<(Vec<(usize, usize)>, Completion), TreeError> {
    let (cleaned, live) = prepare(source, forest)?;
    let (total_m, total_v) = (source.size_m(), live.len());
    if cleaned.num_trees() == 0 {
        return Ok((vec![(total_m, total_v)], Completion::Complete));
    }
    if cleaned.num_trees() != 1 {
        return Err(TreeError::ExpectedSingleTree(cleaned.num_trees()));
    }
    let tree = cleaned.tree(0);
    let loss = TreeLoss::build(source, tree);
    let k_max = loss.ml_of(tree.root()); // coarsening is monotone in ML

    let arrays = match solve_sparse(tree, &loss, k_max, guard) {
        Ok(arrays) => arrays,
        Err((reason, steps)) => {
            let completion = Completion::Interrupted {
                reason,
                steps,
                size_reached: total_m,
            };
            return Ok((vec![(total_m, total_v)], completion));
        }
    };
    let mut points: Vec<(usize, u64)> = arrays[tree.root().index()]
        .iter()
        .map(|(&j, e)| (j, e.vl))
        .collect();
    points.sort_unstable();
    // Suffix-min of VL over ML ≥ j, then convert to sizes.
    let mut out = Vec::with_capacity(points.len() + 1);
    out.push((total_m, total_v)); // identity point (ML = 0 always present)
    let mut best_vl = u64::MAX;
    let mut frontier: Vec<(usize, usize)> = Vec::with_capacity(points.len());
    for &(j, vl) in points.iter().rev() {
        if vl < best_vl {
            best_vl = vl;
            frontier.push((total_m - j, total_v - best_vl as usize));
        }
    }
    frontier.reverse();
    for p in frontier {
        if p.0 < total_m {
            out.push(p);
        }
    }
    Ok((out, Completion::Complete))
}

// The name `benchmark/` imports, until a `benchmark`-only change renames it.
#[doc(hidden)]
pub use optimal_vvs as optimal_vvs_interned_guarded;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::AbstractionResult;
    use crate::reference::optimal_vvs_dense;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::polyset::PolySet;
    use provabs_provenance::var::VarTable;
    use provabs_trees::builder::TreeBuilder;
    use provabs_trees::generate::{months_tree, plans_tree};

    /// P1, P2 of Example 13 plus the Figure 2 plans tree (raw; algorithms
    /// clean it internally).
    fn example_13() -> (PolySet<f64>, Forest, VarTable) {
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3\n\
             77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 \
             + 69.7·b2·m1 + 100.65·b2·m3",
            &mut vars,
        )
        .expect("parse");
        let forest = Forest::single(plans_tree(&mut vars));
        (polys, forest, vars)
    }

    /// Algorithm 1 on a poly-set under no limits — the one call shape
    /// these tests make.
    fn opt(
        polys: &PolySet<f64>,
        forest: &Forest,
        bound: usize,
    ) -> Result<AbstractionResult, TreeError> {
        optimal_vvs(
            &WorkingSet::from_polyset(polys),
            forest,
            bound,
            &Guard::unlimited(),
        )
        .map(|(abs, _)| abs.result)
    }

    #[test]
    fn example_13_optimal_selection() {
        // B = 9, k = 5: the optimal VVS is {SB, Special, e, p1} with
        // ML = 6 and VL = 3 (the paper's Sp is shorthand for Special).
        let (polys, forest, vars) = example_13();
        let source = WorkingSet::from_polyset(&polys);
        let (abs, completion) =
            optimal_vvs(&source, &forest, 9, &Guard::unlimited()).expect("solvable");
        assert!(completion.is_complete());
        // The returned working set is the abstracted set.
        assert_eq!(abs.working.size_m(), abs.result.compressed_size_m);
        assert_eq!(abs.working.size_v(), abs.result.compressed_size_v);
        let r = abs.result;
        assert!(r.is_adequate_for(9));
        assert_eq!(r.vl(), 3);
        assert_eq!(r.ml(), 6);
        assert_eq!(r.compressed_size_m, 8);
        assert_eq!(
            r.vvs.labels(&r.forest),
            vec!["SB", "Special", "e", "p1"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
        let _ = vars;
    }

    #[test]
    fn dense_and_sparse_agree_on_example_13() {
        let (polys, forest, _) = example_13();
        for bound in 4..=14 {
            let sparse = opt(&polys, &forest, bound);
            let dense = optimal_vvs_dense(&polys, &forest, bound);
            match (sparse, dense) {
                (Ok(s), Ok(d)) => {
                    assert_eq!(s.vl(), d.vl(), "bound {bound}");
                    assert!(s.is_adequate_for(bound));
                    assert!(d.is_adequate_for(bound));
                }
                (Err(es), Err(ed)) => assert_eq!(es, ed, "bound {bound}"),
                (s, d) => panic!("disagreement at bound {bound}: {s:?} vs {d:?}"),
            }
        }
    }

    #[test]
    fn example_8_bound_unattainable() {
        // P of Example 2 with the months tree: maximal compression is
        // size 4, so B = 3 has no adequate VVS.
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3",
            &mut vars,
        )
        .expect("parse");
        let forest = Forest::single(months_tree(&mut vars));
        let err = opt(&polys, &forest, 3).expect_err("unattainable");
        assert_eq!(
            err,
            TreeError::BoundUnattainable {
                bound: 3,
                best_possible: 4
            }
        );
        // B = 4 is attainable: group m1, m3 under q1.
        let r = opt(&polys, &forest, 4).expect("attainable");
        assert_eq!(r.compressed_size_m, 4);
        assert_eq!(r.vl(), 1);
    }

    #[test]
    fn loose_bound_returns_identity() {
        let (polys, forest, _) = example_13();
        let r = opt(&polys, &forest, polys.size_m()).expect("identity");
        assert_eq!(r.vl(), 0);
        assert_eq!(r.ml(), 0);
        assert_eq!(r.compressed_size_m, polys.size_m());
    }

    #[test]
    fn tightest_bound_takes_the_root() {
        let (polys, forest, _) = example_13();
        // Maximal compression: both polynomials collapse to 2 monomials
        // each (one per month) → size 4, via S = {Plans}.
        let r = opt(&polys, &forest, 4).expect("solvable");
        assert_eq!(r.compressed_size_m, 4);
        assert_eq!(r.vvs.labels(&r.forest), vec!["Plans".to_string()]);
        let err = opt(&polys, &forest, 3).expect_err("below maximal compression");
        assert!(matches!(err, TreeError::BoundUnattainable { .. }));
    }

    #[test]
    fn multi_tree_forest_is_rejected() {
        let (polys, _, mut vars) = example_13();
        let f2 = Forest::new(vec![plans_tree_clone(&mut vars), months_tree(&mut vars)])
            .expect("disjoint");
        let err = opt(&polys, &f2, 9).expect_err("two trees");
        assert_eq!(err, TreeError::ExpectedSingleTree(2));
    }

    /// Rebuild the plans tree under fresh labels is impossible (labels are
    /// global), so reuse the generator — the vars are already interned.
    fn plans_tree_clone(vars: &mut VarTable) -> provabs_trees::tree::AbsTree {
        plans_tree(vars)
    }

    #[test]
    fn frontier_covers_all_bounds() {
        let (polys, forest, _) = example_13();
        let (frontier, completion) = optimal_frontier(
            &WorkingSet::from_polyset(&polys),
            &forest,
            &Guard::unlimited(),
        )
        .expect("frontier");
        assert!(completion.is_complete());
        // Identity point plus strictly improving compressed sizes.
        assert_eq!(frontier[0], (14, 9));
        assert!(frontier.windows(2).all(|w| w[1].0 < w[0].0));
        // The frontier agrees with per-bound optimal runs.
        for &(size, granularity) in &frontier {
            let r = opt(&polys, &forest, size).expect("attainable");
            assert_eq!(r.compressed_size_v, granularity, "size {size}");
        }
        // Best possible size is 4 (Example 13's tree merges plans only).
        assert_eq!(frontier.last().expect("non-empty").0, 4);
    }

    #[test]
    fn single_leaf_monomials_merge_into_constants() {
        // Abstracting x,y in "2·x + 3·y" gives 5·g — a single monomial.
        let mut vars = VarTable::new();
        let polys = parse_polyset("2·x + 3·y", &mut vars).expect("parse");
        let tree = TreeBuilder::new("g")
            .leaves("g", ["x", "y"])
            .build(&mut vars)
            .expect("tree");
        let forest = Forest::single(tree);
        let r = opt(&polys, &forest, 1).expect("solvable");
        assert_eq!(r.compressed_size_m, 1);
        assert_eq!(r.compressed_size_v, 1);
        let down = r.apply(&polys);
        let g = vars.lookup("g").expect("interned");
        assert_eq!(
            down.iter()
                .next()
                .expect("one poly")
                .coefficient(&provabs_provenance::monomial::Monomial::var(g)),
            5.0
        );
    }
}
