//! Competitor baseline: oracle-guided pairwise summarization.
//!
//! The paper compares against the approximated provenance summarization of
//! Ainy, Bourhis, Davidson, Deutch and Milo (CIKM 2015) — its `[3]` —
//! which "iteratively examines, using the oracle, the grouping of all
//! possible monomial pairs in the provenance polynomials in order to
//! reduce its size with minimal loss" (§4.3). As in the paper's own
//! comparison, the abstraction trees play the role of the black-box
//! oracle: they decide which variable pairs may be grouped (those sharing
//! a tree), provide the grouping target (their lowest common ancestor),
//! and score a candidate merge by its variable loss.
//!
//! Faithfulness notes (documented in DESIGN.md): the original algorithm
//! merges monomials; to make its output directly comparable to a VVS we
//! maintain the grouping *globally consistent* — each accepted pair merge
//! lifts the current per-tree antichain to the pair's LCAs. The defining
//! performance characteristic — a full quadratic pair scan per iteration,
//! so runtime grows as the bound shrinks — is preserved, which is exactly
//! the behaviour Figure 12 plots (and why the competitor never finished
//! on the large workloads within 24 hours).

use crate::greedy::{leaf_membership, vvs_from_membership};
use crate::problem::{prepare, AbstractionResult, InternedAbstraction};
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::guard::{Completion, Guard};
use provabs_provenance::monomial::MonoRef;
use provabs_provenance::var::VarId;
use provabs_provenance::working::WorkingSet;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use provabs_trees::tree::{AbsTree, NodeId};

/// Number of oracle interactions performed by [`pairwise_summarize`],
/// reported for instrumentation (Fig. 12's narrative is about oracle-call
/// growth).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Pairs examined (oracle calls).
    pub pairs_examined: u64,
    /// Merges applied.
    pub merges_applied: u64,
}

/// Lowest common ancestor of two nodes of one tree.
fn lca(tree: &AbsTree, a: NodeId, b: NodeId) -> NodeId {
    let mut seen = vec![false; tree.num_nodes()];
    let mut cur = Some(a);
    while let Some(n) = cur {
        seen[n.index()] = true;
        cur = tree.parent(n);
    }
    let mut cur = Some(b);
    while let Some(n) = cur {
        if seen[n.index()] {
            return n;
        }
        cur = tree.parent(n);
    }
    unreachable!("nodes of one tree always share the root")
}

/// A candidate lift produced by the oracle for one monomial pair.
struct Lift {
    /// `(tree, lca)` pairs to raise the antichain to.
    raises: Vec<(usize, NodeId)>,
    /// Variable-loss cost of applying the lift to the current antichain.
    cost: usize,
}

/// Asks the oracle whether two (already partially abstracted) monomials
/// may merge, and at what cost. `antichain[t]` is the current chosen-node
/// set of tree `t` as a membership bitmap.
fn oracle_merge(
    forest: &Forest,
    antichain: &[Vec<bool>],
    m1: MonoRef<'_>,
    m2: MonoRef<'_>,
) -> Option<Lift> {
    if m1 == m2 {
        return None;
    }
    // Variables outside the forest must agree exactly; per tree, collect
    // the (at most one, by compatibility) node of each monomial.
    type TreeSlot = (Option<(NodeId, u32)>, Option<(NodeId, u32)>);
    let mut per_tree: Vec<TreeSlot> = vec![(None, None); forest.num_trees()];
    for (side, m) in [(0, m1), (1, m2)] {
        for (v, e) in m.factors() {
            match forest.locate(v) {
                Some((ti, node)) => {
                    let slot = &mut per_tree[ti];
                    if side == 0 {
                        slot.0 = Some((node, e));
                    } else {
                        slot.1 = Some((node, e));
                    }
                }
                None => {
                    // Must occur with the same exponent on the other side.
                    let other = if side == 0 { m2 } else { m1 };
                    if other.exponent_of(v) != e {
                        return None;
                    }
                }
            }
        }
    }
    let mut raises = Vec::new();
    let mut cost = 0usize;
    for (ti, slots) in per_tree.iter().enumerate() {
        match slots {
            (None, None) => {}
            (Some((a, ea)), Some((b, eb))) => {
                if ea != eb {
                    return None;
                }
                if a != b {
                    let tree = forest.tree(ti);
                    let target = lca(tree, *a, *b);
                    // Cost: chosen antichain nodes strictly below target
                    // collapse into one.
                    let mut below = 0usize;
                    let mut stack = vec![target];
                    while let Some(n) = stack.pop() {
                        if antichain[ti][n.index()] {
                            below += 1;
                        } else {
                            stack.extend_from_slice(tree.children(n));
                        }
                    }
                    debug_assert!(below >= 2);
                    cost += below - 1;
                    raises.push((ti, target));
                }
            }
            // One side has a tree variable the other lacks: lifting can
            // never reconcile presence with absence.
            _ => return None,
        }
    }
    if raises.is_empty() {
        return None; // identical up to non-liftable parts — nothing to do
    }
    Some(Lift { raises, cost })
}

/// Runs the pairwise summarization until `|𝒫↓S|_M ≤ bound` or no pair can
/// merge, under an execution [`Guard`]. Returns the resulting abstraction
/// (with the rewritten `𝒫↓S`), oracle statistics and how the run ended.
///
/// The quadratic pair scans and the incremental merges run on a clone of
/// `source`, whose final state *is* `𝒫↓S`: each accepted merge
/// substitutes the antichain nodes below the lift target incrementally
/// (id remapping on the affected monomials) instead of re-applying the
/// whole substitution. The defining quadratic pair scan per iteration is
/// untouched — that *is* the baseline being measured.
///
/// The guard is checked once per pair-scan iteration. A trip returns the
/// summarization reached so far — every prefix of accepted merges is a
/// sound abstraction, just a larger one — tagged
/// [`Completion::Interrupted`]; the bound-adequacy check is skipped for
/// interrupted runs.
///
/// The baseline breaks cost ties by scan order, which follows the
/// arena's id order: the same provenance interned in a different order
/// (e.g. engine emission vs [`WorkingSet::from_polyset`]) can resolve
/// equal-cost merges differently, to a different — equally scored —
/// summarization.
pub fn pairwise_summarize<C: Coefficient>(
    source: &WorkingSet<C>,
    forest: &Forest,
    bound: usize,
    guard: &Guard,
) -> Result<(InternedAbstraction<C>, OracleStats, Completion), TreeError> {
    let (cleaned, live) = prepare(source, forest)?;
    let original_size_m = source.size_m();
    let mut ws = source.clone();
    let mut stats = OracleStats::default();
    let (antichain, completion) = summarize_core(&mut ws, &cleaned, bound, &mut stats, guard);
    let vvs = vvs_from_membership(&antichain);
    debug_assert!(vvs.validate(&cleaned).is_ok());
    let live_vars = ws.live_vars();
    let result = AbstractionResult {
        forest: cleaned,
        vvs,
        original_size_m,
        original_size_v: live.len(),
        compressed_size_m: ws.size_m(),
        compressed_size_v: live_vars.len(),
    };
    if completion.is_complete() && !result.is_adequate_for(bound) {
        return Err(TreeError::BoundUnattainable {
            bound,
            best_possible: result.compressed_size_m,
        });
    }
    Ok((
        InternedAbstraction {
            result,
            working: ws,
            live_vars,
        },
        stats,
        completion,
    ))
}

/// The main loop: pair scans, oracle calls and incremental lifts over an
/// in-flight working set. Returns the final antichain bitmaps;
/// the working set ends as `𝒫↓S` of the returned antichain.
fn summarize_core<C: Coefficient>(
    ws: &mut WorkingSet<C>,
    cleaned: &Forest,
    bound: usize,
    stats: &mut OracleStats,
    guard: &Guard,
) -> (Vec<Vec<bool>>, Completion) {
    let mut checkpoint = guard.checkpoint();
    let mut completion = Completion::Complete;
    let mut antichain = leaf_membership(cleaned);
    let all_polys: Vec<usize> = (0..ws.num_polys()).collect();

    while ws.size_m() > bound {
        if let Err(reason) = checkpoint.tick() {
            completion = Completion::Interrupted {
                reason,
                steps: stats.merges_applied as usize,
                size_reached: ws.size_m(),
            };
            break;
        }
        // Full pair scan (this is the point of the baseline).
        let mut best: Option<Lift> = None;
        for pi in 0..ws.num_polys() {
            let ids = ws.poly_mono_ids(pi).iter();
            let monos: Vec<MonoRef<'_>> = ids.map(|&id| ws.mono(id)).collect();
            for i in 0..monos.len() {
                for j in (i + 1)..monos.len() {
                    stats.pairs_examined += 1;
                    if let Some(lift) = oracle_merge(cleaned, &antichain, monos[i], monos[j]) {
                        if best.as_ref().is_none_or(|b| lift.cost < b.cost) {
                            best = Some(lift);
                        }
                    }
                }
            }
        }
        let Some(lift) = best else {
            break; // no merge possible anywhere
        };
        stats.merges_applied += 1;
        // Apply the lift: raise the antichain, substitute the collapsed
        // group incrementally.
        for &(ti, target) in &lift.raises {
            let tree = cleaned.tree(ti);
            let mut group: Vec<VarId> = Vec::new();
            let mut stack = vec![target];
            while let Some(n) = stack.pop() {
                if antichain[ti][n.index()] {
                    group.push(tree.var_of(n));
                    antichain[ti][n.index()] = false;
                } else {
                    stack.extend_from_slice(tree.children(n));
                }
            }
            antichain[ti][target.index()] = true;
            ws.apply_group(&group, tree.var_of(target), &all_polys);
        }
    }
    (antichain, completion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::optimal_vvs;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::var::VarTable;
    use provabs_trees::builder::TreeBuilder;
    use provabs_trees::generate::{months_tree, plans_tree};

    const EXAMPLE_13: &str = "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
         + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3\n\
         77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 \
         + 69.7·b2·m1 + 100.65·b2·m3";

    fn parsed(text: &str, vars: &mut VarTable) -> WorkingSet<f64> {
        WorkingSet::from_polyset(&parse_polyset(text, vars).expect("parse"))
    }

    fn example_13() -> (WorkingSet<f64>, Forest) {
        let mut vars = VarTable::new();
        let source = parsed(EXAMPLE_13, &mut vars);
        (source, Forest::single(plans_tree(&mut vars)))
    }

    #[test]
    fn reaches_the_bound_with_valid_vvs() {
        let (source, forest) = example_13();
        let (abs, stats, completion) =
            pairwise_summarize(&source, &forest, 9, &Guard::unlimited()).expect("adequate");
        assert!(completion.is_complete());
        assert!(abs.result.is_adequate_for(9));
        assert!(stats.pairs_examined > 0);
        assert!(stats.merges_applied >= 1);
        abs.result.vvs.validate(&abs.result.forest).expect("valid");
        // The returned working set is the abstracted set; the source is
        // never mutated.
        assert_eq!(abs.working.size_m(), abs.result.compressed_size_m);
        assert_eq!(abs.working.size_v(), abs.result.compressed_size_v);
        assert_eq!(source.size_m(), abs.result.original_size_m);
    }

    #[test]
    fn quality_close_to_but_not_above_optimal() {
        let (source, forest) = example_13();
        let guard = Guard::unlimited();
        let (r, _, _) = pairwise_summarize(&source, &forest, 9, &guard).expect("adequate");
        let (opt, _) = optimal_vvs(&source, &forest, 9, &guard).expect("adequate");
        assert!(
            r.result.vl() >= opt.result.vl(),
            "competitor cannot beat the optimum"
        );
    }

    #[test]
    fn oracle_refuses_unliftable_pairs() {
        // x·a and y·b share no structure outside the tree: a ≠ b blocks.
        let mut vars = VarTable::new();
        let source = parsed("1·x·a + 1·y·b", &mut vars);
        let tree = TreeBuilder::new("g")
            .leaves("g", ["x", "y"])
            .build(&mut vars)
            .expect("tree");
        let err = pairwise_summarize(&source, &Forest::single(tree), 1, &Guard::unlimited())
            .expect_err("cannot merge");
        assert!(matches!(err, TreeError::BoundUnattainable { .. }));
    }

    #[test]
    fn exponent_mismatch_blocks_merge() {
        let mut vars = VarTable::new();
        let source = parsed("1·x^2 + 1·y", &mut vars);
        let tree = TreeBuilder::new("g")
            .leaves("g", ["x", "y"])
            .build(&mut vars)
            .expect("tree");
        let err = pairwise_summarize(&source, &Forest::single(tree), 1, &Guard::unlimited())
            .expect_err("x² vs y¹");
        assert!(matches!(err, TreeError::BoundUnattainable { .. }));
    }

    #[test]
    fn multi_tree_merges_combine_lifts() {
        let mut vars = VarTable::new();
        let source = parsed("1·x·a + 1·y·b", &mut vars);
        let t1 = TreeBuilder::new("g")
            .leaves("g", ["x", "y"])
            .build(&mut vars)
            .expect("tree");
        let t2 = TreeBuilder::new("h")
            .leaves("h", ["a", "b"])
            .build(&mut vars)
            .expect("tree");
        let forest = Forest::new(vec![t1, t2]).expect("disjoint");
        let (r, _, _) = pairwise_summarize(&source, &forest, 1, &Guard::unlimited())
            .expect("merge via both trees");
        assert_eq!(r.result.compressed_size_m, 1);
        assert_eq!(r.result.vl(), 2); // two variables lost in each tree − 1 each
    }

    #[test]
    fn example_15_bound_matches_paper_behaviour() {
        let mut vars = VarTable::new();
        let source = parsed(EXAMPLE_13, &mut vars);
        let forest =
            Forest::new(vec![plans_tree(&mut vars), months_tree(&mut vars)]).expect("disjoint");
        let (r, _, _) =
            pairwise_summarize(&source, &forest, 4, &Guard::unlimited()).expect("adequate");
        assert!(r.result.is_adequate_for(4));
        // Brute-force optimum at this bound is VL 4 (Example 15).
        assert!(r.result.vl() >= 4);
    }
}
