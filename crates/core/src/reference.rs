//! Everything that exists only to be compared against: what the one
//! production entry point per algorithm is checked and timed against.
//!
//! * [`greedy_vvs`] / [`greedy_frontier`] — the paper's direct
//!   transcription of Algorithm 2: every iteration re-derives each
//!   minimal-VL candidate's group and recomputes its monomial loss from
//!   scratch on cloned polynomials (`O(n · |𝒫|_M)`, §3.2). Same selection
//!   rule, tie-breaks and anytime contract as the incremental engine of
//!   [`crate::greedy`] (`incremental_equivalence`, `guarded_compression`),
//! * [`optimal_vvs_dense`] — Algorithm 1 with dense arrays
//!   (`tests/optimality.rs`, `bench_ablation`),
//! * [`brute_force_vvs`] / [`brute_force_vvs_parallel`] — exhaustive
//!   search over every cut (the evaluation's baseline: Figure 11,
//!   `tests/optimality.rs`),
//! * [`ml_naive`] / [`ml_delta_of_group`] / [`ml_delta_of_group_in`] —
//!   the monomial loss of §3.1 by definition: substitute, then count
//!   (what [`TreeLoss`] is checked against).
//!
//! They take hash-map [`PolySet`]s and measure by direct [`Vvs::apply`]:
//! not sharing the working-set rewrite with the code they check is what
//! makes them oracles. No production module of this crate calls in here,
//! and no session strategy names them: the test suites and the
//! experiments call them directly (ADR 021).

pub use crate::brute::{brute_force_vvs, brute_force_vvs_parallel, DEFAULT_CUT_LIMIT};

use crate::greedy::{
    affected_polys, initial_candidates, leaf_membership, merge_sorted, vvs_from_membership,
    Postings,
};
use crate::loss::TreeLoss;
use crate::optimal::{better, Choice, Entry};
use crate::problem::AbstractionResult;
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::fxhash::{FxHashMap, FxHashSet};
use provabs_provenance::guard::{Completion, Guard};
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::VarId;
use provabs_provenance::working::WorkingSet;
use provabs_trees::clean::clean_forest;
use provabs_trees::cut::Vvs;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use provabs_trees::tree::{AbsTree, NodeId};

/// Cleans the forest against the polynomials and checks compatibility.
pub(crate) fn prepare<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
) -> Result<Forest, TreeError> {
    let cleaned = clean_forest(forest, polys);
    cleaned.check_compatible(polys)?;
    Ok(cleaned)
}

/// Applies `vvs` to `polys` wholesale and measures the outcome. `forest`
/// must be the forest the VVS was built over.
pub(crate) fn evaluate_vvs<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
    vvs: Vvs,
) -> AbstractionResult {
    let down = vvs.apply(polys, forest);
    AbstractionResult {
        forest: forest.clone(),
        vvs,
        original_size_m: polys.size_m(),
        original_size_v: polys.size_v(),
        compressed_size_m: down.size_m(),
        compressed_size_v: down.size_v(),
    }
}

/// `ML` of a full VVS by direct application.
pub fn ml_naive<C: Coefficient>(polys: &PolySet<C>, forest: &Forest, vvs: &Vvs) -> usize {
    polys.size_m() - vvs.apply(polys, forest).size_m()
}

/// The monomial-loss *delta* of replacing the variables `group` by a
/// single fresh variable, computed on the given polynomials — what the
/// greedy algorithm measures against the *current* (already partially
/// abstracted) polynomials. The id-space counterpart is
/// [`WorkingSet::ml_delta_of_group`](provabs_provenance::working::WorkingSet::ml_delta_of_group).
pub fn ml_delta_of_group<C: Coefficient>(polys: &PolySet<C>, group: &[VarId]) -> usize {
    if group.len() < 2 {
        return 0;
    }
    let group_set: FxHashSet<VarId> = group.iter().copied().collect();
    let indices: Vec<usize> = (0..polys.len()).collect();
    ml_delta_of_group_in(polys.as_slice(), &indices, &group_set)
}

/// [`ml_delta_of_group`] restricted to the polynomials at `poly_indices`
/// — the reference greedy engine keeps an inverted index `variable →
/// polynomial postings` so only affected polynomials are scanned.
pub fn ml_delta_of_group_in<C: Coefficient>(
    polys: &[Polynomial<C>],
    poly_indices: &[usize],
    group: &FxHashSet<VarId>,
) -> usize {
    if group.len() < 2 {
        return 0;
    }
    let mut affected = 0usize;
    let mut distinct: FxHashMap<(usize, u32, Monomial), ()> = FxHashMap::default();
    for &pi in poly_indices {
        for (mono, _) in polys[pi].iter() {
            for v in mono.vars() {
                if group.contains(&v) {
                    let (rem, exp) = mono.remove_var(v);
                    affected += 1;
                    distinct.insert((pi, exp, rem), ());
                    break;
                }
            }
        }
    }
    affected - distinct.len()
}

/// Algorithm 2 on the reference engine, under an execution [`Guard`] —
/// the anytime contract of [`crate::greedy::greedy_vvs`]: a tripped guard
/// returns the prefix of merges applied so far tagged
/// [`Completion::Interrupted`], and only complete runs can fail with
/// [`TreeError::BoundUnattainable`].
pub fn greedy_vvs<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
    bound: usize,
    guard: &Guard,
) -> Result<(AbstractionResult, Completion), TreeError> {
    let cleaned = prepare(polys, forest)?;
    let total_m = polys.size_m();
    if bound >= total_m {
        let vvs = Vvs::identity(&cleaned);
        return Ok((evaluate_vvs(polys, &cleaned, vvs), Completion::Complete));
    }
    if cleaned.num_trees() == 0 {
        return Err(TreeError::BoundUnattainable {
            bound,
            best_possible: total_m,
        });
    }
    let k = total_m - bound;
    let (in_s, completion) = run_reference(polys, &cleaned, k, guard, &mut |_, _| {});
    let vvs = vvs_from_membership(&in_s);
    debug_assert!(vvs.validate(&cleaned).is_ok());
    let result = evaluate_vvs(polys, &cleaned, vvs);
    if completion.is_complete() && !result.is_adequate_for(bound) {
        return Err(TreeError::BoundUnattainable {
            bound,
            best_possible: result.compressed_size_m,
        });
    }
    Ok((result, completion))
}

/// The greedy trade-off trace on the reference engine: runs to exhaustion
/// and records `(|𝒫↓S|_M, |𝒫↓S|_V)` after every step, starting at the
/// identity point. A tripped guard returns the prefix traced so far,
/// tagged [`Completion::Interrupted`].
#[allow(clippy::type_complexity)]
pub fn greedy_frontier<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
    guard: &Guard,
) -> Result<(Vec<(usize, usize)>, Completion), TreeError> {
    let cleaned = prepare(polys, forest)?;
    let total_m = polys.size_m();
    let total_v = polys.size_v();
    let mut out = vec![(total_m, total_v)];
    if cleaned.num_trees() == 0 {
        return Ok((out, Completion::Complete));
    }
    let (_, completion) = run_reference(polys, &cleaned, usize::MAX, guard, &mut |ml, vl| {
        out.push((total_m - ml, total_v - vl));
    });
    Ok((out, completion))
}

/// Builds the postings index over a polynomial slice. Lists come out
/// sorted because polynomials are visited in index order.
fn build_postings<C: Coefficient>(polys: &[Polynomial<C>]) -> Postings {
    let mut postings = Postings::default();
    for (pi, p) in polys.iter().enumerate() {
        for (m, _) in p.iter() {
            for v in m.vars() {
                let list = postings.entry(v);
                if list.last() != Some(&pi) {
                    list.push(pi);
                }
            }
        }
    }
    postings
}

/// The reference greedy main loop: starts from all leaves, swaps in
/// candidates until the measured monomial loss reaches `k` or candidates
/// run out.
/// Calls `observer(ml_total, vl_total)` after every applied step. Returns
/// the final membership bitmaps.
///
/// Every iteration recomputes each minimal-VL candidate's monomial loss
/// from scratch and rewrites the affected polynomials with
/// [`map_vars`](provabs_provenance::polynomial::Polynomial::map_vars).
fn run_reference<C: Coefficient>(
    polys: &PolySet<C>,
    cleaned: &Forest,
    k: usize,
    guard: &Guard,
    observer: &mut dyn FnMut(usize, usize),
) -> (Vec<Vec<bool>>, Completion) {
    let mut in_s = leaf_membership(cleaned);
    let mut candidates = initial_candidates(cleaned, &in_s);

    // Working copy of the polynomials plus the postings index, so
    // candidate evaluation and application touch only affected
    // polynomials.
    let mut current: Vec<Polynomial<C>> = polys.iter().cloned().collect();
    let mut postings = build_postings(&current);
    let mut ml_total = 0usize;
    let mut vl_total = 0usize;
    let mut completion = Completion::Complete;
    let mut checkpoint = guard.checkpoint();
    let mut steps_done = 0usize;

    // Main loop (lines 10–14).
    while ml_total < k && !candidates.is_empty() {
        if let Err(reason) = checkpoint.tick() {
            completion = Completion::Interrupted {
                reason,
                steps: steps_done,
                size_reached: current.iter().map(Polynomial::size_m).sum(),
            };
            break;
        }
        // Variable loss of swapping in a candidate: children − 1 (after
        // cleaning every child variable occurs in the polynomials).
        let min_vl = candidates
            .iter()
            .map(|&(ti, n)| cleaned.tree(ti).children(n).len() - 1)
            .min()
            .expect("non-empty");
        // Tie-break on the larger monomial loss, then label order.
        let mut best: Option<(usize, (usize, NodeId))> = None; // (ml_delta, cand)
        for &(ti, n) in &candidates {
            let tree = cleaned.tree(ti);
            if tree.children(n).len() - 1 != min_vl {
                continue;
            }
            let group_vec: Vec<VarId> = tree.children(n).iter().map(|&c| tree.var_of(c)).collect();
            let group: FxHashSet<VarId> = group_vec.iter().copied().collect();
            let affected = affected_polys(&postings, &group_vec);
            let delta = ml_delta_of_group_in(&current, &affected, &group);
            let replace = match &best {
                None => true,
                Some((best_delta, (bti, bn))) => {
                    delta > *best_delta
                        || (delta == *best_delta
                            && tree.label_of(n) < cleaned.tree(*bti).label_of(*bn))
                }
            };
            if replace {
                best = Some((delta, (ti, n)));
            }
        }
        let (_, (ti, chosen)) = best.expect("min_vl came from candidates");
        let tree = cleaned.tree(ti);

        // Apply: children leave S, the candidate joins (lines 11–12).
        let chosen_var = tree.var_of(chosen);
        let group_vec: Vec<VarId> = tree
            .children(chosen)
            .iter()
            .map(|&c| tree.var_of(c))
            .collect();
        let group: FxHashSet<VarId> = group_vec.iter().copied().collect();
        let affected = affected_polys(&postings, &group_vec);
        // The loss is measured on the rewritten polynomials: where merged
        // terms cancel, it exceeds the score the candidate was chosen by.
        let mut delta = 0;
        for &pi in &affected {
            let before = current[pi].size_m();
            current[pi] = current[pi].map_vars(|v| if group.contains(&v) { chosen_var } else { v });
            delta += before - current[pi].size_m();
        }
        for &v in &group_vec {
            postings.entry(v).clear();
        }
        let entry = postings.entry(chosen_var);
        *entry = merge_sorted(entry, &affected);
        ml_total += delta;
        vl_total += tree.children(chosen).len() - 1;
        for &c in tree.children(chosen) {
            in_s[ti][c.index()] = false;
        }
        in_s[ti][chosen.index()] = true;
        candidates.retain(|&c| c != (ti, chosen));

        // The parent may have become a candidate (lines 13–14).
        if let Some(parent) = tree.parent(chosen) {
            if tree.children(parent).iter().all(|c| in_s[ti][c.index()]) {
                candidates.push((ti, parent));
            }
        }
        steps_done += 1;
        observer(ml_total, vl_total);
    }
    (in_s, completion)
}

/// Algorithm 1 with dense `k+1`-length arrays — the straightforward
/// transcription of the pseudo-code. `tests/optimality.rs` asserts it
/// agrees with [`crate::optimal::optimal_vvs`]; `bench_ablation` times the
/// two against each other.
pub fn optimal_vvs_dense<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
    bound: usize,
) -> Result<AbstractionResult, TreeError> {
    let cleaned = prepare(polys, forest)?;
    let total_m = polys.size_m();
    if bound >= total_m {
        // Nothing to do: the identity abstraction is optimal (VL = 0).
        let vvs = Vvs::identity(&cleaned);
        return Ok(evaluate_vvs(polys, &cleaned, vvs));
    }
    if cleaned.num_trees() == 0 {
        // No abstraction possible at all (trees were all trivial).
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
    // The per-node losses are the production index: this oracle checks the
    // DP over them, `ml_naive` checks the index.
    let loss = TreeLoss::build(&WorkingSet::from_polyset(polys), tree);

    // Dense arrays: index j holds Option<Entry>.
    let mut arrays: Vec<Vec<Option<Entry>>> = vec![Vec::new(); tree.num_nodes()];
    for v in tree.postorder() {
        let mut arr: Vec<Option<Entry>> = vec![None; k + 1];
        if tree.is_leaf(v) {
            arr[0] = Some(Entry {
                vl: 0,
                choice: Choice::Take,
            });
        } else {
            let children = tree.children(v);
            // computeArray, dense: τ[i][j] over prefix of children.
            let mut cur: Vec<Option<(u64, Vec<usize>)>> = vec![None; k + 1];
            for (j, e) in arrays[children[0].index()].iter().enumerate() {
                if let Some(e) = e {
                    cur[j] = Some((e.vl, vec![j]));
                }
            }
            for &c in &children[1..] {
                let carr = &arrays[c.index()];
                let mut next: Vec<Option<(u64, Vec<usize>)>> = vec![None; k + 1];
                for (s, cell) in cur.iter().enumerate() {
                    let Some((vs, alloc)) = cell else { continue };
                    for (t, ct) in carr.iter().enumerate() {
                        let Some(et) = ct else { continue };
                        let j = (s + t).min(k);
                        let cand = vs + et.vl;
                        if next[j].as_ref().is_none_or(|(v, _)| cand < *v) {
                            let mut a = alloc.clone();
                            a.push(t);
                            next[j] = Some((cand, a));
                        }
                    }
                }
                cur = next;
            }
            for (j, cell) in cur.into_iter().enumerate() {
                if let Some((vl, alloc)) = cell {
                    arr[j] = Some(Entry {
                        vl,
                        choice: Choice::Split(alloc),
                    });
                }
            }
            let j = loss.ml_of(v).min(k);
            better(&mut arr[j], loss.vl_of(v) as u64, || Choice::Take);
        }
        arrays[v.index()] = arr;
    }

    let root = tree.root();
    if arrays[root.index()][k].is_none() {
        let best_ml = arrays[root.index()]
            .iter()
            .enumerate()
            .rev()
            .find_map(|(j, e)| e.as_ref().map(|_| j))
            .unwrap_or(0);
        return Err(TreeError::BoundUnattainable {
            bound,
            best_possible: total_m - best_ml,
        });
    }
    // Reconstruct through the dense arrays.
    fn rec_dense(
        tree: &AbsTree,
        arrays: &[Vec<Option<Entry>>],
        v: NodeId,
        j: usize,
        out: &mut Vec<NodeId>,
    ) {
        let entry = arrays[v.index()][j].as_ref().expect("recorded entry");
        match &entry.choice {
            Choice::Take => out.push(v),
            Choice::Split(alloc) => {
                for (&c, &jc) in tree.children(v).iter().zip(alloc) {
                    rec_dense(tree, arrays, c, jc, out);
                }
            }
        }
    }
    let mut chosen = Vec::new();
    rec_dense(tree, &arrays, root, k, &mut chosen);
    let vvs = Vvs::from_per_tree(vec![chosen]);
    Ok(evaluate_vvs(polys, &cleaned, vvs))
}
