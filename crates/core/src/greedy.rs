//! Algorithm 2: greedy valid-variable selection for multiple trees.
//!
//! Optimal selection over an arbitrary forest is NP-hard (Prop. 11), so
//! the greedy heuristic maintains a VVS `S` (initially all leaves) and a
//! candidate set `C` of nodes whose children are all in `S`. While the
//! accumulated monomial loss is below `k = |𝒫|_M − B` and candidates
//! remain, it replaces the children of the candidate with the *minimal
//! variable loss* by the candidate itself. Ties on variable loss are
//! broken towards the larger monomial loss measured on the *current*
//! (partially abstracted) polynomials — this reproduces Example 15, where
//! `q1` is preferred over `SB` (both lose one variable, but `q1` saves 7
//! monomials and `SB` only 2); remaining ties fall back to label order
//! for determinism ("ties are broken arbitrarily").
//!
//! A candidate is scored by the monomials its merge collapses; the loss
//! accumulated towards `k` is the terms the applied merge removed. The
//! two differ only where merged terms cancel to zero, and counting the
//! removed terms stops the run as soon as `|𝒫↓S|_M ≤ B` (ADR 024).
//!
//! # The engine
//!
//! [`greedy_vvs`] and [`greedy_frontier`] run the **incremental engine**:
//! the in-flight polynomials live in an interned [`WorkingSet`] and the
//! candidate scores are *delta-maintained* — each candidate caches its
//! `(vl, ml_delta, affected)` triple, candidates are bucketed by variable
//! loss, and applying a merge only dirties the candidates *of other
//! trees* whose affected-polynomial sets intersect the applied group's
//! postings (tracked by per-polynomial stamps, checked lazily when a
//! candidate's bucket is scanned). A step rewrites only the affected
//! runs, each inside its own span, so the per-iteration cost tracks the
//! merge's footprint instead of `O(|𝒫|_M)`. The loop is sequential, as
//! Algorithm 2 is; ADR 009 records why it is not split into shards.
//! After every step it reports the cumulative monomial and variable
//! loss to an observer, which is how [`greedy_frontier`] records its
//! trace.
//!
//! Why a merge never dirties a candidate of its own tree: compatibility
//! (§2.2) gives every monomial at most one node per tree, and two live
//! candidates of one tree have disjoint groups. The monomials a
//! candidate's delta is computed from each hold one of *its* group
//! variables, so none of them holds a variable of the merged group: the
//! merge neither relabels them, nor merges into them, nor removes them,
//! and their remainder classes — hence the delta — stand. On a
//! single-tree forest no candidate is ever scored twice.
//!
//! The paper's direct transcription — every iteration re-derives each
//! minimal-VL candidate's group and recomputes its monomial loss from
//! scratch on cloned hash-map polynomials (`O(n · |𝒫|_M)`, §3.2) — is the
//! oracle [`crate::reference::greedy_vvs`]. The two are step-for-step
//! identical: same chosen VVS, same frontier trace, same tie-breaks
//! (asserted by the `incremental_equivalence` property suite).
//!
//! A hash-map poly-set is an input *format*, lowered once by
//! [`WorkingSet::from_polyset`]; handing it to an algorithm directly does
//! not type-check:
//!
//! ```compile_fail,E0308
//! use provabs_provenance::{guard::Guard, parse::parse_polyset, VarTable};
//! use provabs_trees::{builder::TreeBuilder, forest::Forest};
//!
//! let mut vars = VarTable::new();
//! let polys = parse_polyset("1·a·x + 2·b·x", &mut vars).unwrap();
//! let tree = TreeBuilder::new("AB").leaves("AB", ["a", "b"]).build(&mut vars).unwrap();
//! provabs_core::greedy::greedy_vvs(&polys, &Forest::single(tree), 1, &Guard::unlimited());
//! ```

use crate::problem::{evaluate_vvs, prepare, AbstractionResult, InternedAbstraction};
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::guard::{Completion, Guard};
use provabs_provenance::var::VarId;
use provabs_provenance::working::WorkingSet;
use provabs_trees::cut::Vvs;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use provabs_trees::tree::NodeId;

/// Inverted index `variable → polynomial postings`, dense by
/// [`VarId::index`]; each list sorted ascending and duplicate-free.
#[derive(Default)]
pub(crate) struct Postings(Vec<Vec<usize>>);

impl Postings {
    /// The list of `v`, for writing (empty if `v` has none yet).
    pub(crate) fn entry(&mut self, v: VarId) -> &mut Vec<usize> {
        if self.0.len() <= v.index() {
            self.0.resize_with(v.index() + 1, Vec::new);
        }
        &mut self.0[v.index()]
    }

    /// The list of `v` (empty if `v` occurs nowhere).
    fn get(&self, v: VarId) -> &[usize] {
        self.0.get(v.index()).map_or(&[], Vec::as_slice)
    }
}

/// Builds the postings index over a working set — the variables come
/// straight out of the arena, read run by run (ids ascend within a run,
/// so the arena's factor column is read front to back). Lists come out
/// sorted because polynomials are visited in index order.
fn build_postings<C: Coefficient>(ws: &WorkingSet<C>) -> Postings {
    let mut postings = Postings::default();
    for pi in 0..ws.num_polys() {
        for &id in ws.poly_mono_ids(pi) {
            for v in ws.mono(id).vars() {
                let list = postings.entry(v);
                if list.last() != Some(&pi) {
                    list.push(pi);
                }
            }
        }
    }
    postings
}

/// Merges two sorted duplicate-free lists into one.
pub(crate) fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sorted list of polynomial indices containing any variable of `group`:
/// a k-way merge of the (already sorted) postings lists, smallest lists
/// first so the accumulator stays as short as possible.
pub(crate) fn affected_polys(postings: &Postings, group: &[VarId]) -> Vec<usize> {
    let mut lists: Vec<&[usize]> = group.iter().map(|&v| postings.get(v)).collect();
    lists.sort_unstable_by_key(|l| l.len());
    let mut out: Vec<usize> = Vec::new();
    for l in lists {
        if out.is_empty() {
            out.extend_from_slice(l);
        } else {
            out = merge_sorted(&out, l);
        }
    }
    out
}

/// Runs Algorithm 2. Works for any number of trees (including one, where
/// it is a fast but possibly sub-optimal alternative to
/// [`crate::optimal::optimal_vvs`]). The engine rewrites a clone of
/// `source`, and the selection comes back *together with* the rewritten
/// `𝒫↓S`, ready to freeze for evaluation.
///
/// The selection loop checks `guard` once per step. On a trip the run
/// does not error: greedy compression is *anytime* — the prefix of
/// merges applied so far is itself a sound abstraction, just a larger
/// one — so the best-so-far result comes back tagged
/// [`Completion::Interrupted`].
///
/// Returns [`TreeError::BoundUnattainable`] when even exhausting every
/// candidate cannot reach `bound`; the error carries the best size the
/// greedy run achieved. Only complete runs are checked for adequacy.
///
/// ```
/// use provabs_provenance::{guard::Guard, parse::parse_polyset, VarTable};
/// use provabs_provenance::working::WorkingSet;
/// use provabs_trees::{builder::TreeBuilder, forest::Forest};
/// use provabs_core::greedy::greedy_vvs;
///
/// let mut vars = VarTable::new();
/// let polys = parse_polyset("1·a·x + 2·b·x + 3·a·y + 4·b·y", &mut vars).unwrap();
/// let t1 = TreeBuilder::new("AB").leaves("AB", ["a", "b"]).build(&mut vars).unwrap();
/// let t2 = TreeBuilder::new("XY").leaves("XY", ["x", "y"]).build(&mut vars).unwrap();
/// let forest = Forest::new(vec![t1, t2]).unwrap();
/// // Two trees: the optimal DP does not apply, the greedy does.
/// let source = WorkingSet::from_polyset(&polys);
/// let (abs, completion) = greedy_vvs(&source, &forest, 2, &Guard::unlimited()).unwrap();
/// assert!(completion.is_complete());
/// assert!(abs.result.compressed_size_m <= 2);
/// assert_eq!(abs.working.size_m(), abs.result.compressed_size_m);
/// ```
pub fn greedy_vvs<C: Coefficient>(
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
    let k = total_m - bound;
    let run = run_incremental(source.clone(), &cleaned, k, guard, &mut |_, _| {});
    let (ws, completion) = (run.ws, run.completion);
    let vvs = vvs_from_membership(&run.in_s);
    debug_assert!(vvs.validate(&cleaned).is_ok());
    debug_assert!(cleaned.num_trees() > 1 || run.scorings <= run.candidates);
    let live_vars = ws.live_vars();
    let result = AbstractionResult {
        forest: cleaned,
        vvs,
        original_size_m: total_m,
        original_size_v: live.len(),
        compressed_size_m: ws.size_m(),
        compressed_size_v: live_vars.len(),
    };
    // An interrupted run is exempt from the adequacy check: its contract
    // is "the best valid abstraction reached in the budget", which may
    // legitimately still be above the bound.
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
        completion,
    ))
}

/// The greedy trade-off trace: runs Algorithm 2 to exhaustion and records
/// `(|𝒫↓S|_M, |𝒫↓S|_V)` after every step — the multi-tree counterpart of
/// [`crate::optimal::optimal_frontier`] (approximate: each point is the
/// greedy choice, not necessarily Pareto-optimal). The first entry is the
/// identity abstraction.
///
/// A tripped guard stops the trace where it is: the points recorded so
/// far (a prefix of the uninterrupted trace) come back tagged
/// [`Completion::Interrupted`].
#[allow(clippy::type_complexity)]
pub fn greedy_frontier<C: Coefficient>(
    source: &WorkingSet<C>,
    forest: &Forest,
    guard: &Guard,
) -> Result<(Vec<(usize, usize)>, Completion), TreeError> {
    let (cleaned, live) = prepare(source, forest)?;
    let (total_m, total_v) = (source.size_m(), live.len());
    let mut out = vec![(total_m, total_v)];
    if cleaned.num_trees() == 0 {
        return Ok((out, Completion::Complete));
    }
    let run = run_incremental(
        source.clone(),
        &cleaned,
        usize::MAX,
        guard,
        &mut |ml, vl| out.push((total_m - ml, total_v - vl)),
    );
    Ok((out, run.completion))
}

/// Converts per-tree membership bitmaps into a [`Vvs`].
pub(crate) fn vvs_from_membership(in_s: &[Vec<bool>]) -> Vvs {
    Vvs::from_per_tree(
        in_s.iter()
            .map(|bits| {
                bits.iter()
                    .enumerate()
                    .filter_map(|(i, &b)| b.then_some(NodeId(i as u32)))
                    .collect()
            })
            .collect(),
    )
}

/// Initial membership bitmaps: `S` starts as the set of all leaves
/// (lines 1–5 of Algorithm 2).
pub(crate) fn leaf_membership(cleaned: &Forest) -> Vec<Vec<bool>> {
    cleaned
        .trees()
        .iter()
        .map(|t| {
            let mut v = vec![false; t.num_nodes()];
            for l in t.leaves() {
                v[l.index()] = true;
            }
            v
        })
        .collect()
}

/// Initial candidates: nodes whose children are all in `S` (lines 6–9).
pub(crate) fn initial_candidates(cleaned: &Forest, in_s: &[Vec<bool>]) -> Vec<(usize, NodeId)> {
    let mut candidates = Vec::new();
    for (ti, tree) in cleaned.trees().iter().enumerate() {
        for n in tree.node_ids() {
            if !tree.is_leaf(n) && tree.children(n).iter().all(|c| in_s[ti][c.index()]) {
                candidates.push((ti, n));
            }
        }
    }
    candidates
}

/// A cached candidate of the incremental engine.
struct Candidate {
    /// Tree and node this candidate would swap in.
    ti: usize,
    node: NodeId,
    /// `VL` of applying it: number of children − 1 (static).
    vl: usize,
    /// The children's variables — the group the merge substitutes.
    group: Vec<VarId>,
    /// Sorted polynomial indices containing any group variable. Fixed for
    /// the candidate's lifetime: postings entries of its group variables
    /// never change while the candidate exists (groups of distinct
    /// candidates are disjoint, and a candidate's parent only becomes a
    /// candidate after this one is applied and retired).
    affected: Vec<usize>,
    /// Cached `ML` delta, valid as of `computed_at`.
    delta: usize,
    /// Engine step count when `delta` was computed (0 = never).
    computed_at: u64,
    /// Cleared when the candidate is applied; stale bucket entries are
    /// skipped lazily.
    alive: bool,
}

/// What one run of the incremental engine leaves behind.
pub(crate) struct EngineRun<C> {
    /// The final membership bitmaps, per tree.
    pub(crate) in_s: Vec<Vec<bool>>,
    /// The rewritten working set: `𝒫↓S` in interned form.
    pub(crate) ws: WorkingSet<C>,
    /// How the run ended.
    pub(crate) completion: Completion,
    /// How many candidates the run created.
    pub(crate) candidates: usize,
    /// How many deltas it computed: no more than `candidates` when
    /// nothing was scored twice.
    pub(crate) scorings: usize,
}

/// The incremental greedy main loop (see the [module docs](self)).
/// Consumes the working set (rewriting it in place) and returns it — the
/// final state *is* `𝒫↓S` in interned form — with the final membership
/// bitmaps and how the run ended. Calls `observer(ml_total, vl_total)`
/// after every applied step.
pub(crate) fn run_incremental<C: Coefficient>(
    mut ws: WorkingSet<C>,
    cleaned: &Forest,
    k: usize,
    guard: &Guard,
    observer: &mut dyn FnMut(usize, usize),
) -> EngineRun<C> {
    let mut in_s = leaf_membership(cleaned);
    let mut postings = build_postings(&ws);

    // Candidate slab + VL buckets. VL is bounded by the forest's maximal
    // fan-out, so buckets are a dense vector; dead entries are skipped
    // (and compacted) during bucket scans.
    let mut slab: Vec<Candidate> = Vec::new();
    let max_vl = cleaned
        .trees()
        .iter()
        .flat_map(|t| t.node_ids().map(|n| t.children(n).len()))
        .max()
        .unwrap_or(1);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_vl.max(1)];
    let mut live_candidates = 0usize;

    // Stamps realise the dirty-set propagation: `rewritten[pi]` holds the
    // two newest merges of polynomial `pi` that belong to different trees,
    // newest first, as `(step, tree)` — so the newest merge by a tree
    // other than a given one is the first entry unless that is the given
    // tree's, else the second. A cached delta is stale iff a merge of
    // *another* tree rewrote one of its affected polynomials after it was
    // computed (see the module docs), evaluated lazily so candidates
    // outside the scanned bucket never pay for it.
    let mut rewritten: Vec<[(u64, usize); 2]> = vec![[(0, usize::MAX); 2]; ws.num_polys()];
    let mut step: u64 = 1;
    let mut scorings = 0usize;

    let add_candidate = |ti: usize,
                         node: NodeId,
                         postings: &Postings,
                         slab: &mut Vec<Candidate>,
                         buckets: &mut Vec<Vec<usize>>| {
        let tree = cleaned.tree(ti);
        let group: Vec<VarId> = tree
            .children(node)
            .iter()
            .map(|&c| tree.var_of(c))
            .collect();
        let vl = group.len() - 1;
        let affected = affected_polys(postings, &group);
        let id = slab.len();
        slab.push(Candidate {
            ti,
            node,
            vl,
            group,
            affected,
            delta: 0,
            computed_at: 0,
            alive: true,
        });
        buckets[vl].push(id);
    };

    for (ti, node) in initial_candidates(cleaned, &in_s) {
        add_candidate(ti, node, &postings, &mut slab, &mut buckets);
        live_candidates += 1;
    }

    let mut ml_total = 0usize;
    let mut vl_total = 0usize;
    let mut completion = Completion::Complete;
    let mut checkpoint = guard.checkpoint();
    let mut steps_done = 0usize;

    while ml_total < k && live_candidates > 0 {
        if let Err(reason) = checkpoint.tick() {
            completion = Completion::Interrupted {
                reason,
                steps: steps_done,
                size_reached: ws.size_m(),
            };
            break;
        }
        // The minimal-VL bucket with a live candidate, compacting dead
        // entries on the way.
        let bucket_vl = buckets
            .iter_mut()
            .position(|b| {
                b.retain(|&id| slab[id].alive);
                !b.is_empty()
            })
            .expect("live_candidates > 0");

        // Refresh stale deltas and pick the bucket's best candidate:
        // maximal delta, ties towards the smaller label (labels are
        // unique forest-wide, so the choice is scan-order independent and
        // matches the reference engine).
        // The bucket is not mutated during the scan; detach it so slab
        // entries can be refreshed while iterating.
        let bucket = std::mem::take(&mut buckets[bucket_vl]);
        let mut best: Option<usize> = None;
        for &id in &bucket {
            let c = &mut slab[id];
            let stale = c.computed_at == 0
                || c.affected.iter().any(|&pi| {
                    let [newest, older] = rewritten[pi];
                    let other_tree = if newest.1 != c.ti { newest } else { older };
                    other_tree.0 > c.computed_at
                });
            if stale {
                c.delta = ws.ml_delta_of_group(&c.group, &c.affected);
                c.computed_at = step;
                scorings += 1;
            }
            let replace = match best {
                None => true,
                Some(b) => {
                    let (cand, cur) = (&slab[id], &slab[b]);
                    cand.delta > cur.delta
                        || (cand.delta == cur.delta
                            && cleaned.tree(cand.ti).label_of(cand.node)
                                < cleaned.tree(cur.ti).label_of(cur.node))
                }
            };
            if replace {
                best = Some(id);
            }
        }
        buckets[bucket_vl] = bucket;
        let chosen_id = best.expect("bucket is non-empty");
        let (ti, chosen) = (slab[chosen_id].ti, slab[chosen_id].node);
        let tree = cleaned.tree(ti);
        let chosen_var = tree.var_of(chosen);

        // Apply the merge to the working set and bump the stamps of every
        // rewritten polynomial.
        step += 1;
        let delta = {
            let c = &slab[chosen_id];
            let lost = ws.apply_group(&c.group, chosen_var, &c.affected);
            for &pi in &c.affected {
                let stamps = &mut rewritten[pi];
                if stamps[0].1 != ti {
                    stamps[1] = stamps[0];
                }
                stamps[0] = (step, ti);
            }
            for &v in &c.group {
                postings.entry(v).clear();
            }
            let entry = postings.entry(chosen_var);
            *entry = merge_sorted(entry, &c.affected);
            lost
        };
        ml_total += delta; // measured, not scored (module docs)
        vl_total += slab[chosen_id].vl;
        for &c in tree.children(chosen) {
            in_s[ti][c.index()] = false;
        }
        in_s[ti][chosen.index()] = true;
        slab[chosen_id].alive = false;
        live_candidates -= 1;

        // The parent may have become a candidate (lines 13–14).
        if let Some(parent) = tree.parent(chosen) {
            if tree.children(parent).iter().all(|c| in_s[ti][c.index()]) {
                add_candidate(ti, parent, &postings, &mut slab, &mut buckets);
                live_candidates += 1;
            }
        }
        steps_done += 1;
        observer(ml_total, vl_total);
    }
    // The working set already is `𝒫↓S`: hand it back so the caller skips
    // the wholesale re-application (and can keep speaking ids).
    EngineRun {
        in_s,
        ws,
        completion,
        candidates: slab.len(),
        scorings,
    }
}

// The name `benchmark/` imports, until a `benchmark`-only change renames it.
#[doc(hidden)]
pub use greedy_vvs as greedy_vvs_interned_guarded;

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::polyset::PolySet;
    use provabs_provenance::var::VarTable;
    use provabs_trees::builder::TreeBuilder;
    use provabs_trees::generate::{months_tree, plans_tree};

    fn example_15() -> (PolySet<f64>, Forest, VarTable) {
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3\n\
             77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 \
             + 69.7·b2·m1 + 100.65·b2·m3",
            &mut vars,
        )
        .expect("parse");
        let forest =
            Forest::new(vec![plans_tree(&mut vars), months_tree(&mut vars)]).expect("disjoint");
        (polys, forest, vars)
    }

    #[test]
    fn example_15_trace() {
        // B = 4, k = 10. The greedy run of Example 15 selects q1, SB, B
        // (Business), Sp (Special) and terminates with ML = 11, VL = 5.
        let (polys, forest, vars) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        let (abs, completion) =
            greedy_vvs(&source, &forest, 4, &Guard::unlimited()).expect("adequate");
        assert!(completion.is_complete());
        let r = abs.result;
        assert_eq!(r.ml(), 11);
        assert_eq!(r.vl(), 5);
        assert_eq!(r.compressed_size_m, 3);
        // The returned working set is the abstracted set; the source is
        // never mutated.
        assert_eq!(abs.working.size_m(), r.compressed_size_m);
        assert_eq!(abs.working.size_v(), r.compressed_size_v);
        assert_eq!(source.size_m(), polys.size_m());
        // S = {p1, Business, Special, q1} (p1 stays a leaf).
        assert_eq!(
            r.vvs.labels(&r.forest),
            ["Business", "Special", "p1", "q1"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
        // The optimal VVS for this bound is {q1, Sp, SB, e, p1} with
        // ML = 10, VL = 4 — the greedy result is adequate but not optimal
        // (exactly the paper's observation).
        let opt = Vvs::from_labels(&r.forest, &vars, &["SB", "Special", "e", "p1", "q1"])
            .expect("labels");
        let opt_res = evaluate_vvs(source, &r.forest, opt, r.original_size_v).result;
        assert_eq!(opt_res.ml(), 10);
        assert_eq!(opt_res.vl(), 4);
    }

    #[test]
    fn reference_engine_agrees_on_example_15() {
        let (polys, forest, _) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        let guard = Guard::unlimited();
        for bound in 1..=polys.size_m() + 1 {
            let inc = greedy_vvs(&source, &forest, bound, &guard);
            let refr = crate::reference::greedy_vvs(&polys, &forest, bound, &guard);
            match (inc, refr) {
                (Ok((a, _)), Ok((b, _))) => {
                    assert_eq!(a.result.vvs, b.vvs, "bound {bound}");
                    assert_eq!(a.result.compressed_size_m, b.compressed_size_m);
                    assert_eq!(a.result.compressed_size_v, b.compressed_size_v);
                    assert_eq!(a.result.original_size_m, b.original_size_m);
                    assert_eq!(a.result.original_size_v, b.original_size_v);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "bound {bound}"),
                (a, b) => panic!("engines disagree at bound {bound}: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(
            greedy_frontier(&source, &forest, &guard).expect("runs"),
            crate::reference::greedy_frontier(&polys, &forest, &guard).expect("runs"),
        );
    }

    #[test]
    fn greedy_is_adequate_when_possible() {
        let (polys, forest, _) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        for bound in 3..polys.size_m() {
            match greedy_vvs(&source, &forest, bound, &Guard::unlimited()) {
                Ok((abs, _)) => {
                    let r = abs.result;
                    assert!(r.is_adequate_for(bound), "bound {bound}");
                    r.vvs.validate(&r.forest).expect("valid VVS");
                }
                Err(TreeError::BoundUnattainable { best_possible, .. }) => {
                    // Full compression leaves one monomial per (poly, month
                    // structure): here 2 polys × 1 merged monomial… the
                    // floor is what exhausting all candidates achieves.
                    assert!(best_possible > bound, "bound {bound}");
                }
                Err(e) => panic!("unexpected error at bound {bound}: {e}"),
            }
        }
    }

    #[test]
    fn unattainable_bound_reports_floor() {
        let (polys, forest, _) = example_15();
        // Maximal compression: Plans ∪ Year → each poly collapses to a
        // single monomial Plans·Year ⇒ floor is 2.
        let err = greedy_vvs(
            &WorkingSet::from_polyset(&polys),
            &forest,
            1,
            &Guard::unlimited(),
        )
        .expect_err("floor is 2");
        assert_eq!(
            err,
            TreeError::BoundUnattainable {
                bound: 1,
                best_possible: 2
            }
        );
    }

    #[test]
    fn loose_bound_returns_identity() {
        let (polys, forest, _) = example_15();
        let (abs, _) = greedy_vvs(
            &WorkingSet::from_polyset(&polys),
            &forest,
            100,
            &Guard::unlimited(),
        )
        .expect("identity");
        assert_eq!(abs.result.ml(), 0);
        assert_eq!(abs.result.vl(), 0);
    }

    #[test]
    fn frontier_traces_every_step() {
        let (polys, forest, _) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        let guard = Guard::unlimited();
        let (frontier, completion) = greedy_frontier(&source, &forest, &guard).expect("runs");
        assert!(completion.is_complete());
        // Starts at the identity point.
        assert_eq!(frontier[0], (polys.size_m(), polys.size_v()));
        // Sizes weakly decrease, granularity strictly decreases per step.
        for w in frontier.windows(2) {
            assert!(w[1].0 <= w[0].0);
            assert!(w[1].1 < w[0].1);
        }
        // Exhaustion: the last point is the maximal greedy compression —
        // both trees fully abstracted, 1 monomial per polynomial.
        assert_eq!(frontier.last().expect("non-empty").0, 2);
        // Every frontier point is realised by some greedy run: checking
        // the recorded sizes against an actual run at that bound.
        for &(size, granularity) in &frontier {
            match greedy_vvs(&source, &forest, size, &guard) {
                Ok((abs, _)) => {
                    assert!(abs.result.compressed_size_m <= size);
                    assert!(abs.result.compressed_size_v >= granularity);
                }
                Err(e) => panic!("frontier point ({size}, {granularity}) unreachable: {e}"),
            }
        }
    }

    #[test]
    fn step_capped_frontier_is_a_tagged_prefix() {
        use provabs_provenance::guard::{Budget, Interrupt};
        let (polys, forest, _) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        let (full, _) = greedy_frontier(&source, &forest, &Guard::unlimited()).expect("runs");
        let (capped, completion) =
            greedy_frontier(&source, &forest, &Guard::new(Budget::with_steps(3))).expect("runs");
        // The identity point plus exactly three steps, on the full trace.
        assert_eq!(capped, full[..4]);
        assert_eq!(
            completion,
            Completion::Interrupted {
                reason: Interrupt::StepCapExhausted,
                steps: 3,
                size_reached: full[3].0,
            }
        );
    }

    #[test]
    fn single_tree_greedy_matches_optimal_on_easy_instance() {
        // A flat instance where greedy and optimal coincide.
        let mut vars = VarTable::new();
        let polys = parse_polyset("1·a·x + 1·b·x + 1·c·y + 1·d·y", &mut vars).expect("parse");
        let tree = TreeBuilder::new("R")
            .child("R", "g1")
            .child("R", "g2")
            .leaves("g1", ["a", "b"])
            .leaves("g2", ["c", "d"])
            .build(&mut vars)
            .expect("tree");
        let forest = Forest::single(tree);
        let source = WorkingSet::from_polyset(&polys);
        let guard = Guard::unlimited();
        let (g, _) = greedy_vvs(&source, &forest, 3, &guard).expect("adequate");
        let (o, _) = crate::optimal::optimal_vvs(&source, &forest, 3, &guard).expect("adequate");
        assert_eq!(g.result.vl(), o.result.vl());
        assert_eq!(g.result.compressed_size_m, 3);
    }

    /// Two trees whose six candidates all lose one variable, so every one
    /// of them sits in the bucket that is scanned at every step.
    fn quarters_and_plan_groups() -> (PolySet<f64>, Forest) {
        let mut vars = VarTable::new();
        let line = |scale: f64, skip: usize| {
            let plans = ["p1", "p2", "p3", "p4"].iter().enumerate();
            plans
                .flat_map(|(i, p)| (1..=4).map(move |j| (i * 4 + j, format!("{p}·m{j}"))))
                .filter(|&(slot, _)| slot % 7 != skip)
                .map(|(slot, mono)| format!("{}·{mono}", scale * slot as f64))
                .collect::<Vec<_>>()
                .join(" + ")
        };
        let text = format!("{}\n{}\n{}", line(1.0, 7), line(0.5, 3), line(0.25, 5));
        let polys = parse_polyset(&text, &mut vars).expect("parse");
        let year = TreeBuilder::new("Year")
            .child("Year", "h1")
            .child("Year", "h2")
            .leaves("h1", ["m1", "m2"])
            .leaves("h2", ["m3", "m4"])
            .build(&mut vars)
            .expect("tree");
        let plans = TreeBuilder::new("Plans")
            .child("Plans", "g1")
            .child("Plans", "g2")
            .leaves("g1", ["p1", "p2"])
            .leaves("g2", ["p3", "p4"])
            .build(&mut vars)
            .expect("tree");
        (polys, Forest::new(vec![year, plans]).expect("disjoint"))
    }

    /// Runs the engine to exhaustion and counts.
    fn counts(polys: &PolySet<f64>, forest: &Forest) -> (usize, usize) {
        let source = WorkingSet::from_polyset(polys);
        let (cleaned, _) = prepare(&source, forest).expect("compatible");
        let guard = Guard::unlimited();
        let run = run_incremental(source, &cleaned, usize::MAX, &guard, &mut |_, _| {});
        assert!(run.completion.is_complete());
        (run.candidates, run.scorings)
    }

    #[test]
    fn a_delta_goes_stale_only_when_another_tree_moved() {
        // One tree: every candidate is scored when its bucket is first
        // scanned and never again — a merge of its own tree cannot change
        // what its delta was computed from.
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "1·a·x + 2·b·x + 3·c·y + 4·d·y + 5·e·x + 6·f·y\n7·a·y + 8·c·x + 9·e·y + 1·f·x",
            &mut vars,
        )
        .expect("parse");
        let tree = TreeBuilder::new("R")
            .child("R", "g1")
            .child("R", "g2")
            .child("R", "g3")
            .leaves("g1", ["a", "b"])
            .leaves("g2", ["c", "d"])
            .leaves("g3", ["e", "f"])
            .build(&mut vars)
            .expect("tree");
        assert_eq!(counts(&polys, &Forest::single(tree)), (4, 4));
        // Example 15's two trees, five candidates: the variable-loss
        // buckets already keep its plans out of every scan but the last,
        // and both rules compute six deltas.
        let (polys, forest, _) = example_15();
        assert_eq!(counts(&polys, &forest), (5, 6));
        // Two halves of a year against two groups of plans, six candidates
        // in one bucket: a merge re-scores the other tree's candidates and
        // leaves its own sibling alone — 12 deltas, where re-scoring after
        // every rewrite (the rule before this one) computes 14.
        let (polys, forest) = quarters_and_plan_groups();
        assert_eq!(counts(&polys, &forest), (6, 12));
    }

    #[test]
    fn merged_postings_match_scan() {
        let (polys, _, mut vars) = example_15();
        let postings = build_postings(&WorkingSet::from_polyset(&polys));
        let group: Vec<VarId> = ["b1", "b2", "e", "f1"]
            .iter()
            .map(|l| vars.intern(l))
            .collect();
        let merged = affected_polys(&postings, &group);
        // Oracle: direct scan.
        let mut scan: Vec<usize> = polys
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().any(|(m, _)| m.vars().any(|v| group.contains(&v))))
            .map(|(pi, _)| pi)
            .collect();
        scan.sort_unstable();
        assert_eq!(merged, scan);
        assert!(affected_polys(&postings, &[]).is_empty());
    }
}
