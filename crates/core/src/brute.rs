//! Brute-force baseline: exhaustive search over every cut.
//!
//! The evaluation's baseline "loops over all possible VVS and selects the
//! optimal one" (§4.3). The number of cuts is exponential (Table 2), so —
//! exactly like the paper, where brute force "was able to complete the
//! computation only when the number of VVS was less than 80,000" — the
//! search refuses instances above a configurable limit with
//! [`TreeError::SearchSpaceTooLarge`].

use crate::loss::TreeLoss;
use crate::problem::AbstractionResult;
use crate::reference::{evaluate_vvs, prepare};
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::guard;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::working::WorkingSet;
use provabs_trees::cut::{enumerate_forest_cuts, Vvs};
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;

/// Default enumeration limit, chosen to match the paper's observed
/// feasibility threshold for the brute-force baseline.
pub const DEFAULT_CUT_LIMIT: u128 = 80_000;

/// A scored range of cuts: the smallest size seen (for error reporting)
/// and the best adequate cut as `(granularity, index)`.
type Partial = (usize, Option<(usize, usize)>);

/// The search space both searches score: the cleaned forest, every cut of
/// it, and the per-node losses when they are additive.
struct Search<'a, C> {
    polys: &'a PolySet<C>,
    cleaned: Forest,
    cuts: Vec<Vvs>,
    additive_loss: Option<Vec<TreeLoss>>,
    total_m: usize,
    total_v: usize,
}

impl<'a, C: Coefficient> Search<'a, C> {
    /// Cleans the forest, settles the bound the input already meets
    /// (`Err(identity)`), checks the limit and enumerates every cut.
    fn open(
        polys: &'a PolySet<C>,
        forest: &Forest,
        bound: usize,
        cut_limit: u128,
    ) -> Result<Result<Self, AbstractionResult>, TreeError> {
        let cleaned = prepare(polys, forest)?;
        let total_m = polys.size_m();
        if bound >= total_m {
            let vvs = Vvs::identity(&cleaned);
            return Ok(Err(evaluate_vvs(polys, &cleaned, vvs)));
        }
        let count = cleaned.count_cuts();
        if count > cut_limit {
            return Err(TreeError::SearchSpaceTooLarge {
                cuts: count,
                limit: cut_limit,
            });
        }
        // A limit past `usize::MAX` still bounds a count that fits.
        let max_cuts = usize::try_from(cut_limit).unwrap_or(usize::MAX);
        let cuts = enumerate_forest_cuts(&cleaned, max_cuts, cut_limit)
            .expect("count checked against limit");

        // Fast path: when no monomial contains variables of two *different*
        // trees, ML and VL are additive over all chosen nodes (compatibility
        // already makes sibling subtrees compress disjoint monomial groups —
        // the same insight Algorithm 1 builds on; disjoint tree footprints
        // extend it across trees). Each cut is then scored in O(|S|) from the
        // precomputed per-node losses instead of materialising `𝒫↓S`.
        // Whenever a monomial touches two trees (e.g. `p1·m1` under the plans
        // + months forest of Example 15), merges interact and cuts must be
        // materialised.
        let interacting = polys.monomials().any(|(_, mono, _)| {
            let mut seen_tree = None;
            for v in mono.vars() {
                if let Some((ti, _)) = cleaned.locate(v) {
                    if seen_tree.is_some_and(|prev| prev != ti) {
                        return true;
                    }
                    seen_tree = Some(ti);
                }
            }
            false
        });
        let additive_loss = (!interacting).then(|| {
            let ws = WorkingSet::from_polyset(polys);
            cleaned
                .trees()
                .iter()
                .map(|t| TreeLoss::build(&ws, t))
                .collect()
        });
        Ok(Ok(Self {
            polys,
            cleaned,
            cuts,
            additive_loss,
            total_m,
            total_v: polys.size_v(),
        }))
    }

    /// `(|𝒫↓S|_M, |𝒫↓S|_V)` of one cut.
    fn score(&self, vvs: &Vvs) -> (usize, usize) {
        match &self.additive_loss {
            Some(losses) => {
                let (mut ml, mut vl) = (0usize, 0usize);
                for (ti, loss) in losses.iter().enumerate() {
                    for &n in vvs.tree_nodes(ti) {
                        ml += loss.ml_of(n);
                        vl += loss.vl_of(n);
                    }
                }
                (self.total_m - ml, self.total_v - vl)
            }
            None => {
                let down = vvs.apply(self.polys, &self.cleaned);
                (down.size_m(), down.size_v())
            }
        }
    }

    /// Scores the cuts at `range`; ties on granularity resolve towards
    /// the earliest enumerated cut.
    fn best_in(&self, range: std::ops::Range<usize>, bound: usize) -> Partial {
        let mut floor = usize::MAX;
        let mut best: Option<(usize, usize)> = None;
        for i in range {
            let (size_m, size_v) = self.score(&self.cuts[i]);
            floor = floor.min(size_m);
            if size_m <= bound && best.is_none_or(|(bv, _)| size_v > bv) {
                best = Some((size_v, i));
            }
        }
        (floor, best)
    }

    /// Reduces the scored ranges deterministically — max granularity, then
    /// smallest index — and measures the winner.
    fn finish(&self, partials: &[Partial], bound: usize) -> Result<AbstractionResult, TreeError> {
        let best = partials
            .iter()
            .filter_map(|&(_, b)| b)
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        match best {
            Some((_, idx)) => Ok(evaluate_vvs(
                self.polys,
                &self.cleaned,
                self.cuts[idx].clone(),
            )),
            None => Err(TreeError::BoundUnattainable {
                bound,
                best_possible: partials.iter().map(|&(f, _)| f).min().unwrap_or(usize::MAX),
            }),
        }
    }
}

/// Exhaustively finds the optimal VVS for `bound` (max granularity among
/// adequate cuts), or reports that no adequate cut exists / the space is
/// too large.
pub fn brute_force_vvs<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
    bound: usize,
    cut_limit: u128,
) -> Result<AbstractionResult, TreeError> {
    let search = match Search::open(polys, forest, bound, cut_limit)? {
        Ok(search) => search,
        Err(identity) => return Ok(identity),
    };
    let all = search.best_in(0..search.cuts.len(), bound);
    search.finish(&[all], bound)
}

/// Parallel brute force: scores the enumerated cuts across `threads`
/// OS threads (plain `std::thread::scope`; the shared state — cleaned
/// forest, polynomials, per-node losses — is read-only). Produces exactly
/// the same result as [`brute_force_vvs`]: ties on granularity resolve
/// towards the earliest enumerated cut in both variants.
pub fn brute_force_vvs_parallel<C: Coefficient>(
    polys: &PolySet<C>,
    forest: &Forest,
    bound: usize,
    cut_limit: u128,
    threads: usize,
) -> Result<AbstractionResult, TreeError> {
    let search = match Search::open(polys, forest, bound, cut_limit)? {
        Ok(search) => search,
        Err(identity) => return Ok(identity),
    };
    let total = search.cuts.len();
    let chunk = total.div_ceil(threads.clamp(1, total.max(1))).max(1);
    // Each worker runs behind the shared panic-isolation boundary (the
    // same helper the scenario executor uses): a panicking chunk yields
    // a typed TreeError::WorkerPanic while sibling chunks still finish.
    let partials: Vec<Result<Partial, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..total)
            .step_by(chunk)
            .map(|start| {
                let search = &search;
                s.spawn(move || {
                    guard::run_isolated_mut(|| {
                        search.best_in(start..(start + chunk).min(total), bound)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(isolated) => isolated,
                // Unreachable in practice (the worker body is fully
                // wrapped), but a join failure is still a panic report.
                Err(payload) => Err(guard::panic_message(payload.as_ref())),
            })
            .collect()
    });
    let partials: Vec<Partial> = partials
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|payload| TreeError::WorkerPanic { payload })?;
    search.finish(&partials, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_vvs;
    use crate::optimal::optimal_vvs;
    use provabs_provenance::guard::Guard;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::var::VarTable;
    use provabs_trees::generate::{months_tree, plans_tree};

    fn example_13() -> (PolySet<f64>, Forest) {
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
        (polys, forest)
    }

    #[test]
    fn brute_force_matches_optimal_on_single_tree() {
        let (polys, forest) = example_13();
        let source = WorkingSet::from_polyset(&polys);
        for bound in 4..=14 {
            let b = brute_force_vvs(&polys, &forest, bound, DEFAULT_CUT_LIMIT);
            let o = optimal_vvs(&source, &forest, bound, &Guard::unlimited());
            match (b, o) {
                (Ok(b), Ok((o, _))) => {
                    assert_eq!(
                        b.compressed_size_v, o.result.compressed_size_v,
                        "bound {bound}"
                    );
                    assert!(b.is_adequate_for(bound));
                }
                (Err(eb), Err(eo)) => assert_eq!(eb, eo, "bound {bound}"),
                (b, o) => panic!("bound {bound}: brute {b:?} vs optimal {o:?}"),
            }
        }
    }

    #[test]
    fn brute_force_beats_or_equals_greedy_on_forest() {
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
        // Example 15's bound: greedy reaches VL 5, the optimum is VL 4.
        let b = brute_force_vvs(&polys, &forest, 4, DEFAULT_CUT_LIMIT).expect("adequate");
        let (g, _) = greedy_vvs(
            &WorkingSet::from_polyset(&polys),
            &forest,
            4,
            &Guard::unlimited(),
        )
        .expect("adequate");
        assert_eq!(b.vl(), 4);
        assert!(g.result.vl() >= b.vl());
    }

    #[test]
    fn additive_multi_tree_fast_path_matches_materialisation() {
        // Two trees over disjoint variable families, and no monomial
        // touches both — the additive fast path applies. Cross-check its
        // result against explicit materialisation of every cut.
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "1·x1·c0 + 2·x2·c0 + 3·x1·c1 + 4·x2·c1\n5·y1·c0 + 6·y2·c0 + 7·y1·c1",
            &mut vars,
        )
        .expect("parse");
        let tx = provabs_trees::builder::TreeBuilder::new("X")
            .leaves("X", ["x1", "x2"])
            .build(&mut vars)
            .expect("tree");
        let ty = provabs_trees::builder::TreeBuilder::new("Y")
            .leaves("Y", ["y1", "y2"])
            .build(&mut vars)
            .expect("tree");
        let forest = Forest::new(vec![tx, ty]).expect("disjoint");
        for bound in 1..=polys.size_m() {
            // Reference: materialise every cut by hand.
            let cuts =
                provabs_trees::cut::enumerate_forest_cuts(&forest, 100, 100).expect("4 cuts");
            let mut best: Option<usize> = None;
            let mut floor = usize::MAX;
            for vvs in cuts {
                let down = vvs.apply(&polys, &forest);
                floor = floor.min(down.size_m());
                if down.size_m() <= bound {
                    best = Some(best.map_or(down.size_v(), |b: usize| b.max(down.size_v())));
                }
            }
            match (brute_force_vvs(&polys, &forest, bound, 100), best) {
                (Ok(r), Some(v)) => {
                    assert_eq!(r.compressed_size_v, v, "bound {bound}");
                    assert!(r.is_adequate_for(bound));
                }
                (Err(TreeError::BoundUnattainable { best_possible, .. }), None) => {
                    assert_eq!(best_possible, floor, "bound {bound}");
                }
                (r, b) => panic!("bound {bound}: {r:?} vs reference {b:?}"),
            }
        }
    }

    #[test]
    fn search_space_limit_is_enforced() {
        let (polys, forest) = example_13();
        let err = brute_force_vvs(&polys, &forest, 9, 3).expect_err("limit 3");
        assert!(matches!(err, TreeError::SearchSpaceTooLarge { .. }));
    }

    #[test]
    fn unattainable_bound_reports_floor() {
        let (polys, forest) = example_13();
        let err = brute_force_vvs(&polys, &forest, 3, DEFAULT_CUT_LIMIT).expect_err("floor 4");
        assert_eq!(
            err,
            TreeError::BoundUnattainable {
                bound: 3,
                best_possible: 4
            }
        );
    }

    #[test]
    fn parallel_matches_serial_for_every_bound_and_thread_count() {
        let (polys, forest) = example_13();
        for bound in 3..=14 {
            let serial = brute_force_vvs(&polys, &forest, bound, DEFAULT_CUT_LIMIT);
            for threads in [1, 2, 4, 16] {
                let parallel =
                    brute_force_vvs_parallel(&polys, &forest, bound, DEFAULT_CUT_LIMIT, threads);
                match (&serial, &parallel) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.compressed_size_v, b.compressed_size_v,
                            "bound {bound}, threads {threads}"
                        );
                        assert_eq!(
                            a.vvs.labels(&a.forest),
                            b.vvs.labels(&b.forest),
                            "deterministic tie-break at bound {bound}, threads {threads}"
                        );
                    }
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb, "bound {bound}"),
                    (a, b) => panic!("bound {bound}: serial {a:?} vs parallel {b:?}"),
                }
            }
        }
    }

    #[test]
    fn limits_past_usize_saturate() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("3·x1·a + 4·x2·a\n5·x1·b + 6·x2·b", &mut vars).expect("parse");
        let forest = provabs_trees::text::parse_forest("X(x1, x2)", &mut vars).expect("forest");
        let expected = brute_force_vvs(&polys, &forest, 2, DEFAULT_CUT_LIMIT).expect("adequate");
        for limit in [1u128 << 64, u128::MAX] {
            for got in [
                brute_force_vvs(&polys, &forest, 2, limit),
                brute_force_vvs_parallel(&polys, &forest, 2, limit, 2),
            ] {
                let got = got.expect("adequate");
                assert_eq!(got.vvs, expected.vvs, "limit {limit}");
                assert_eq!(got.compressed_size_m, expected.compressed_size_m);
            }
        }
    }

    #[test]
    fn parallel_respects_cut_limit() {
        let (polys, forest) = example_13();
        let err = brute_force_vvs_parallel(&polys, &forest, 9, 3, 4).expect_err("limit 3");
        assert!(matches!(err, TreeError::SearchSpaceTooLarge { .. }));
    }
}
