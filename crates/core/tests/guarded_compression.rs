//! Property suite for guarded compression: the **anytime-prefix**
//! invariant.
//!
//! On random poly-sets × random forests × every step cap: **a
//! step-capped run is a prefix of the uninterrupted trace.** A greedy run
//! interrupted after `k` selection steps sits exactly on the `k`-th point
//! of the full run's [`greedy_frontier`] trace, and the two independent
//! greedy engines (incremental working-set vs. the full-rescan
//! [`mod@reference`]) agree bit-for-bit on the interrupted VVS at every cap.
//! An interrupted prefix is a *sound* abstraction: its VVS validates and
//! its sizes are consistent. The layers built on the engine carry the
//! same guard and are held to the same trace: [`sharded_greedy`] (one
//! shard is the engine itself; two shards return a sound, typed prefix)
//! and [`online_compress`] (a full sample is the engine on a compacted
//! copy).
//!
//! Every algorithm takes its guard explicitly, so nothing here depends on
//! `PROVABS_AMBIENT_DEADLINE_MS`: step caps and tokens are checked at
//! every tick, which makes each interruption point exact. (That an
//! unlimited guard changes nothing needs no test any more — there is no
//! unguarded entry point to differ from.)

use proptest::prelude::*;
use provabs_core::greedy::{greedy_frontier, greedy_vvs};
use provabs_core::online::{online_compress, Solver};
use provabs_core::optimal::optimal_vvs;
use provabs_core::reference;
use provabs_core::shard::sharded_greedy;
use provabs_datagen::fixture::{example_forest, example_polys};
use provabs_provenance::guard::{Budget, CancelToken, Completion, Guard, Interrupt};
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use provabs_trees::generate::random_tree;
use std::time::Duration;

/// Number of leaf variables the random instances draw from.
const NUM_LEAVES: u32 = 12;

fn leaf_table() -> (VarTable, Vec<String>) {
    let mut vars = VarTable::new();
    let names: Vec<String> = (0..NUM_LEAVES).map(|i| format!("x{i}")).collect();
    for (i, n) in names.iter().enumerate() {
        let id = vars.intern(n);
        assert_eq!(id, VarId(i as u32), "interning order is dense");
    }
    (vars, names)
}

/// A random poly-set over `x0..x11`, telephony-shaped: each monomial
/// draws at most one factor per tree-leaf half (forest compatibility).
fn polyset_strategy() -> impl Strategy<Value = PolySet<f64>> {
    let factor_a = prop::option::of((0u32..NUM_LEAVES / 2, 1u32..3));
    let factor_b = prop::option::of((NUM_LEAVES / 2..NUM_LEAVES, 1u32..3));
    prop::collection::vec(
        prop::collection::vec((factor_a, factor_b, 1i32..40), 0..10),
        0..7,
    )
    .prop_map(|polys| {
        PolySet::from_vec(
            polys
                .into_iter()
                .map(|terms| {
                    Polynomial::from_terms(terms.into_iter().map(|(fa, fb, c)| {
                        let factors = fa.into_iter().chain(fb);
                        (
                            Monomial::from_factors(factors.map(|(v, e)| (VarId(v), e))),
                            f64::from(c) / 4.0,
                        )
                    }))
                })
                .collect(),
        )
    })
}

fn random_forest(vars: &mut VarTable, names: &[String], seed: u64, two: bool) -> Forest {
    let (lo, hi) = names.split_at(names.len() / 2);
    let mut trees = vec![random_tree("A", lo, seed, vars)];
    if two {
        trees.push(random_tree("B", hi, seed.rotate_left(17) ^ 0xabcd, vars));
    }
    Forest::new(trees).expect("disjoint leaf halves")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The interrupted greedy state is a bit-for-bit prefix of the
    /// uninterrupted run — at every step cap `k`, both engines land on
    /// the same VVS, and its sizes are exactly the `k`-th point of the
    /// full run's frontier trace.
    #[test]
    fn step_capped_greedy_is_a_prefix_of_the_uninterrupted_trace(
        polys in polyset_strategy(),
        seed in 0u64..1_000,
    ) {
        let (mut vars, names) = leaf_table();
        let forest = random_forest(&mut vars, &names, seed, true);
        // The frontier IS the uninterrupted run-to-exhaustion trace:
        // point `k` is the working-set size after `k` selection steps.
        // Target the trace's floor so the bound is attainable and the
        // uncapped run walks the whole trace.
        let source = WorkingSet::from_polyset(&polys);
        let (trace, traced) =
            greedy_frontier(&source, &forest, &Guard::unlimited()).expect("frontier runs");
        prop_assert!(traced.is_complete());
        let bound = trace.last().expect("non-empty trace").0.max(1);
        for cap in 0..trace.len() {
            let guard = Guard::new(Budget::with_steps(cap as u64));
            let (inc_abs, inc_done) =
                greedy_vvs(&source, &forest, bound, &guard).expect("anytime result");
            let (refr, ref_done) =
                reference::greedy_vvs(&polys, &forest, bound, &guard).expect("anytime result");
            let inc = &inc_abs.result;
            prop_assert_eq!(inc_abs.working.size_m(), inc.compressed_size_m);
            // Engines agree bit-for-bit on the prefix.
            prop_assert_eq!(&inc.vvs, &refr.vvs, "cap {}", cap);
            prop_assert_eq!(inc_done, ref_done, "cap {}", cap);
            inc.vvs.validate(&inc.forest).expect("prefix VVS is sound");
            // The bounded run stops at the first trace point meeting the
            // bound (the frontier itself continues to exhaustion through
            // zero-ML merges).
            let first_hit = trace
                .iter()
                .position(|&(ml, _)| ml <= bound)
                .expect("the floor is on the trace");
            match inc_done {
                Completion::Complete => {
                    prop_assert!(
                        first_hit <= cap,
                        "completed in {} steps under cap {}", first_hit, cap
                    );
                    prop_assert_eq!(inc.compressed_size_m, trace[first_hit].0);
                    prop_assert_eq!(inc.compressed_size_v, trace[first_hit].1);
                }
                Completion::Interrupted { reason, steps, size_reached } => {
                    prop_assert_eq!(reason, Interrupt::StepCapExhausted);
                    prop_assert_eq!(steps, cap, "exact interruption point");
                    prop_assert!(cap < first_hit, "would have finished otherwise");
                    let (ml, vl) = trace[steps];
                    prop_assert_eq!(size_reached, ml, "on the trace at step {}", steps);
                    prop_assert_eq!(inc.compressed_size_m, ml);
                    prop_assert_eq!(inc.compressed_size_v, vl);
                }
            }

            // One shard is the engine itself, cap included.
            let (one, one_done) =
                sharded_greedy(&source, &forest, bound, 1, &guard).expect("anytime result");
            prop_assert_eq!(&one.result.vvs, &inc.vvs, "K=1 cap {}", cap);
            prop_assert_eq!(one_done, inc_done, "K=1 cap {}", cap);

            // Two shards: each trace and the merge stop at the cap, and
            // what comes back is a sound, typed prefix (or, for a run the
            // cap did not cut short, the sharded floor above the bound).
            match sharded_greedy(&source, &forest, bound, 2, &guard) {
                Ok((two, two_done)) => {
                    two.result.vvs.validate(&two.result.forest).expect("sharded prefix is sound");
                    prop_assert_eq!(two.working.size_m(), two.result.compressed_size_m);
                    match two_done {
                        Completion::Complete => prop_assert!(two.result.is_adequate_for(bound)),
                        Completion::Interrupted { reason, steps, size_reached } => {
                            prop_assert_eq!(reason, Interrupt::StepCapExhausted);
                            prop_assert!(steps <= cap, "merged {} steps under cap {}", steps, cap);
                            prop_assert_eq!(size_reached, two.result.compressed_size_m);
                        }
                    }
                }
                Err(TreeError::BoundUnattainable { best_possible, .. }) => {
                    prop_assert!(best_possible > bound, "K=2 cap {}", cap);
                }
                Err(e) => panic!("K=2 cap {cap}: unexpected error {e}"),
            }

            // A full sample is the engine on a compacted copy: the VVS
            // chosen under the cap, measured on the full set, is the same
            // trace point, and the interruption is bubbled up unchanged.
            let (online, online_done) =
                online_compress(&source, &forest, bound, 1.0, seed, Solver::Greedy, &guard)
                    .expect("anytime result");
            prop_assert_eq!(&online.full.result.vvs, &inc.vvs, "online cap {}", cap);
            prop_assert_eq!(online_done, inc_done, "online cap {}", cap);
            prop_assert_eq!(online.full.result.compressed_size_m, inc.compressed_size_m);
            prop_assert_eq!(online.full.result.compressed_size_v, inc.compressed_size_v);
        }
    }
}

/// Cancellation is observed before any selection step: a pre-tripped
/// token yields the identity prefix (zero steps), typed `Cancelled`.
#[test]
fn pre_cancelled_guard_returns_the_identity_prefix() {
    let (mut vars, names) = leaf_table();
    let forest = random_forest(&mut vars, &names, 3, true);
    let polys = PolySet::from_vec(vec![Polynomial::from_terms([
        (Monomial::var(VarId(0)), 2.0),
        (Monomial::var(VarId(1)), 3.0),
        (Monomial::var(VarId(6)), 4.0),
    ])]);
    let token = CancelToken::new();
    token.cancel();
    let guard = Guard::unlimited().with_cancel(token);
    let (abs, completion) =
        greedy_vvs(&WorkingSet::from_polyset(&polys), &forest, 1, &guard).expect("anytime");
    assert_eq!(abs.result.compressed_size_m, abs.result.original_size_m);
    let Completion::Interrupted { reason, steps, .. } = completion else {
        panic!("expected an interruption, got {completion:?}");
    };
    assert_eq!(reason, Interrupt::Cancelled);
    assert_eq!(steps, 0, "no selection step ran");
}

/// A deadline that expired before the run started is seen at the first
/// tick, not after a clock-read period: greedy on Example 15 (fewer
/// merges than that period) returns the identity prefix, typed.
#[test]
fn expired_deadline_returns_the_identity_prefix() {
    let mut vars = VarTable::new();
    let polys = example_polys(&mut vars);
    let forest = example_forest(&mut vars);
    let guard = Guard::new(Budget::with_deadline(Duration::ZERO));
    let (abs, completion) =
        greedy_vvs(&WorkingSet::from_polyset(&polys), &forest, 4, &guard).expect("anytime");
    assert_eq!(abs.result.compressed_size_m, abs.result.original_size_m);
    let Completion::Interrupted { reason, steps, .. } = completion else {
        panic!("expected an interruption, got {completion:?}");
    };
    assert_eq!(reason, Interrupt::DeadlineExpired);
    assert_eq!(steps, 0, "no selection step ran");
}

/// The optimal DP has no usable partial state, so an interrupted solve
/// degrades to the identity abstraction — sound, tagged, never an error.
#[test]
fn interrupted_optimal_falls_back_to_the_identity() {
    let (mut vars, names) = leaf_table();
    let forest = random_forest(&mut vars, &names, 5, false);
    let polys = PolySet::from_vec(vec![Polynomial::from_terms([
        (Monomial::var(VarId(0)), 1.0),
        (Monomial::var(VarId(1)), 2.0),
        (Monomial::var(VarId(2)), 3.0),
        (Monomial::var(VarId(3)), 4.0),
    ])]);
    let guard = Guard::new(Budget::with_steps(0));
    let (abs, completion) =
        optimal_vvs(&WorkingSet::from_polyset(&polys), &forest, 1, &guard).expect("anytime");
    let result = abs.result;
    assert!(!completion.is_complete(), "the cap must trip the DP");
    assert_eq!(
        result.compressed_size_m, result.original_size_m,
        "identity fallback leaves the poly-set unchanged"
    );
    result
        .vvs
        .validate(&result.forest)
        .expect("identity VVS is sound");
}
