//! Property suite for guarded compression: the **anytime-prefix**
//! invariant.
//!
//! On random poly-sets × random forests of one to three trees × every
//! step cap: **a step-capped run is a prefix of the uninterrupted
//! trace.** A greedy run interrupted after `k` selection steps sits
//! exactly on the `k`-th point of the full run's [`greedy_frontier`]
//! trace, and the two independent greedy engines (incremental
//! working-set vs. the full-rescan [`mod@reference`]) agree bit-for-bit
//! on the interrupted VVS at every cap.
//! An interrupted prefix is a *sound* abstraction: its VVS validates and
//! its sizes are consistent. The layers built on the engine carry the
//! same guard and are held to the same trace: [`online_compress`] (a
//! full sample is the engine on a compacted copy); the competitor,
//! [`pairwise_summarize`], under the same cap, returns a sound summary
//! within the bound when it completes.
//!
//! Each relation runs on every row of the [`Carrier`] axis. The trace's
//! `|𝒫↓S|_M` is measured, so a run sits exactly on it on every row; where
//! merged terms cancel (`i64`), its `|𝒫↓S|_V` sits *at most* on the
//! trace's, which counts variable loss (ADR 024).
//!
//! Every algorithm takes its guard explicitly: step caps and tokens are
//! checked at every tick, which makes each interruption point exact.
//! (That an unlimited guard changes nothing needs no test any more —
//! there is no unguarded entry point to differ from.)

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use provabs_core::competitor::pairwise_summarize;
use provabs_core::greedy::{greedy_frontier, greedy_vvs};
use provabs_core::online::{online_compress, Solver};
use provabs_core::optimal::optimal_vvs;
use provabs_core::reference;
use provabs_datagen::fixture::{example_forest, example_polys};
use provabs_provenance::coeff::MinF64;
use provabs_provenance::guard::{Budget, CancelToken, Completion, Guard, Interrupt};
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use provabs_testkit::{modelled, random_forest, within_bound, Carrier, Coeffs, Powers, Shape};
use provabs_trees::error::TreeError;
use std::time::Duration;

/// Three leaf pools of six where [`random_forest`] plants its one to
/// three trees, each monomial drawing at most one factor from each pool
/// (forest compatibility), telephony-style.
fn compatible() -> Shape {
    Shape {
        vars: 18,
        pools: 3,
        powers: Powers::Dense(2),
        coeffs: Coeffs::Quarters,
        ..Shape::default()
    }
}

/// The anytime-prefix relations on one instance, for carrier `C`.
fn capped_runs_are_prefixes<C: Carrier>(
    polys: &PolySet<C>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let row = C::NAME;
    let (_, forest) = random_forest(18, 3, 1 + seed as usize % 3, seed);
    // The frontier IS the uninterrupted run-to-exhaustion trace:
    // point `k` is the working-set size after `k` selection steps.
    // Target the trace's floor so the bound is attainable and the
    // uncapped run walks the whole trace.
    let source = WorkingSet::from_polyset(polys);
    let (trace, traced) =
        greedy_frontier(&source, &forest, &Guard::unlimited()).expect("frontier runs");
    prop_assert!(traced.is_complete());
    let bound = trace.last().expect("non-empty trace").0.max(1);
    // The bounded run stops at the first trace point meeting the
    // bound (the frontier itself continues to exhaustion through
    // zero-ML merges).
    let first_hit = trace
        .iter()
        .position(|&(ml, _)| ml <= bound)
        .expect("the floor is on the trace");
    let mut reached = Vec::new();
    for cap in 0..trace.len() {
        let guard = Guard::new(Budget::with_steps(cap as u64));
        let (inc_abs, inc_done) =
            greedy_vvs(&source, &forest, bound, &guard).expect("anytime result");
        let (refr, ref_done) =
            reference::greedy_vvs(polys, &forest, bound, &guard).expect("anytime result");
        let inc = &inc_abs.result;
        prop_assert_eq!(inc_abs.working.size_m(), inc.compressed_size_m, "{}", row);
        // Engines agree bit-for-bit on the prefix.
        prop_assert_eq!(&inc.vvs, &refr.vvs, "{} cap {}", row, cap);
        prop_assert_eq!(inc_done, ref_done, "{} cap {}", row, cap);
        inc.vvs.validate(&inc.forest).expect("prefix VVS is sound");
        match inc_done {
            Completion::Complete => within_bound(first_hit, cap, "steps of a completed run"),
            Completion::Interrupted {
                reason,
                steps,
                size_reached,
            } => {
                prop_assert_eq!(reason, Interrupt::StepCapExhausted);
                prop_assert_eq!(steps, cap, "{}: exact interruption point", row);
                prop_assert!(cap < first_hit, "{}: would have finished otherwise", row);
                prop_assert_eq!(
                    size_reached,
                    inc.compressed_size_m,
                    "{} step {}",
                    row,
                    steps
                );
            }
        }
        reached.push((inc.compressed_size_m, inc.compressed_size_v));

        // A full sample is the engine on a compacted copy: the VVS
        // chosen under the cap, measured on the full set, is the same
        // trace point, and the interruption is bubbled up unchanged.
        let (online, online_done) =
            online_compress(&source, &forest, bound, 1.0, seed, Solver::Greedy, &guard)
                .expect("anytime result");
        prop_assert_eq!(
            &online.full.result.vvs,
            &inc.vvs,
            "{} online cap {}",
            row,
            cap
        );
        prop_assert_eq!(online_done, inc_done, "{} online cap {}", row, cap);
        prop_assert_eq!(
            online.full.result.compressed_size_m,
            inc.compressed_size_m,
            "{}",
            row
        );
        prop_assert_eq!(
            online.full.result.compressed_size_v,
            inc.compressed_size_v,
            "{}",
            row
        );

        // The competitor, under the same cap, returns a sound summary
        // whose sizes are its VVS applied to the hash-map polynomials,
        // and a completed run stays within the bound.
        match pairwise_summarize(&source, &forest, bound, &guard) {
            Ok((summary, _, done)) => {
                let result = &summary.result;
                result
                    .vvs
                    .validate(&result.forest)
                    .expect("competitor VVS is sound");
                let down = result.apply(polys);
                prop_assert_eq!(
                    down.size_m(),
                    result.compressed_size_m,
                    "{} competitor cap {}",
                    row,
                    cap
                );
                prop_assert_eq!(
                    down.size_v(),
                    result.compressed_size_v,
                    "{} competitor cap {}",
                    row,
                    cap
                );
                if done.is_complete() {
                    within_bound(result.compressed_size_m, bound, row);
                }
            }
            Err(TreeError::BoundUnattainable { best_possible, .. }) => {
                prop_assert!(best_possible > bound, "{} competitor cap {}", row, cap);
            }
            Err(e) => panic!("{row} competitor cap {cap}: unexpected error {e}"),
        }
    }
    // Capped `k` steps, a run sits on the trace's `k`-th point (its
    // `|𝒫↓S|_V` at most on it where merged terms cancel), and from the
    // first point meeting the bound on, where the run stopped.
    modelled::<C>(&reached[..=first_hit], &trace, row);
    let m_of = |points: &[(usize, usize)]| points.iter().map(|p| p.0).collect::<Vec<_>>();
    prop_assert_eq!(
        m_of(&reached[..=first_hit]),
        m_of(&trace[..=first_hit]),
        "{}: the measured |M| of each step",
        row
    );
    prop_assert!(
        reached[first_hit..]
            .iter()
            .all(|&p| p == reached[first_hit]),
        "{}",
        row
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The interrupted greedy state is a bit-for-bit prefix of the
    /// uninterrupted run — at every step cap `k`, both engines land on
    /// the same VVS, and its sizes are exactly the `k`-th point of the
    /// full run's frontier trace — on every carrier row.
    #[test]
    fn step_capped_greedy_is_a_prefix_of_the_uninterrupted_trace(
        polys in compatible().strategy(),
        ints in compatible().strategy_in::<i64>(),
        mins in compatible().strategy_in::<MinF64>(),
        seed in 0u64..1_000,
    ) {
        capped_runs_are_prefixes(&polys, seed)?;
        capped_runs_are_prefixes(&ints, seed)?;
        capped_runs_are_prefixes(&mins, seed)?;
    }
}

/// Cancellation is observed before any selection step: a pre-tripped
/// token yields the identity prefix (zero steps), typed `Cancelled`.
#[test]
fn pre_cancelled_guard_returns_the_identity_prefix() {
    let (_, forest) = random_forest(18, 3, 2, 3);
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
    let (_, forest) = random_forest(18, 3, 1, 5);
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
