//! Property suite: the incremental greedy engine is **bit-for-bit**
//! identical to the reference full-rescan engine.
//!
//! Identity here means behavioural identity of Algorithm 2: the same
//! chosen VVS (same nodes, hence same labels), the same
//! `greedy_frontier` step trace, the same tie-breaks, and the same
//! `BoundUnattainable` floors — on random poly-sets paired with random
//! forests of one to three trees, across every bound from 1 to the
//! identity size. The engines share no representation: the reference
//! (`provabs_core::reference`) cleans, rewrites and measures cloned
//! hash-map polynomials, the incremental one an interned working set with
//! delta-maintained candidate scores, so agreement is evidence the
//! working-set rewrite and the delta maintenance are sound, not a
//! tautology.
//!
//! Every relation runs on each row of the [`Carrier`] axis: `f64`, `i64`
//! (whose merged terms can cancel, so a zero sum must be dropped the same
//! way on both sides) and `MinF64` (whose merges keep the minimum).

use provabs_core::greedy::{greedy_frontier, greedy_vvs};
use provabs_core::reference;
use provabs_provenance::coeff::MinF64;
use provabs_provenance::guard::Guard;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use provabs_testkit::{carry, cases, random_forest, Carrier, Coeffs, Powers, Shape};
use provabs_trees::builder::TreeBuilder;
use provabs_trees::forest::Forest;

/// Three leaf pools of six, `x0..x5`, `x6..x11` and `x12..x17`, where
/// [`random_forest`] plants its one to three trees. Each monomial draws
/// at most one factor from each pool (forest compatibility), with
/// exponents 1..=2 and, in the `f64` row, positive coefficients, keeping
/// exact cancellation out of play exactly as in the paper's workloads
/// (the `i64` row brings it back).
fn compatible() -> Shape {
    Shape {
        vars: 18,
        pools: 3,
        powers: Powers::Dense(2),
        coeffs: Coeffs::Quarters,
        ..Shape::default()
    }
}

/// Asserts both engines produce identical outcomes for one instance and
/// bound: the same VVS and the same sizes (arena ids, dead entries
/// included, are the engines' own business).
fn assert_engines_agree<C: Carrier>(polys: &PolySet<C>, forest: &Forest, bound: usize) {
    let row = C::NAME;
    let guard = Guard::unlimited();
    let inc = greedy_vvs(&WorkingSet::from_polyset(polys), forest, bound, &guard);
    let refr = reference::greedy_vvs(polys, forest, bound, &guard);
    match (inc, refr) {
        (Ok((abs, inc_done)), Ok((b, ref_done))) => {
            assert!(inc_done.is_complete() && ref_done.is_complete());
            assert_eq!(abs.working.size_m(), abs.result.compressed_size_m, "{row}");
            assert_eq!(abs.working.size_v(), abs.result.compressed_size_v, "{row}");
            let a = abs.result;
            assert_eq!(a.vvs, b.vvs, "{row}: VVS at bound {bound}");
            assert_eq!(
                a.compressed_size_m, b.compressed_size_m,
                "{row}: bound {bound}"
            );
            assert_eq!(
                a.compressed_size_v, b.compressed_size_v,
                "{row}: bound {bound}"
            );
            assert_eq!(a.original_size_m, b.original_size_m, "{row}");
            assert_eq!(a.original_size_v, b.original_size_v, "{row}");
            a.vvs.validate(&a.forest).expect("valid VVS");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{row}: errors at bound {bound}"),
        (a, b) => panic!("{row}: engines disagree at bound {bound}: {a:?} vs {b:?}"),
    }
}

/// Both engines' exhaustion traces are the same.
fn assert_frontiers_agree<C: Carrier>(polys: &PolySet<C>, forest: &Forest) {
    let guard = Guard::unlimited();
    assert_eq!(
        greedy_frontier(&WorkingSet::from_polyset(polys), forest, &guard).expect("frontier"),
        reference::greedy_frontier(polys, forest, &guard).expect("frontier"),
        "{}",
        C::NAME
    );
}

/// Every bound from 1 to the identity size, and the trace.
fn multi_tree<C: Carrier>(polys: &PolySet<C>, forest: &Forest) {
    for bound in 1..=polys.size_m().max(1) {
        assert_engines_agree(polys, forest, bound);
    }
    assert_frontiers_agree(polys, forest);
}

/// A sparse set of bounds plus the extremes, and the trace.
fn single_tree<C: Carrier>(polys: &PolySet<C>, forest: &Forest) {
    let total = polys.size_m();
    for bound in [1, 2, total / 2, total.saturating_sub(1), total, total + 3] {
        if bound >= 1 {
            assert_engines_agree(polys, forest, bound);
        }
    }
    assert_frontiers_agree(polys, forest);
}

/// Cases each property runs.
const CASES: u64 = 48;

/// The tentpole invariant on forests of two and three trees:
/// identical VVS (or identical `BoundUnattainable` floor) for every
/// bound, and an identical exhaustion trace, on every carrier.
#[test]
fn engines_agree_on_multi_tree_forests() {
    cases(CASES, 601, |rng, _| {
        let polys = compatible().draw(rng);
        let ints = compatible().draw_in::<i64>(rng);
        let mins = compatible().draw_in::<MinF64>(rng);
        let seed = rng.below(1_000);
        let (_, forest) = random_forest(18, 3, 2 + seed as usize % 2, seed);
        multi_tree(&polys, &forest);
        multi_tree(&ints, &forest);
        multi_tree(&mins, &forest);
    });
}

/// Single-tree instances (the regime where the greedy competes with
/// the optimal DP) agree too, including the step trace.
#[test]
fn engines_agree_on_single_trees() {
    cases(CASES, 602, |rng, _| {
        let polys = compatible().draw(rng);
        let ints = compatible().draw_in::<i64>(rng);
        let mins = compatible().draw_in::<MinF64>(rng);
        let (_, forest) = random_forest(18, 3, 1, rng.below(1_000));
        single_tree(&polys, &forest);
        single_tree(&ints, &forest);
        single_tree(&mins, &forest);
    });
}

/// Unattainable bounds report the same floor from both engines, on
/// one to three trees: the bound-1 run exhausts every candidate, so
/// the floors expose the full trace's end state.
#[test]
fn unattainable_floors_agree() {
    cases(CASES, 603, |rng, _| {
        let polys = compatible().draw(rng);
        let ints = compatible().draw_in::<i64>(rng);
        let mins = compatible().draw_in::<MinF64>(rng);
        let seed = rng.below(1_000);
        let (_, forest) = random_forest(18, 3, 1 + seed as usize % 3, seed);
        assert_engines_agree(&polys, &forest, 1);
        assert_engines_agree(&ints, &forest, 1);
        assert_engines_agree(&mins, &forest, 1);
    });
}

/// Degenerate fixtures outside the random sweep.
#[test]
fn empty_and_trivial_instances_agree() {
    let (_, forest) = random_forest(18, 3, 3, 7);
    // Empty poly-set: cleaning drops every tree; both engines answer with
    // the same unattainable floor.
    let empty: PolySet<f64> = PolySet::new();
    assert_engines_agree(&empty, &forest, 1);
    let source = WorkingSet::from_polyset(&empty);
    let guard = Guard::unlimited();
    let (r, _) = greedy_vvs(&source, &forest, 1, &guard).expect("size 0 is already ≤ 1");
    assert_eq!(r.result.compressed_size_m, 0);
    assert!(r.result.vvs.is_empty(), "cleaning dropped every tree");
    // …and the frontier is the lone identity point.
    assert_eq!(
        greedy_frontier(&source, &forest, &guard).expect("runs").0,
        vec![(0, 0)]
    );
    // A poly-set touching a single leaf: the cleaned forest is empty
    // (single-node trees admit no compression).
    let single = PolySet::from_vec(vec![Polynomial::from_terms([(
        Monomial::var(VarId(0)),
        1.0,
    )])]);
    assert_engines_agree(&single, &forest, 1);
    assert_engines_agree(&carry::<i64>(&single), &forest, 1);
    assert_engines_agree(&carry::<MinF64>(&single), &forest, 1);
}

/// The greedy stops on the loss its merges *measured*:
/// `1·a − 1·b + 1·c + 1·d` under `R(G1(a, b), G2(c, d))` at bound 2.
/// Both groups score one merged monomial and `G1` wins the label tie,
/// but its terms cancel, so the merge removes two terms and
/// `|𝒫↓S|_M = 2` already meets the bound: the run keeps `c` and `d`
/// apart instead of also merging `G2`. Both engines agree, and the
/// trace's M coordinate is the measured size at every step.
#[test]
fn a_cancelling_merge_stops_the_run_on_the_measured_loss() {
    let mut vars = VarTable::new();
    let [a, b, c, d] = ["a", "b", "c", "d"].map(|name| vars.intern(name));
    let polys: PolySet<i64> = PolySet::from_vec(vec![Polynomial::from_terms([
        (Monomial::var(a), 1),
        (Monomial::var(b), -1),
        (Monomial::var(c), 1),
        (Monomial::var(d), 1),
    ])]);
    let tree = TreeBuilder::new("R")
        .child("R", "G1")
        .child("R", "G2")
        .leaves("G1", ["a", "b"])
        .leaves("G2", ["c", "d"])
        .build(&mut vars)
        .expect("tree");
    let forest = Forest::single(tree);
    let source = WorkingSet::from_polyset(&polys);
    let (abs, done) = greedy_vvs(&source, &forest, 2, &Guard::unlimited()).expect("attainable");
    assert!(done.is_complete());
    assert_eq!(abs.result.compressed_size_m, 2, "one merge, not two");
    assert_eq!(abs.result.vvs.labels(&abs.result.forest), ["G1", "c", "d"]);
    assert_engines_agree(&polys, &forest, 2);
    let (trace, _) = greedy_frontier(&source, &forest, &Guard::unlimited()).expect("frontier");
    let sizes: Vec<usize> = trace.iter().map(|&(m, _)| m).collect();
    assert_eq!(sizes, [4, 2, 1, 1], "measured |𝒫↓S|_M after each step");
    assert_frontiers_agree(&polys, &forest);
}
