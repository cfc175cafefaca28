//! Integration tests for the NP-hardness reduction (Appendix A):
//! the reduction's answer coincides with Vertex Cover on every small
//! graph, and the closed-form size accounting matches real applications.

use provabs::algo::decision::decide_precise;
use provabs::algo::hardness::{
    claim_18_sizes, claim_23_sizes, decide_precise_flat, flat_abstraction, reduction_answer,
    uniformly_partitioned, Graph,
};
use provabs::provenance::VarTable;
use provabs_testkit::{assume, cases, Rng};

/// Cases each property runs.
const CASES: u64 = 48;

/// A random small graph (3–6 nodes, no self-loops), each possible edge
/// kept at even odds; `None` when no edge is kept.
fn graph(rng: &mut Rng) -> Option<Graph> {
    let n = rng.within(3..=6);
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .filter(|_| rng.chance(2))
        .collect();
    (!edges.is_empty()).then(|| Graph::new(n, edges))
}

/// Lemma 29 (via the Claim 23 closed form): G has a vertex cover of
/// size k ⟺ the reduced instance has a precise abstraction for some
/// B ∈ {2..|V|⁵} and K = (|V|−k)·|V|³+k.
#[test]
fn reduction_equals_vertex_cover() {
    cases(CASES, 801, |rng, _| {
        let g = graph(rng)?;
        let k = rng.within(1..=5);
        assume(k < g.num_nodes())?;
        assert_eq!(
            g.has_vertex_cover_of_size(k),
            reduction_answer(&g, k),
            "graph {:?}",
            g.edges()
        );
        Some(())
    });
}

/// Claim 18 sizes hold for generated uniformly partitioned
/// polynomials.
#[test]
fn claim_18_holds() {
    cases(CASES, 802, |rng, _| {
        let (x, n) = (rng.within(2..=4), rng.within(1..=3));
        let pairs: Vec<(usize, usize)> = (1..x).map(|a| (a, a + 1)).collect();
        let mut vars = VarTable::new();
        let polys = uniformly_partitioned(&mut vars, x, n, &pairs);
        let (m, v) = claim_18_sizes(x, n, pairs.len());
        assert_eq!(polys.size_m(), m);
        assert_eq!(polys.size_v(), v);
    });
}

/// The closed-form flat decision agrees with the generic (exponential)
/// decision procedure on instances small enough to enumerate — a path
/// over the metavariables plus each other pair at even odds — for every
/// question `(B, K)` in range.
#[test]
fn closed_form_matches_generic_decision() {
    cases(CASES, 803, |rng, _| {
        let (x, n) = (rng.within(2..=4), rng.within(1..=2));
        let pairs: Vec<(usize, usize)> = (1..x)
            .flat_map(|a| (a + 1..=x).map(move |b| (a, b)))
            .filter(|&(a, b)| b == a + 1 || rng.chance(2))
            .collect();
        let mut vars = VarTable::new();
        let polys = uniformly_partitioned(&mut vars, x, n, &pairs);
        let forest = flat_abstraction(&mut vars, x, n);
        for (b, kk) in (1..20).flat_map(|b| (1..12).map(move |kk| (b, kk))) {
            let fast = decide_precise_flat(x, n, &pairs, b, kk);
            let slow = decide_precise(&polys, &forest, b, kk, 1_000_000).expect("small");
            assert_eq!(fast, slow, "x={x} n={n} {pairs:?} B={b} K={kk}");
        }
    });
}

/// The paper's own example instance (Examples 17/19/24) passes through
/// the generic decision procedure.
#[test]
fn example_24_through_generic_decision() {
    let pairs = vec![(1, 2), (1, 3), (2, 3), (2, 4)];
    let mut vars = VarTable::new();
    let polys = uniformly_partitioned(&mut vars, 4, 3, &pairs);
    let forest = flat_abstraction(&mut vars, 4, 3);
    // Y = {x(1), x(3)} realises (16, 8).
    assert!(decide_precise(&polys, &forest, 16, 8, 100_000).expect("small"));
    // No Y realises (16, 9).
    assert!(!decide_precise(&polys, &forest, 16, 9, 100_000).expect("small"));
    let in_y = [false, true, false, true, false];
    assert_eq!(claim_23_sizes(4, 3, &pairs, &in_y), (16, 8));
}

/// Deterministic spot checks on classic graphs.
#[test]
fn classic_graphs() {
    // K4: min cover 3; star: min cover 1; path of 5: min cover 2.
    let k4 = Graph::new(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    assert_eq!(k4.min_vertex_cover_size(), 3);
    assert!(!reduction_answer(&k4, 2));
    assert!(reduction_answer(&k4, 3));

    let star = Graph::new(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
    assert_eq!(star.min_vertex_cover_size(), 1);
    assert!(reduction_answer(&star, 1));

    let path = Graph::new(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
    assert_eq!(path.min_vertex_cover_size(), 2);
    assert!(!reduction_answer(&path, 1));
    assert!(reduction_answer(&path, 2));
}
