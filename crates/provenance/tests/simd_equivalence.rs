//! Property suite: every evaluation kernel — the scalar columnar sweep,
//! the portable lane kernel, the AVX2 kernel (where this machine has
//! it), and the auto dispatcher — agrees **bit for bit** with
//! [`CompiledPolySet::eval_one`] on random poly-sets × random valuation
//! batches.
//!
//! Bit-for-bit (not merely approximate) equality holds by construction:
//! lane batching evaluates each scenario's monomials in exactly the
//! scalar order (lanes are independent accumulators, so nothing is
//! reordered), the kernels use plain IEEE multiplies and adds (no FMA),
//! and every engine raises variables through the one shared multiply
//! tree of [`pow_f64`](provabs_provenance::coeff::pow_f64). The
//! documented 1e-12 relative tolerance of the pipeline applies only
//! *across currencies* (frozen-arena vs hash-map monomial order) — the
//! kernels never need it, and this suite pins that down.
//!
//! Deliberate edge coverage: empty poly-sets, zero-variable (constant)
//! monomials, every step of the pass cascade (wide `LANES` passes, then
//! four-wide passes, then the scalar sweep — [`CASCADE_LENGTHS`] crosses
//! each boundary), negative and zero coefficients, exponents through the
//! unrolled 1/2/3 fast path and into the exponentiation-by-squaring range.
//!
//! Each kernel body is compiled sixteen times — `u16` or `u32` factor
//! indices, one degree for the whole set or a prefix end per monomial,
//! with or without the power columns, sixteen or four lanes wide — and
//! every instantiation is pinned here: powers on most factors (the
//! default generator), on one in ten ([`sparse_powers_strategy`]), on
//! none (the generated workloads, two and four factors a monomial), a set
//! over 70 000 variables for the wide index, and
//! [`both_layouts_match_the_hash_map_evaluator_on_every_kernel`] for every
//! combination, degrees 0 to 5, across every cascade boundary.

use proptest::prelude::*;
use provabs_datagen::workload::{Workload, WorkloadConfig};
use provabs_provenance::compiled::CompiledPolySet;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::simd::{avx2_available, Kernel, LANES};
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::VarId;
use provabs_provenance::working::WorkingSet;

/// Every kernel request worth pinning: the forced kernels plus the auto
/// dispatcher. `Avx2` is exercised as the real AVX2 path where the CPU
/// has it and as its documented demotion to `Generic` elsewhere — both
/// must match the scalar engine either way.
const KERNELS: [Kernel; 4] = [Kernel::Scalar, Kernel::Generic, Kernel::Avx2, Kernel::Auto];

/// Batch lengths that cross every boundary of the pass cascade: scalar
/// only and the first narrow pass (0–5), the first wide pass (15–17), a
/// wide pass plus a narrow one (19–21) and two wide passes plus a narrow
/// one and a scalar tail (35–37).
const CASCADE_LENGTHS: [usize; 15] = [0, 1, 2, 3, 4, 5, 15, 16, 17, 19, 20, 21, 35, 36, 37];

/// A random poly-set over variables v0..v10: up to 6 polynomials of up
/// to 5 monomials, each with up to 3 factors whose exponents reach past
/// the unrolled 1/2/3 specialisation into exponentiation-by-squaring
/// (1..=6). Coefficients are small sixteenths spanning negative, zero
/// and positive; zero-factor monomials (pure constants) are common.
fn polyset_strategy() -> impl Strategy<Value = PolySet<f64>> {
    prop::collection::vec(
        prop::collection::vec(
            (prop::collection::vec((0u32..10, 1u32..7), 0..3), -80i32..80),
            0..5,
        ),
        0..6,
    )
    .prop_map(|polys| {
        PolySet::from_vec(
            polys
                .into_iter()
                .map(|terms| {
                    Polynomial::from_terms(terms.into_iter().map(|(factors, c)| {
                        (
                            Monomial::from_factors(factors.into_iter().map(|(v, e)| (VarId(v), e))),
                            f64::from(c) / 16.0,
                        )
                    }))
                })
                .collect(),
        )
    })
}

/// [`polyset_strategy`] with the powers provenance really has: nine
/// factors in ten are `^1`, the tenth is squared, cubed or raised to 7
/// (past the unrolled fast path), so the power columns are a short list
/// of exceptions with long gaps — often empty, sometimes one entry.
fn sparse_powers_strategy() -> impl Strategy<Value = PolySet<f64>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                prop::collection::vec((0u32..10, 0u32..30), 0..4),
                -80i32..80,
            ),
            0..8,
        ),
        0..6,
    )
    .prop_map(|polys| {
        PolySet::from_vec(
            polys
                .into_iter()
                .map(|terms| {
                    Polynomial::from_terms(terms.into_iter().map(|(factors, c)| {
                        let factors = factors.into_iter().map(|(v, draw)| {
                            (VarId(v), [2, 3, 7].get(draw as usize).copied().unwrap_or(1))
                        });
                        (Monomial::from_factors(factors), f64::from(c) / 16.0)
                    }))
                })
                .collect(),
        )
    })
}

/// A random scenario batch of `0..max` valuations: a handful of
/// variables get factors in roughly [-2, 2] (sixteenths, exactly
/// representable, zero included) over a neutral default. Lengths sweep
/// across full-lane and ragged block shapes.
fn batch_strategy(max_scenarios: usize) -> impl Strategy<Value = Vec<Valuation<f64>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..10, -32i32..32), 0..8),
        0..max_scenarios,
    )
    .prop_map(|scenarios| {
        scenarios
            .into_iter()
            .map(|assignments| {
                let mut val = Valuation::neutral();
                for (v, f) in assignments {
                    val.assign(VarId(v), f64::from(f) / 16.0);
                }
                val
            })
            .collect()
    })
}

/// Asserts a kernel's batch matches the per-scenario `eval_one`
/// reference down to the last mantissa bit.
fn assert_matches_eval_one(compiled: &CompiledPolySet<f64>, batch: &[Valuation<f64>]) {
    let reference: Vec<Vec<f64>> = batch.iter().map(|v| compiled.eval_one(v)).collect();
    assert_prefixes_match(compiled, batch, &reference, &KERNELS, &[batch.len()], "");
}

/// Asserts that the two lane kernels answer `reference` (one row per
/// scenario of `batch`) bit for bit on each [`CASCADE_LENGTHS`] prefix of
/// `batch`, and the other two kernels on the whole batch (the scalar
/// sweep has no passes, and `Auto` is one of the two lane kernels).
fn assert_cascade_matches(
    compiled: &CompiledPolySet<f64>,
    batch: &[Valuation<f64>],
    reference: &[Vec<f64>],
    context: &str,
) {
    let lengths: Vec<usize> = CASCADE_LENGTHS
        .into_iter()
        .filter(|&n| n <= batch.len())
        .collect();
    let lanes = [Kernel::Generic, Kernel::Avx2];
    assert_prefixes_match(compiled, batch, reference, &lanes, &lengths, context);
    let others = [Kernel::Scalar, Kernel::Auto];
    assert_prefixes_match(compiled, batch, reference, &others, &[batch.len()], context);
}

/// Asserts that each of `kernels`, on each `lengths` prefix of `batch`,
/// answers `reference` (one row per scenario of `batch`) bit for bit.
fn assert_prefixes_match(
    compiled: &CompiledPolySet<f64>,
    batch: &[Valuation<f64>],
    reference: &[Vec<f64>],
    kernels: &[Kernel],
    lengths: &[usize],
    context: &str,
) {
    for &kernel in kernels {
        for &n in lengths {
            let got = compiled.eval_block(&batch[..n], kernel);
            assert_eq!(n, got.len(), "{context}{kernel}: scenario count");
            for (s, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(r.len(), g.len(), "{context}{kernel}: row {s} of {n} length");
                for (p, (a, b)) in r.iter().zip(g).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{context}{kernel}: scenario {s} of {n}, polynomial {p}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole invariant: every kernel × every batch shape agrees
    /// with `eval_one` bit for bit.
    #[test]
    fn every_kernel_matches_eval_one(
        polys in polyset_strategy(),
        batch in batch_strategy(3 * LANES + 2),
    ) {
        let compiled = CompiledPolySet::compile(&polys);
        assert_matches_eval_one(&compiled, &batch);
    }

    /// The same with sparse powers, frozen from a working set as well as
    /// compiled — and every batch length from empty through two ragged
    /// blocks.
    #[test]
    fn sparse_powers_match_eval_one(
        polys in sparse_powers_strategy(),
        batch in batch_strategy(2 * LANES + 3),
    ) {
        assert_matches_eval_one(&CompiledPolySet::compile(&polys), &batch);
        assert_matches_eval_one(&WorkingSet::from_polyset(&polys).freeze(), &batch);
    }

    /// Ragged last blocks: batch lengths from one wide pass through two
    /// and every remainder in between are evaluated correctly — full
    /// blocks on the wide passes, then the narrow ones, the tail on the
    /// scalar sweep.
    #[test]
    fn ragged_last_block_shapes(
        polys in polyset_strategy(),
        val in batch_strategy(2),
        extra in 0usize..(2 * LANES),
    ) {
        prop_assume!(!val.is_empty());
        let compiled = CompiledPolySet::compile(&polys);
        // LANES+extra copies of one valuation: remainders sweep 0..LANES.
        let batch: Vec<Valuation<f64>> =
            std::iter::repeat_with(|| val[0].clone()).take(LANES + extra).collect();
        assert_matches_eval_one(&compiled, &batch);
    }

    /// The empty poly-set evaluates every scenario to an empty row on
    /// every kernel; the empty batch evaluates to no rows at all.
    #[test]
    fn empty_polyset_and_empty_batch(batch in batch_strategy(LANES + 1)) {
        let compiled = CompiledPolySet::compile(&PolySet::<f64>::new());
        for kernel in KERNELS {
            let rows = compiled.eval_block(&batch, kernel);
            prop_assert_eq!(rows.len(), batch.len());
            prop_assert!(rows.iter().all(Vec::is_empty));
            prop_assert!(compiled.eval_block(&[], kernel).is_empty());
        }
    }

    /// Zero-variable (constant) monomials and zero coefficients: a
    /// poly-set of pure constants must evaluate to exactly those
    /// constants in every lane regardless of the valuations.
    #[test]
    fn constant_monomials_pass_through(
        consts in prop::collection::vec(-64i32..64, 1..6),
        batch in batch_strategy(2 * LANES + 1),
    ) {
        prop_assume!(!batch.is_empty());
        let polys = PolySet::from_vec(
            consts
                .iter()
                .map(|&c| {
                    Polynomial::from_terms([(Monomial::one(), f64::from(c) / 16.0)])
                })
                .collect(),
        );
        let compiled = CompiledPolySet::compile(&polys);
        assert_matches_eval_one(&compiled, &batch);
        for kernel in KERNELS {
            for row in compiled.eval_block(&batch, kernel) {
                for (got, &c) in row.iter().zip(&consts) {
                    // A zero coefficient vanishes from the polynomial, so
                    // its row value is an exact 0.0; everything else is
                    // the exact constant.
                    prop_assert_eq!(got.to_bits(), (f64::from(c) / 16.0).to_bits());
                }
            }
        }
    }

    /// High exponents (past the unrolled fast path) on negative bases:
    /// the exponentiation-by-squaring tree is shared by every kernel, so
    /// signs and bits agree everywhere.
    #[test]
    fn squaring_range_exponents_agree(
        exp in 4u32..12,
        base in -48i32..48,
        scenarios in 1usize..(2 * LANES + 2),
    ) {
        let polys = PolySet::from_vec(vec![Polynomial::from_terms([(
            Monomial::from_factors([(VarId(0), exp)]),
            1.0,
        )])]);
        let compiled = CompiledPolySet::compile(&polys);
        let batch: Vec<Valuation<f64>> = (0..scenarios)
            .map(|_| Valuation::neutral().set(VarId(0), f64::from(base) / 16.0))
            .collect();
        assert_matches_eval_one(&compiled, &batch);
    }
}

/// The dispatcher's promise that makes forcing meaningful: resolution is
/// deterministic within a process, `Avx2` really is the AVX2 engine
/// exactly when the CPU supports it, and a forced-available kernel is
/// what auto dispatch would pick on the fast path.
#[test]
fn forced_kernels_resolve_as_documented() {
    assert_eq!(Kernel::Scalar.resolve(), Kernel::Scalar);
    assert_eq!(Kernel::Generic.resolve(), Kernel::Generic);
    assert_eq!(Kernel::Auto.resolve(), Kernel::Auto.resolve());
    assert!(Kernel::Auto.resolve() != Kernel::Auto);
    if !avx2_available() {
        assert_eq!(Kernel::Avx2.resolve(), Kernel::Generic);
        assert_eq!(Kernel::Auto.resolve(), Kernel::Generic);
    } else {
        assert_eq!(Kernel::Avx2.resolve(), Kernel::Auto.resolve());
    }
}

/// xorshift64* — the wide and workload batteries draw their valuations
/// without a strategy (a 70 000-variable set is not for shrinking).
fn draws(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut x = seed;
    move |n| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// The wide index: over 70 000 variables a factor index is a `u32`, and
/// every kernel reads it as one — bit for bit what the hash-map
/// evaluator computes, late variables (local index ≥ 65 536) included.
#[test]
fn wide_indices_match_the_hash_map_evaluator_on_every_kernel() {
    const VARS: u32 = 70_000;
    let mut below = draws(0x70_000);
    // Two monomials a polynomial, so hash-map order cannot reorder a sum.
    let polys = PolySet::from_vec(
        (0..VARS)
            .step_by(2)
            .map(|v| {
                Polynomial::from_terms((v..v + 2).map(|v| {
                    let partner = VarId(below(u64::from(VARS)) as u32);
                    let exp = 1 + u32::from(below(10) == 0);
                    (
                        Monomial::from_factors([(VarId(v), exp), (partner, 1)]),
                        // An odd number of sixteenths: either sign, never 0.
                        (2 * below(32) + 1) as f64 / 16.0 - 2.0,
                    )
                }))
            })
            .collect(),
    );
    let compiled = CompiledPolySet::compile(&polys);
    assert_eq!(compiled.num_vars(), VARS as usize);
    assert_eq!(compiled.view().factor_index_bytes(), 4);
    let batch: Vec<Valuation<f64>> = (0..LANES + 3)
        .map(|_| {
            let mut val = Valuation::neutral().set(VarId(VARS - 1), 2.5);
            for _ in 0..3_000 {
                val.assign(
                    VarId(below(u64::from(VARS)) as u32),
                    below(33) as f64 / 8.0 - 2.0,
                );
            }
            val
        })
        .collect();
    for kernel in KERNELS {
        for (val, row) in batch.iter().zip(compiled.eval_block(&batch, kernel)) {
            for (a, b) in val.eval_set(&polys).iter().zip(&row) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel}: {a} vs {b}");
            }
        }
    }
}

/// Generated workloads at their real shapes: the supply-chain (BOM)
/// roll-up's monomials are four factors wide, telephony's two. Neither
/// has a single power — no workload does (ADR 013), which is why the
/// kernels have an instantiation that never looks for one; powers are the
/// generators' business above. As the session would freeze them, every
/// kernel, every tail length.
#[test]
fn workload_provenance_matches_eval_one_on_every_kernel() {
    for workload in [Workload::SupplyChain, Workload::Telephony] {
        let data = workload.generate(&WorkloadConfig {
            scale: 0.05,
            param_modulus: 16,
            seed: 11,
        });
        let frozen = WorkingSet::from_polyset(&data.polys).freeze();
        let ids: Vec<VarId> = data.vars.iter().map(|(id, _)| id).collect();
        let mut below = draws(0xB0_0000 + ids.len() as u64);
        let batch: Vec<Valuation<f64>> = (0..CASCADE_LENGTHS[14])
            .map(|_| {
                let mut val = Valuation::neutral();
                for &id in &ids {
                    if below(3) == 0 {
                        val.assign(id, below(41) as f64 / 16.0);
                    }
                }
                val
            })
            .collect();
        let reference: Vec<Vec<f64>> = batch.iter().map(|v| frozen.eval_one(v)).collect();
        let context = format!("{}: ", workload.name());
        assert_cascade_matches(&frozen, &batch, &reference, &context);
    }
}

/// `polys` polynomials of up to three monomials over variables
/// `0..vars`, taken as consecutive windows so that every variable
/// occurs: each monomial `degree` distinct variables — one more in the
/// very last monomial when `mixed` — with, when `powers`, one factor in
/// seven squared or raised to 5.
fn layout_fixture(
    degree: u32,
    vars: u32,
    mixed: bool,
    powers: bool,
    below: &mut impl FnMut(u64) -> u64,
) -> PolySet<f64> {
    let per_poly = if degree == 0 { 1 } else { 3 };
    let monos = (vars / degree.max(1)).max(4);
    let mut next = 0u32;
    let mut factors_seen = 0u32;
    let mut monomial = |arity: u32, below: &mut dyn FnMut(u64) -> u64| {
        let factors: Vec<(VarId, u32)> = (0..arity)
            .map(|i| {
                factors_seen += 1;
                let exp = match (powers, factors_seen % 7) {
                    (true, 0) => 2,
                    (true, 3) => 5,
                    _ => 1,
                };
                (VarId((next + i) % vars), exp)
            })
            .collect();
        next = (next + arity) % vars;
        let coeff = (2 * below(32) + 1) as f64 / 16.0 - 2.0;
        (Monomial::from_factors(factors), coeff)
    };
    let mut polys: Vec<Polynomial<f64>> = Vec::new();
    for _ in 0..monos.div_ceil(per_poly) {
        let terms: Vec<_> = (0..per_poly).map(|_| monomial(degree, below)).collect();
        polys.push(Polynomial::from_terms(terms));
    }
    if mixed {
        polys.push(Polynomial::from_terms([monomial(degree + 1, below)]));
    }
    PolySet::from_vec(polys)
}

/// Degree elision is one more instantiation axis of every kernel: over
/// sets whose monomials all have `d ∈ {0, 1, 2, 3, 5}` factors (stored as
/// one degree) and over the same sets with one monomial of another
/// degree (stored with an end per monomial), narrow and wide, with and
/// without powers, compiled and frozen, every kernel answers bit for bit
/// what the hash-map evaluator does — at every [`CASCADE_LENGTHS`] batch
/// length (up to 21 on a wide-index set), so both pass widths run every
/// instantiation.
#[test]
fn both_layouts_match_the_hash_map_evaluator_on_every_kernel() {
    let mut below = draws(0xDE6_2EE);
    let combinations = [(false, false), (false, true), (true, false), (true, true)];
    for degree in [0u32, 1, 2, 3, 5] {
        for (mixed, powers) in combinations {
            assert_layout_agrees(degree, 40, mixed, powers, &mut below);
        }
    }
    // A wide set is slow to build in debug, so each is built once: every
    // degree but 0 (whose sets have no variable) in one combination.
    for (degree, (mixed, powers)) in [1, 2, 3, 5].into_iter().zip(combinations) {
        assert_layout_agrees(degree, 70_000, mixed, powers, &mut below);
    }
}

fn assert_layout_agrees(
    degree: u32,
    vars: u32,
    mixed: bool,
    powers: bool,
    below: &mut impl FnMut(u64) -> u64,
) {
    let context = format!("degree {degree}, {vars} variables, mixed {mixed}, powers {powers}");
    let polys = layout_fixture(degree, vars, mixed, powers, below);
    let compiled = CompiledPolySet::compile(&polys);
    let frozen = WorkingSet::from_polyset(&polys).freeze();
    let width = if vars > 65_536 { 4 } else { 2 };
    for set in [&compiled, &frozen] {
        let view = set.view();
        assert_eq!(
            view.uniform_degree(),
            (!mixed).then_some(degree as usize),
            "{context}"
        );
        assert_eq!(view.factor_index_bytes(), width, "{context}");
    }
    let used = vars.min(compiled.num_vars() as u32).max(1);
    // A wide set is slow to evaluate in debug builds: its batch stops
    // after the third boundary (one wide pass, one narrow, one scalar).
    let scenarios = if width == 4 { 21 } else { CASCADE_LENGTHS[14] };
    let batch: Vec<Valuation<f64>> = (0..scenarios)
        .map(|_| {
            let mut val = Valuation::neutral();
            for _ in 0..(used / 3).clamp(1, 2_000) {
                val.assign(
                    VarId(below(u64::from(used)) as u32),
                    below(33) as f64 / 8.0 - 2.0,
                );
            }
            val
        })
        .collect();
    let context = format!("{context}, ");
    let reference: Vec<Vec<f64>> = batch.iter().map(|val| val.eval_set(&polys)).collect();
    assert_cascade_matches(&compiled, &batch, &reference, &context);
    // The frozen set sums in id order, which the hash map does not: it is
    // held to its own scalar sweep, on the whole batch.
    assert_matches_eval_one(&frozen, &batch);
}
