//! Property suite: the serial hash-map reference, the compiled columnar
//! evaluator, and the executor on every worker count and kernel agree
//! **bit for bit** on random poly-sets and scenario batches.
//!
//! Bit-for-bit (not merely approximate) equality holds because the
//! compiled arena preserves the hash-map's monomial iteration order and
//! factor order, so every floating-point operation happens in the same
//! sequence. This is what lets the executor transparently replace the
//! serial loop everywhere without perturbing golden values.

use proptest::prelude::*;
use provabs_provenance::compiled::CompiledPolySet;
use provabs_provenance::guard::Guard;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::VarId;
use provabs_scenario::apply::apply_batch;
use provabs_scenario::executor::{eval, eval_reference, EvalOptions, Kernel};

/// A random poly-set over variables v0..v12: up to 6 polynomials of up
/// to 5 monomials, each with up to 3 factors of exponent 1..=3 and a
/// small non-integral coefficient (so float rounding is in play).
fn polyset_strategy() -> impl Strategy<Value = PolySet<f64>> {
    prop::collection::vec(
        prop::collection::vec(
            (prop::collection::vec((0u32..12, 1u32..4), 0..3), -80i32..80),
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

/// A random scenario batch: each valuation assigns a handful of the
/// variables a factor in roughly [-2, 2] (sixteenths, exactly
/// representable) over a neutral default.
fn batch_strategy(max_scenarios: usize) -> impl Strategy<Value = Vec<Valuation<f64>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..12, -32i32..32), 0..8),
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

/// Asserts two value grids are identical down to the last mantissa bit.
fn assert_bits_equal(label: &str, reference: &[Vec<f64>], got: &[Vec<f64>]) {
    assert_eq!(reference.len(), got.len(), "{label}: scenario count");
    for (s, (r, g)) in reference.iter().zip(got).enumerate() {
        assert_eq!(r.len(), g.len(), "{label}: row {s} length");
        for (p, (a, b)) in r.iter().zip(g).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: scenario {s}, polynomial {p}: {a} vs {b}"
            );
        }
    }
}

/// One clean batch through the executor under an unlimited guard.
fn eval_values(
    compiled: &CompiledPolySet<f64>,
    batch: &[Valuation<f64>],
    opts: &EvalOptions,
) -> Vec<Vec<f64>> {
    eval(compiled.view(), batch, opts, &Guard::unlimited())
        .into_result()
        .expect("an unlimited guard and no panic")
        .values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole invariant: the executor — inline or pooled, on every
    /// kernel request, whatever chunking the batch size resolves to —
    /// produces the serial hash-map loop's bits.
    #[test]
    fn all_engines_agree_bit_for_bit(
        polys in polyset_strategy(),
        batch in batch_strategy(12),
        threads in 1usize..5,
    ) {
        let reference = apply_batch(&polys, &batch).values;
        let compiled = CompiledPolySet::compile(&polys);
        for kernel in [Kernel::Auto, Kernel::Scalar, Kernel::Generic, Kernel::Avx2] {
            for (label, opts) in [
                ("inline", EvalOptions::new().threads(1).kernel(kernel)),
                ("pooled", EvalOptions::new().threads(threads).kernel(kernel)),
                ("auto", EvalOptions::new().kernel(kernel)),
            ] {
                let got = eval_values(&compiled, &batch, &opts);
                assert_bits_equal(&format!("{label} {kernel:?}"), &reference, &got);
            }
        }
    }

    /// The compiled evaluator alone (no executor in between) matches the
    /// reference, and its round-trip bridge preserves the polynomials.
    #[test]
    fn compiled_eval_all_and_bridge_agree(
        polys in polyset_strategy(),
        batch in batch_strategy(8),
    ) {
        let compiled = CompiledPolySet::compile(&polys);
        let reference = apply_batch(&polys, &batch).values;
        assert_bits_equal("eval_all", &reference, &compiled.eval_all(&batch));
        let bridged = compiled.to_polyset();
        prop_assert_eq!(bridged.len(), polys.len());
        for (a, b) in bridged.iter().zip(polys.iter()) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(compiled.num_monomials(), polys.size_m());
        prop_assert_eq!(compiled.num_vars(), polys.size_v());
    }

    /// Empty batches short-circuit identically in every engine.
    #[test]
    fn empty_batch_is_empty_everywhere(polys in polyset_strategy()) {
        let empty: [Valuation<f64>; 0] = [];
        prop_assert!(apply_batch(&polys, &empty).values.is_empty());
        let compiled = CompiledPolySet::compile(&polys);
        prop_assert!(eval_values(&compiled, &empty, &EvalOptions::new()).is_empty());
        let reference = eval_reference(&polys, &empty, &Guard::unlimited());
        prop_assert!(reference.expect("never trips").values.is_empty());
    }

    /// A single-scenario batch forced through many workers still matches
    /// (the pool clamps to the job count).
    #[test]
    fn single_scenario_many_threads(polys in polyset_strategy(), batch in batch_strategy(2)) {
        prop_assume!(batch.len() == 1);
        let reference = apply_batch(&polys, &batch).values;
        let compiled = CompiledPolySet::compile(&polys);
        let got = eval_values(&compiled, &batch, &EvalOptions::new().threads(8));
        assert_bits_equal("single-scenario", &reference, &got);
    }
}
