//! Property tests of the provenance algebra: ring laws for polynomials,
//! parser/printer round-trips and evaluation as a homomorphism.

use proptest::prelude::*;
use provabs_provenance::display::poly_to_string;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::parse::parse_polynomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::var::{VarId, VarTable};

/// A random small polynomial over variables v0..v5 with integer
/// coefficients (exact arithmetic, so equality is decidable).
fn poly_strategy() -> impl Strategy<Value = Polynomial<i64>> {
    prop::collection::vec(
        (prop::collection::vec((0u32..6, 1u32..3), 0..3), -20i64..20),
        0..6,
    )
    .prop_map(|terms| {
        Polynomial::from_terms(terms.into_iter().map(|(factors, c)| {
            (
                Monomial::from_factors(factors.into_iter().map(|(v, e)| (VarId(v), e))),
                c,
            )
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Commutative-ring laws.
    #[test]
    fn ring_laws(a in poly_strategy(), b in poly_strategy(), c in poly_strategy()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        prop_assert_eq!(a.add(&Polynomial::zero()), a.clone());
        prop_assert_eq!(a.mul(&Polynomial::constant(1)), a.clone());
        prop_assert!(a.mul(&Polynomial::zero()).is_zero());
    }

    /// Evaluation is a ring homomorphism.
    #[test]
    fn evaluation_is_homomorphic(a in poly_strategy(), b in poly_strategy(), x in -5i64..5, y in -5i64..5) {
        let val = |v: VarId| if v.0.is_multiple_of(2) { x } else { y };
        let lhs_add = a.add(&b).eval(val);
        let rhs_add = {
            use provabs_provenance::coeff::Coefficient;
            a.eval(val).add(&b.eval(val))
        };
        prop_assert_eq!(lhs_add, rhs_add);
        let lhs_mul = a.mul(&b).eval(val);
        let rhs_mul = {
            use provabs_provenance::coeff::Coefficient;
            a.eval(val).mul(&b.eval(val))
        };
        prop_assert_eq!(lhs_mul, rhs_mul);
    }

    /// Printing and re-parsing a float polynomial preserves structure.
    #[test]
    fn display_parse_roundtrip(terms in prop::collection::vec((prop::collection::vec(0u32..5, 0..3), 1u32..1000), 0..6)) {
        let mut vars = VarTable::new();
        for i in 0..5 {
            vars.intern(&format!("v{i}"));
        }
        let p: Polynomial<f64> = Polynomial::from_terms(terms.into_iter().map(|(vs, c)| {
            (
                Monomial::from_vars(vs.into_iter().map(VarId)),
                c as f64 / 8.0,
            )
        }));
        let s = poly_to_string(&p, &vars);
        let mut vars2 = vars.clone();
        let q = parse_polynomial(&s, &mut vars2).expect("own output parses");
        prop_assert_eq!(p.size_m(), q.size_m());
        for (m, c) in p.iter() {
            prop_assert!((q.coefficient(m) - c).abs() < 1e-9);
        }
    }

    /// `map_vars` is functorial: mapping through `f` then `g` equals
    /// mapping through their composition.
    #[test]
    fn map_vars_composes(p in poly_strategy()) {
        let f = |v: VarId| VarId(v.0 % 3);
        let g = |v: VarId| VarId(v.0 + 10);
        let two_step = p.map_vars(f).map_vars(g);
        let composed = p.map_vars(|v| g(f(v)));
        prop_assert_eq!(two_step, composed);
    }
}
