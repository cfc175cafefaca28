//! Property tests of the provenance algebra: ring laws for polynomials,
//! parser/printer round-trips and evaluation as a homomorphism.

use provabs_provenance::display::poly_to_string;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::parse::parse_polynomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::var::{VarId, VarTable};
use provabs_testkit::{cases, Rng};

/// Cases each property runs.
const CASES: u64 = 128;

/// A random small polynomial over variables v0..v5 with integer
/// coefficients (exact arithmetic, so equality is decidable).
fn poly(rng: &mut Rng) -> Polynomial<i64> {
    let terms: Vec<_> = (0..rng.below(6))
        .map(|_| {
            let factors: Vec<_> = (0..rng.below(3))
                .map(|_| (VarId(rng.below(6) as u32), 1 + rng.below(2) as u32))
                .collect();
            (Monomial::from_factors(factors), rng.int(-20..=19))
        })
        .collect();
    Polynomial::from_terms(terms)
}

/// Commutative-ring laws.
#[test]
fn ring_laws() {
    cases(CASES, 201, |rng, _| {
        let (a, b, c) = (poly(rng), poly(rng), poly(rng));
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        assert_eq!(a.add(&Polynomial::zero()), a.clone());
        assert_eq!(a.mul(&Polynomial::constant(1)), a.clone());
        assert!(a.mul(&Polynomial::zero()).is_zero());
    });
}

/// Evaluation is a ring homomorphism.
#[test]
fn evaluation_is_homomorphic() {
    cases(CASES, 202, |rng, _| {
        let (a, b) = (poly(rng), poly(rng));
        let (x, y) = (rng.int(-5..=4), rng.int(-5..=4));
        let val = |v: VarId| if v.0.is_multiple_of(2) { x } else { y };
        let lhs_add = a.add(&b).eval(val);
        let rhs_add = {
            use provabs_provenance::coeff::Coefficient;
            a.eval(val).add(&b.eval(val))
        };
        assert_eq!(lhs_add, rhs_add);
        let lhs_mul = a.mul(&b).eval(val);
        let rhs_mul = {
            use provabs_provenance::coeff::Coefficient;
            a.eval(val).mul(&b.eval(val))
        };
        assert_eq!(lhs_mul, rhs_mul);
    });
}

/// Printing and re-parsing a float polynomial preserves structure.
#[test]
fn display_parse_roundtrip() {
    cases(CASES, 203, |rng, _| {
        let mut vars = VarTable::new();
        for i in 0..5 {
            vars.intern(&format!("v{i}"));
        }
        let terms: Vec<_> = (0..rng.below(6))
            .map(|_| {
                let vs: Vec<_> = (0..rng.below(3))
                    .map(|_| VarId(rng.below(5) as u32))
                    .collect();
                let c = 1 + rng.below(999);
                (Monomial::from_vars(vs), c as f64 / 8.0)
            })
            .collect();
        let p: Polynomial<f64> = Polynomial::from_terms(terms);
        let s = poly_to_string(&p, &vars);
        let mut vars2 = vars.clone();
        let q = parse_polynomial(&s, &mut vars2).expect("own output parses");
        assert_eq!(p.size_m(), q.size_m());
        for (m, c) in p.iter() {
            assert!((q.coefficient(m) - c).abs() < 1e-9);
        }
    });
}

/// `map_vars` is functorial: mapping through `f` then `g` equals
/// mapping through their composition.
#[test]
fn map_vars_composes() {
    cases(CASES, 204, |rng, _| {
        let p = poly(rng);
        let f = |v: VarId| VarId(v.0 % 3);
        let g = |v: VarId| VarId(v.0 + 10);
        let two_step = p.map_vars(f).map_vars(g);
        let composed = p.map_vars(|v| g(f(v)));
        assert_eq!(two_step, composed);
    });
}
