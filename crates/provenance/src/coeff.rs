//! The coefficients of provenance polynomials.
//!
//! The paper's "+" is the query's aggregate (§2.1). [`Coefficient`] is the
//! one algebra the crates above are written over, and exactly three
//! carriers implement it, each emitted by something or checked by an
//! oracle row: `f64` (SUM provenance, every product path), `i64` (exact
//! arithmetic for the oracle suites, where merged terms can cancel) and
//! [`MinF64`] (MIN provenance, what `Pipeline::aggregate_min` emits).

use std::fmt;

/// A commutative semiring of polynomial coefficients.
///
/// `add`/`mul` must be commutative and associative with `zero`/`one` as the
/// respective identities. Implementations must keep `is_zero` consistent
/// with `zero()` so that polynomials can drop vanished terms.
pub trait Coefficient:
    Clone + PartialEq + fmt::Debug + fmt::Display + Send + Sync + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Commutative addition.
    fn add(&self, other: &Self) -> Self;
    /// Commutative multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Whether this value is (close enough to) the additive identity.
    fn is_zero(&self) -> bool;
    /// `self` raised to a small natural power (used when valuating
    /// exponentiated variables).
    fn pow(&self, exp: u32) -> Self {
        let mut acc = Self::one();
        for _ in 0..exp {
            acc = acc.mul(self);
        }
        acc
    }
}

impl Coefficient for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn pow(&self, exp: u32) -> Self {
        pow_f64(*self, exp)
    }
}

/// `x^e` with the small exponents unrolled and right-to-left binary
/// exponentiation-by-squaring above.
///
/// This is the *one* multiply tree every `f64` evaluation path shares:
/// the hash-map evaluator ([`Coefficient::pow`] for `f64` and for
/// [`MinF64`]), the scalar columnar sweep
/// ([`crate::compiled::CompiledPolySet::eval_into`]) and the lane kernels ([`crate::simd`]) all raise variables through this
/// exact operation sequence (the kernels per lane). IEEE-754
/// multiplication is commutative and deterministic, so pinning the tree
/// makes every engine's results bit-for-bit comparable — which is what
/// the `eval_matrix` suite asserts. (`f64::powi` makes no such
/// cross-compilation guarantee, which is why it is not used here.)
pub fn pow_f64(x: f64, e: u32) -> f64 {
    match e {
        0 => 1.0,
        1 => x,
        2 => x * x,
        3 => (x * x) * x,
        _ => {
            // Right-to-left binary: multiply `acc` by the squarings whose
            // bit is set. Starts from `acc = 1.0` — exact, `1.0 * y == y`.
            let mut e = e;
            let mut base = x;
            let mut acc = 1.0;
            while e > 1 {
                if e & 1 == 1 {
                    acc *= base;
                }
                base *= base;
                e >>= 1;
            }
            acc * base
        }
    }
}

impl Coefficient for i64 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
}

/// Coefficients under `(min, ×)`: the carrier for MIN-aggregate
/// provenance (§2.1: "the plus operation in our polynomial corresponds to
/// the aggregate function"). Merging two identical monomials keeps the
/// smaller contribution; multiplication scales it. Factoring a
/// non-negative variable out of `min(a·x, b·x) = min(a, b)·x` is exactly
/// the simplification abstraction relies on, so abstraction remains sound
/// for non-negative valuations.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MinF64(pub f64);

impl fmt::Display for MinF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Coefficient for MinF64 {
    fn zero() -> Self {
        MinF64(f64::INFINITY)
    }
    fn one() -> Self {
        MinF64(1.0)
    }
    fn add(&self, other: &Self) -> Self {
        MinF64(self.0.min(other.0))
    }
    fn mul(&self, other: &Self) -> Self {
        MinF64(self.0 * other.0)
    }
    fn is_zero(&self) -> bool {
        self.0 == f64::INFINITY
    }
    fn pow(&self, exp: u32) -> Self {
        MinF64(pow_f64(self.0, exp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow_and_nat_scale_defaults() {
        // `i64` takes the default `pow`; `f64` overrides it.
        assert_eq!(Coefficient::pow(&-2i64, 3), -8);
        assert_eq!(Coefficient::pow(&2.0f64, 10), 1024.0);
    }

    #[test]
    fn zero_power_is_one() {
        assert_eq!(Coefficient::pow(&5.0f64, 0), 1.0);
        assert_eq!(Coefficient::pow(&7i64, 0), 1);
    }

    #[test]
    fn min_coefficient_semantics() {
        let a = MinF64(3.0);
        let b = MinF64(5.0);
        assert_eq!(a.add(&b), MinF64(3.0));
        assert_eq!(a.mul(&b), MinF64(15.0));
        assert_eq!(a.add(&MinF64::zero()), a);
        assert_eq!(a.mul(&MinF64::one()), a);
        assert!(MinF64::zero().is_zero());
        // `pow` is the shared multiply tree, not `powi`.
        for e in [0, 1, 3, 7, 12] {
            assert_eq!(a.pow(e).0.to_bits(), pow_f64(3.0, e).to_bits());
            assert_eq!(MinF64(1.1).pow(e).0.to_bits(), pow_f64(1.1, e).to_bits());
        }
    }

    #[test]
    fn min_polynomials_merge_with_min() {
        // Two identical monomials under MIN-aggregation keep the smaller
        // coefficient — the aggregate analogue of coefficient addition.
        use crate::monomial::Monomial;
        use crate::polynomial::Polynomial;
        use crate::var::VarId;
        let m = Monomial::var(VarId(1));
        let p = Polynomial::from_terms([(m.clone(), MinF64(9.0)), (m.clone(), MinF64(4.0))]);
        assert_eq!(p.coefficient(&m), MinF64(4.0));
        assert_eq!(p.size_m(), 1);
    }
}
