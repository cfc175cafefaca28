//! Coefficient rings for provenance polynomials.
//!
//! The paper treats coefficients as rational numbers (§2.1). In practice
//! aggregate provenance uses floating point (and its `MIN` / `MAX`
//! semirings), counting provenance uses naturals, and tests want exact
//! arithmetic, which integers give them; the [`Coefficient`] trait
//! abstracts over all of these.

use std::fmt;

/// A commutative ring of polynomial coefficients.
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
    /// `n · self`, i.e. `self` added to itself `n` times (used when
    /// specialising `N[X]` polynomials whose coefficients are naturals).
    fn nat_scale(&self, n: u64) -> Self {
        let mut acc = Self::zero();
        for _ in 0..n {
            acc = acc.add(self);
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
    fn nat_scale(&self, n: u64) -> Self {
        *self * n as f64
    }
}

/// `x^e` with the small exponents unrolled and right-to-left binary
/// exponentiation-by-squaring above.
///
/// This is the *one* multiply tree every `f64` evaluation path shares:
/// the hash-map evaluator ([`Coefficient::pow`] for `f64`), the scalar
/// columnar sweep ([`crate::compiled::CompiledPolySet::eval_into`]) and
/// the lane kernels ([`crate::simd`]) all raise variables through this
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

impl Coefficient for u64 {
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
    fn nat_scale(&self, n: u64) -> Self {
        self * n
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
        MinF64(f64::powi(self.0, exp as i32))
    }
    fn nat_scale(&self, n: u64) -> Self {
        if n == 0 {
            Self::zero()
        } else {
            *self
        }
    }
}

/// Coefficients under `(max, ×)`: the carrier for MAX-aggregate
/// provenance. See [`MinF64`] for the soundness condition.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MaxF64(pub f64);

impl fmt::Display for MaxF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Coefficient for MaxF64 {
    fn zero() -> Self {
        MaxF64(f64::NEG_INFINITY)
    }
    fn one() -> Self {
        MaxF64(1.0)
    }
    fn add(&self, other: &Self) -> Self {
        MaxF64(self.0.max(other.0))
    }
    fn mul(&self, other: &Self) -> Self {
        MaxF64(self.0 * other.0)
    }
    fn is_zero(&self) -> bool {
        self.0 == f64::NEG_INFINITY
    }
    fn pow(&self, exp: u32) -> Self {
        MaxF64(f64::powi(self.0, exp as i32))
    }
    fn nat_scale(&self, n: u64) -> Self {
        if n == 0 {
            Self::zero()
        } else {
            *self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow_and_nat_scale_defaults() {
        // `i64` takes both default methods; `f64` overrides them.
        assert_eq!(Coefficient::pow(&-2i64, 3), -8);
        assert_eq!(3i64.nat_scale(5), 15);
        assert_eq!(7i64.nat_scale(0), 0);
        assert_eq!(Coefficient::pow(&2.0f64, 10), 1024.0);
        assert_eq!(3.0f64.nat_scale(4), 12.0);
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
        assert_eq!(a.nat_scale(0), MinF64::zero());
        assert_eq!(a.nat_scale(7), a);
    }

    #[test]
    fn max_coefficient_semantics() {
        let a = MaxF64(3.0);
        let b = MaxF64(5.0);
        assert_eq!(a.add(&b), MaxF64(5.0));
        assert_eq!(a.mul(&b), MaxF64(15.0));
        assert_eq!(a.add(&MaxF64::zero()), a);
        assert!(MaxF64::zero().is_zero());
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
