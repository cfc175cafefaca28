//! Monomials: products of variables with exponents.
//!
//! A monomial is a product of indeterminates; an indeterminate may appear
//! more than once, its multiplicity being the *exponent* (§2.1). Monomials
//! are stored as factor lists sorted by [`VarId`], which makes equality,
//! hashing and merging cheap and canonical.

use crate::var::VarId;
use std::borrow::Borrow;
use std::fmt;

/// A canonical product of variables with positive exponents.
///
/// The empty monomial is the multiplicative unit `1` (a constant term).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Monomial {
    /// Sorted by variable id; exponents are ≥ 1.
    factors: Box<[(VarId, u32)]>,
}

impl Monomial {
    /// The unit monomial `1`.
    pub fn one() -> Self {
        Self {
            factors: Box::new([]),
        }
    }

    /// The monomial consisting of a single variable.
    pub fn var(v: VarId) -> Self {
        Self {
            factors: Box::new([(v, 1)]),
        }
    }

    /// Builds a monomial from an unsorted list of variables, merging
    /// repetitions into exponents.
    pub fn from_vars(vars: impl IntoIterator<Item = VarId>) -> Self {
        Self::from_factors(vars.into_iter().map(|v| (v, 1)))
    }

    /// Builds a monomial from `(variable, exponent)` pairs; pairs with the
    /// same variable are merged, zero exponents dropped.
    pub fn from_factors(factors: impl IntoIterator<Item = (VarId, u32)>) -> Self {
        let mut fs: Vec<(VarId, u32)> = factors.into_iter().filter(|&(_, e)| e > 0).collect();
        Self::canonicalise(&mut fs);
        Self {
            factors: fs.into_boxed_slice(),
        }
    }

    /// Brings positive-exponent factors into canonical form in place:
    /// sorted by variable, repeats of a variable merged into one factor
    /// with the exponents added. For emitters that keep one reusable
    /// factor buffer and hand it on as a slice
    /// ([`from_canonical`](Self::from_canonical),
    /// [`MonoArena::intern_factors`](crate::intern::MonoArena::intern_factors)).
    pub fn canonicalise(factors: &mut Vec<(VarId, u32)>) {
        factors.sort_unstable_by_key(|&(v, _)| v);
        factors.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                earlier.1 += later.1;
            }
            same
        });
    }

    /// Builds a monomial from a factor slice that is already canonical:
    /// strictly increasing variables, exponents ≥ 1 — what
    /// [`as_factors`](Self::as_factors) returns. No sorting or merging
    /// happens, so an emitter that keeps one sorted scratch slice pays one
    /// copy per *new* monomial.
    pub fn from_canonical(factors: &[(VarId, u32)]) -> Self {
        MonoRef::from_canonical(factors).to_monomial()
    }

    /// The canonical factor slice (sorted by variable, exponents ≥ 1).
    pub fn as_factors(&self) -> &[(VarId, u32)] {
        &self.factors
    }

    /// This monomial as the borrowed view interned storage hands out.
    pub fn view(&self) -> MonoRef<'_> {
        MonoRef(&self.factors)
    }

    /// Whether this is the unit monomial.
    pub fn is_one(&self) -> bool {
        self.factors.is_empty()
    }

    /// Total degree: the sum of all exponents.
    pub fn degree(&self) -> u32 {
        self.factors.iter().map(|&(_, e)| e).sum()
    }

    /// Number of *distinct* variables.
    pub fn num_vars(&self) -> usize {
        self.factors.len()
    }

    /// Iterates over the distinct variables.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.factors.iter().map(|&(v, _)| v)
    }

    /// Iterates over `(variable, exponent)` factors in canonical order.
    pub fn factors(&self) -> impl Iterator<Item = (VarId, u32)> + '_ {
        self.factors.iter().copied()
    }

    /// Whether `v` occurs in this monomial.
    pub fn contains(&self, v: VarId) -> bool {
        self.factors.binary_search_by_key(&v, |&(w, _)| w).is_ok()
    }

    /// Exponent of `v` (0 if absent).
    pub fn exponent_of(&self, v: VarId) -> u32 {
        self.view().exponent_of(v)
    }

    /// Product of two monomials (exponents add).
    pub fn mul(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.factors.len() + other.factors.len());
        let (mut i, mut j) = (0, 0);
        while i < self.factors.len() && j < other.factors.len() {
            let (a, ea) = self.factors[i];
            let (b, eb) = other.factors[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    out.push((a, ea));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((b, eb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a, ea + eb));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.factors[i..]);
        out.extend_from_slice(&other.factors[j..]);
        Self {
            factors: out.into_boxed_slice(),
        }
    }

    /// Removes variable `v`, returning the remainder monomial and the
    /// exponent `v` had (0 if absent, in which case the remainder is a
    /// clone of `self`).
    ///
    /// This is the `M_l` operation of the paper's efficient monomial-loss
    /// computation (§4.1).
    pub fn remove_var(&self, v: VarId) -> (Self, u32) {
        match self.factors.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                let exp = self.factors[i].1;
                let mut fs = Vec::with_capacity(self.factors.len() - 1);
                fs.extend_from_slice(&self.factors[..i]);
                fs.extend_from_slice(&self.factors[i + 1..]);
                (
                    Self {
                        factors: fs.into_boxed_slice(),
                    },
                    exp,
                )
            }
            Err(_) => (self.clone(), 0),
        }
    }

    /// Substitutes every variable through `map`, re-canonicalising (merged
    /// variables add their exponents). This is the core of applying an
    /// abstraction `P↓S`.
    pub fn map_vars(&self, mut map: impl FnMut(VarId) -> VarId) -> Self {
        Self::from_factors(self.factors.iter().map(|&(v, e)| (map(v), e)))
    }
}

/// A monomial hashes, compares and orders exactly like its canonical
/// factor slice (the derives above see nothing but that slice), so maps
/// keyed by monomials can be probed with a borrowed slice — a lookup of a
/// known monomial allocates nothing.
impl Borrow<[(VarId, u32)]> for Monomial {
    fn borrow(&self) -> &[(VarId, u32)] {
        &self.factors
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// Whether `factors` is a canonical factor slice: strictly increasing
/// variables, exponents ≥ 1.
pub(crate) fn is_canonical(factors: &[(VarId, u32)]) -> bool {
    factors.windows(2).all(|w| w[0].0 < w[1].0) && factors.iter().all(|&(_, e)| e > 0)
}

/// A borrowed monomial: the canonical factor slice of a monomial held
/// somewhere else — in a [`MonoArena`](crate::intern::MonoArena)'s flat
/// factor column, or in a [`Monomial`]. [`Monomial`] is the owned value of
/// the hash-map ([`PolySet`](crate::polyset::PolySet)) world; everything
/// that reads interned provenance reads it through this view, so no
/// monomial is boxed to be looked at.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MonoRef<'a>(&'a [(VarId, u32)]);

impl<'a> MonoRef<'a> {
    /// Views a factor slice that is already canonical (strictly
    /// increasing variables, exponents ≥ 1).
    pub fn from_canonical(factors: &'a [(VarId, u32)]) -> Self {
        debug_assert!(
            is_canonical(factors),
            "factors must be strictly sorted by variable with positive exponents"
        );
        Self(factors)
    }

    /// The canonical factor slice (sorted by variable, exponents ≥ 1).
    pub fn as_factors(self) -> &'a [(VarId, u32)] {
        self.0
    }

    /// Number of *distinct* variables.
    pub fn num_vars(self) -> usize {
        self.0.len()
    }

    /// Iterates over the distinct variables.
    pub fn vars(self) -> impl Iterator<Item = VarId> + 'a {
        self.0.iter().map(|&(v, _)| v)
    }

    /// Iterates over `(variable, exponent)` factors in canonical order.
    pub fn factors(self) -> impl Iterator<Item = (VarId, u32)> + 'a {
        self.0.iter().copied()
    }

    /// Exponent of `v` (0 if absent).
    pub fn exponent_of(self, v: VarId) -> u32 {
        match self.0.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.0[i].1,
            Err(_) => 0,
        }
    }

    /// The owned monomial (one allocation) — the bridge into the hash-map
    /// world.
    pub fn to_monomial(self) -> Monomial {
        Monomial {
            factors: self.0.into(),
        }
    }
}

impl fmt::Debug for MonoRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "1");
        }
        for (i, (v, e)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{:?}", v)?;
            if *e > 1 {
                write!(f, "^{}", e)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn unit_monomial() {
        let m = Monomial::one();
        assert!(m.is_one());
        assert_eq!(m.degree(), 0);
        assert_eq!(m.num_vars(), 0);
    }

    #[test]
    fn from_vars_merges_repeats() {
        let m = Monomial::from_vars([v(2), v(1), v(2)]);
        assert_eq!(m.exponent_of(v(2)), 2);
        assert_eq!(m.exponent_of(v(1)), 1);
        assert_eq!(m.degree(), 3);
        assert_eq!(m.num_vars(), 2);
    }

    #[test]
    fn from_factors_drops_zero_exponents() {
        let m = Monomial::from_factors([(v(1), 0), (v(2), 3)]);
        assert!(!m.contains(v(1)));
        assert_eq!(m.exponent_of(v(2)), 3);
    }

    #[test]
    fn canonical_equality() {
        let a = Monomial::from_vars([v(1), v(2)]);
        let b = Monomial::from_vars([v(2), v(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn mul_adds_exponents() {
        let a = Monomial::from_vars([v(1), v(2)]);
        let b = Monomial::from_vars([v(2), v(3)]);
        let p = a.mul(&b);
        assert_eq!(p.exponent_of(v(1)), 1);
        assert_eq!(p.exponent_of(v(2)), 2);
        assert_eq!(p.exponent_of(v(3)), 1);
    }

    #[test]
    fn mul_with_unit_is_identity() {
        let a = Monomial::from_vars([v(5)]);
        assert_eq!(a.mul(&Monomial::one()), a);
        assert_eq!(Monomial::one().mul(&a), a);
    }

    #[test]
    fn remove_var_present_and_absent() {
        let m = Monomial::from_factors([(v(1), 2), (v(2), 1)]);
        let (rem, exp) = m.remove_var(v(1));
        assert_eq!(exp, 2);
        assert_eq!(rem, Monomial::var(v(2)));
        let (rem2, exp2) = m.remove_var(v(9));
        assert_eq!(exp2, 0);
        assert_eq!(rem2, m);
    }

    #[test]
    fn map_vars_merges_collisions() {
        // m1·m3 with both mapped to q1 becomes q1^2.
        let m = Monomial::from_vars([v(1), v(3)]);
        let mapped = m.map_vars(|_| v(10));
        assert_eq!(mapped.exponent_of(v(10)), 2);
        assert_eq!(mapped.num_vars(), 1);
    }

    #[test]
    fn borrows_as_its_canonical_factor_slice() {
        use crate::fxhash::FxHashMap;
        let m = Monomial::from_vars([v(3), v(1), v(3)]);
        assert_eq!(m.as_factors(), &[(v(1), 1), (v(3), 2)]);
        assert_eq!(Monomial::from_canonical(m.as_factors()), m);
        let mut map: FxHashMap<Monomial, u8> = FxHashMap::default();
        map.insert(m.clone(), 7);
        // Hash and equality agree through the borrow: a slice finds it.
        assert_eq!(map.get(&[(v(1), 1), (v(3), 2)][..]), Some(&7));
        assert_eq!(map.get(&[(v(1), 1)][..]), None);
    }

    #[test]
    fn ordering_is_total_and_canonical() {
        let a = Monomial::from_vars([v(1)]);
        let b = Monomial::from_vars([v(2)]);
        assert!(a < b);
        assert!(Monomial::one() < a);
    }
}
