//! Provenance polynomials: sums of coefficient-weighted monomials.
//!
//! Implements the measures of §2.1: the *size* `|P|_M` (number of
//! monomials, written [`Polynomial::size_m`]) and the *granularity*
//! `|P|_V` (number of distinct variables, [`Polynomial::size_v`]), and the
//! abstraction application `P↓S` via [`Polynomial::map_vars`] (distinct
//! monomials that become identical are merged, their coefficients added).

use crate::coeff::Coefficient;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::monomial::Monomial;
use crate::var::VarId;
use std::fmt;

/// A polynomial over interned variables with coefficients in `C`.
///
/// Zero-coefficient terms are never stored, so `size_m` counts exactly the
/// monomials with a non-zero coefficient.
#[derive(Clone)]
pub struct Polynomial<C> {
    terms: FxHashMap<Monomial, C>,
}

impl<C> Default for Polynomial<C> {
    fn default() -> Self {
        Self {
            terms: FxHashMap::default(),
        }
    }
}

impl<C: Coefficient> Polynomial<C> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The constant polynomial `c`.
    pub fn constant(c: C) -> Self {
        let mut p = Self::zero();
        p.add_term(Monomial::one(), c);
        p
    }

    /// The polynomial consisting of the single variable `v`.
    pub fn variable(v: VarId) -> Self {
        let mut p = Self::zero();
        p.add_term(Monomial::var(v), C::one());
        p
    }

    /// Builds a polynomial from terms, merging duplicate monomials.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, C)>) -> Self {
        let mut p = Self::zero();
        for (m, c) in terms {
            p.add_term(m, c);
        }
        p
    }

    /// Adds `coeff · mono` to the polynomial, merging with an existing term
    /// and dropping it if the sum vanishes (the shared
    /// [`crate::intern::accumulate`] rule).
    pub fn add_term(&mut self, mono: Monomial, coeff: C) {
        crate::intern::accumulate(&mut self.terms, mono, coeff);
    }

    /// [`add_term`](Self::add_term) for a monomial given as its canonical
    /// factor slice (see [`Monomial::from_canonical`]): a term already
    /// present is updated through a borrowed lookup, so only a *new* term
    /// allocates its monomial. Same merge-and-drop rule, same sequence of
    /// map insertions and removals as `add_term` on the built monomial.
    pub fn add_term_factors(&mut self, factors: &[(VarId, u32)], coeff: C) {
        if coeff.is_zero() {
            return;
        }
        match self.terms.get_mut(factors) {
            Some(c) => {
                let sum = c.add(&coeff);
                if sum.is_zero() {
                    self.terms.remove(factors);
                } else {
                    *c = sum;
                }
            }
            None => self.add_term(Monomial::from_canonical(factors), coeff),
        }
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// `|P|_M`: the number of monomials.
    pub fn size_m(&self) -> usize {
        self.terms.len()
    }

    /// `V(P)`: the set of distinct variables.
    pub fn var_set(&self) -> FxHashSet<VarId> {
        let mut set = FxHashSet::default();
        for m in self.terms.keys() {
            set.extend(m.vars());
        }
        set
    }

    /// `|P|_V`: the number of distinct variables.
    pub fn size_v(&self) -> usize {
        self.var_set().len()
    }

    /// Iterates over `(monomial, coefficient)` terms in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, &C)> {
        self.terms.iter()
    }

    /// Terms sorted by monomial — a canonical order for display and tests.
    pub fn sorted_terms(&self) -> Vec<(&Monomial, &C)> {
        let mut v: Vec<_> = self.terms.iter().collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// The coefficient of `mono` (zero if absent).
    pub fn coefficient(&self, mono: &Monomial) -> C {
        self.terms.get(mono).cloned().unwrap_or_else(C::zero)
    }

    /// Sum of the two polynomials.
    pub fn add(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for (m, c) in other.terms.iter() {
            out.add_term(m.clone(), c.clone());
        }
        out
    }

    /// Product of the two polynomials (distributes over all term pairs).
    pub fn mul(&self, other: &Self) -> Self {
        let mut out = Self::zero();
        for (ma, ca) in self.terms.iter() {
            for (mb, cb) in other.terms.iter() {
                out.add_term(ma.mul(mb), ca.mul(cb));
            }
        }
        out
    }

    /// Scales every coefficient by `c`.
    pub fn scale(&self, c: &C) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        Self::from_terms(self.terms.iter().map(|(m, k)| (m.clone(), k.mul(c))))
    }

    /// Applies a variable substitution — the abstraction `P↓S` when `map`
    /// sends each leaf to its chosen ancestor. Monomials made identical are
    /// merged and their coefficients added (see Example 2 of the paper).
    pub fn map_vars(&self, mut map: impl FnMut(VarId) -> VarId) -> Self {
        Self::from_terms(
            self.terms
                .iter()
                .map(|(m, c)| (m.map_vars(&mut map), c.clone())),
        )
    }

    /// Evaluates the polynomial under a variable valuation.
    pub fn eval(&self, mut val: impl FnMut(VarId) -> C) -> C {
        let mut acc = C::zero();
        for (m, c) in self.terms.iter() {
            let mut term = c.clone();
            for (v, e) in m.factors() {
                term = term.mul(&val(v).pow(e));
            }
            acc = acc.add(&term);
        }
        acc
    }

    /// Sum of all coefficients — equals `eval` at the all-ones valuation
    /// and is invariant under `map_vars` (merging only adds coefficients).
    pub fn coefficient_mass(&self) -> C {
        let mut acc = C::zero();
        for c in self.terms.values() {
            acc = acc.add(c);
        }
        acc
    }
}

impl<C: Coefficient> FromIterator<(Monomial, C)> for Polynomial<C> {
    fn from_iter<T: IntoIterator<Item = (Monomial, C)>>(iter: T) -> Self {
        Self::from_terms(iter)
    }
}

impl<C: Coefficient> PartialEq for Polynomial<C> {
    fn eq(&self, other: &Self) -> bool {
        if self.terms.len() != other.terms.len() {
            return false;
        }
        self.terms
            .iter()
            .all(|(m, c)| other.terms.get(m).is_some_and(|d| d == c))
    }
}

impl<C: Coefficient> fmt::Debug for Polynomial<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, (m, c)) in self.sorted_terms().into_iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{}", c)?;
            if !m.is_one() {
                write!(f, "·{:?}", m)?;
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

    fn term(vars: &[u32], c: f64) -> (Monomial, f64) {
        (Monomial::from_vars(vars.iter().map(|&i| v(i))), c)
    }

    #[test]
    fn zero_polynomial() {
        let p: Polynomial<f64> = Polynomial::zero();
        assert!(p.is_zero());
        assert_eq!(p.size_m(), 0);
        assert_eq!(p.size_v(), 0);
    }

    #[test]
    fn add_term_merges_and_cancels() {
        let mut p = Polynomial::zero();
        p.add_term(Monomial::var(v(1)), 2.0);
        p.add_term(Monomial::var(v(1)), 3.0);
        assert_eq!(p.size_m(), 1);
        assert_eq!(p.coefficient(&Monomial::var(v(1))), 5.0);
        p.add_term(Monomial::var(v(1)), -5.0);
        assert!(p.is_zero());
    }

    #[test]
    fn add_term_factors_follows_the_add_term_rule() {
        let x = [(v(1), 1)];
        let mut p = Polynomial::zero();
        p.add_term_factors(&x, 0.0);
        assert!(p.is_zero(), "a zero coefficient stores nothing");
        p.add_term_factors(&x, 2.0);
        p.add_term_factors(&x, 3.0);
        assert_eq!(p.coefficient(&Monomial::var(v(1))), 5.0);
        p.add_term_factors(&x, -5.0);
        assert!(p.is_zero(), "a cancelled term is dropped");
        p.add_term_factors(&[], 1.5);
        assert_eq!(p, Polynomial::constant(1.5));
    }

    #[test]
    fn zero_coefficient_terms_are_not_stored() {
        let p = Polynomial::from_terms([term(&[1], 0.0)]);
        assert!(p.is_zero());
    }

    #[test]
    fn size_measures_match_paper_notation() {
        // P = 2·x·y + 3·x·z has |P|_M = 2 and |P|_V = 3.
        let p = Polynomial::from_terms([term(&[1, 2], 2.0), term(&[1, 3], 3.0)]);
        assert_eq!(p.size_m(), 2);
        assert_eq!(p.size_v(), 3);
    }

    #[test]
    fn map_vars_merges_monomials_example_2() {
        // 220.8·p1·m1 + 240·p1·m3  --(m1,m3 → q1)-->  460.8·p1·q1.
        let (p1, m1, m3, q1) = (v(0), v(1), v(3), v(10));
        let p = Polynomial::from_terms([
            (Monomial::from_vars([p1, m1]), 220.8),
            (Monomial::from_vars([p1, m3]), 240.0),
        ]);
        let abstracted = p.map_vars(|x| if x == m1 || x == m3 { q1 } else { x });
        assert_eq!(abstracted.size_m(), 1);
        let got = abstracted.coefficient(&Monomial::from_vars([p1, q1]));
        assert!((got - 460.8).abs() < 1e-9);
    }

    #[test]
    fn coefficient_mass_is_invariant_under_map_vars() {
        let p = Polynomial::from_terms([term(&[1, 2], 2.5), term(&[1, 3], 4.5), term(&[4], 1.0)]);
        let mapped = p.map_vars(|x| if x == v(2) || x == v(3) { v(9) } else { x });
        assert!((p.coefficient_mass() - mapped.coefficient_mass()).abs() < 1e-12);
    }

    #[test]
    fn mul_distributes() {
        // (x + 2)(y + 3) = xy + 3x + 2y + 6
        let x = Polynomial::from_terms([term(&[1], 1.0), (Monomial::one(), 2.0)]);
        let y = Polynomial::from_terms([term(&[2], 1.0), (Monomial::one(), 3.0)]);
        let p = x.mul(&y);
        assert_eq!(p.size_m(), 4);
        assert_eq!(p.coefficient(&Monomial::from_vars([v(1), v(2)])), 1.0);
        assert_eq!(p.coefficient(&Monomial::one()), 6.0);
        assert_eq!(p.coefficient(&Monomial::var(v(1))), 3.0);
        assert_eq!(p.coefficient(&Monomial::var(v(2))), 2.0);
    }

    #[test]
    fn eval_with_exponents() {
        // 2·x²·y at x=3, y=5 → 90.
        let p = Polynomial::from_terms([(Monomial::from_factors([(v(1), 2), (v(2), 1)]), 2.0)]);
        let r = p.eval(|x| if x == v(1) { 3.0 } else { 5.0 });
        assert_eq!(r, 90.0);
    }

    #[test]
    fn eval_at_ones_equals_mass() {
        let p = Polynomial::from_terms([term(&[1, 2], 2.0), term(&[3], 0.5)]);
        assert_eq!(p.eval(|_| 1.0), p.coefficient_mass());
    }

    #[test]
    fn equality_is_structural() {
        let a = Polynomial::from_terms([term(&[1], 1.0), term(&[2], 2.0)]);
        let b = Polynomial::from_terms([term(&[2], 2.0), term(&[1], 1.0)]);
        assert_eq!(a, b);
        let c = Polynomial::from_terms([term(&[1], 1.0)]);
        assert_ne!(a, c);
    }

    #[test]
    fn scale_by_zero_gives_zero() {
        let p = Polynomial::from_terms([term(&[1], 1.0)]);
        assert!(p.scale(&0.0).is_zero());
        assert_eq!(p.scale(&2.0).coefficient(&Monomial::var(v(1))), 2.0);
    }
}
