//! Compiled, columnar polynomial sets for fast batch evaluation.
//!
//! The hot loop of hypothetical reasoning evaluates the same `PolySet`
//! under many scenario valuations (`P↓S` per analyst question, Figure 10).
//! The [`crate::polynomial::Polynomial`] representation is a hash map of
//! monomials — ideal for algebraic rewriting (merging under `map_vars`),
//! terrible for repeated evaluation: every variable factor costs a hash
//! probe into the [`crate::valuation::Valuation`], and iterating the map
//! hops across scattered heap buckets.
//!
//! [`CompiledPolySet`] lowers a poly-set once into four flat, contiguous
//! arenas (struct-of-arrays):
//!
//! ```text
//! coeffs      [c0, c1, c2, ...]            one per monomial
//! mono_ends   [2, 3, 5, ...]               factor-range end per monomial
//! poly_ends   [2, 3, ...]                  monomial-range end per polynomial
//! factor_vars [0, 1, 2, 0, 3, ...]         dense local variable index
//! factor_exps [1, 1, 2, 1, 1, ...]         exponent-run per factor
//! ```
//!
//! Variables are densified into a batch-local `u32` index space, so a
//! valuation becomes a plain `Vec<C>` lookup table: evaluation is a single
//! linear sweep over the arenas with direct slice indexing — no hashing,
//! no pointer chasing. Evaluation visits monomials in exactly the order
//! [`Polynomial::iter`] yields them, so results are bit-for-bit identical
//! to the hash-map path (floating-point summation order is preserved).

use crate::coeff::Coefficient;
use crate::intern::VarSpace;
use crate::monomial::Monomial;
use crate::polynomial::Polynomial;
use crate::polyset::PolySet;
use crate::valuation::Valuation;
use crate::var::VarId;
use crate::working::WorkingSet;

/// A [`PolySet`] lowered into flat columnar arenas for batch evaluation.
///
/// Build one with [`CompiledPolySet::compile`], then evaluate scenarios
/// with [`eval_one`](CompiledPolySet::eval_one) /
/// [`eval_all`](CompiledPolySet::eval_all). The compiled form is
/// immutable; re-compile after abstraction changes the poly-set.
#[derive(Clone, Debug)]
pub struct CompiledPolySet<C> {
    /// One coefficient per monomial, in evaluation order.
    pub(crate) coeffs: Vec<C>,
    /// Per monomial: exclusive end of its factor range in
    /// `factor_vars`/`factor_exps` (prefix ends; the start is the previous
    /// entry, 0 for the first).
    pub(crate) mono_ends: Vec<u32>,
    /// Per polynomial: exclusive end of its monomial range in
    /// `coeffs`/`mono_ends`.
    pub(crate) poly_ends: Vec<u32>,
    /// Dense batch-local variable index per factor.
    pub(crate) factor_vars: Vec<u32>,
    /// Exponent per factor (≥ 1 by monomial canonicalisation).
    pub(crate) factor_exps: Vec<u32>,
    /// Local index → original variable (the densification order).
    pub(crate) vars: Vec<VarId>,
}

impl<C: Coefficient> CompiledPolySet<C> {
    /// Lowers `polys` into the columnar form.
    ///
    /// Runs in one pass over the poly-set; the arena sizes equal the
    /// poly-set's monomial and factor counts exactly.
    pub fn compile(polys: &PolySet<C>) -> Self {
        let num_monos = polys.size_m();
        let mut coeffs = Vec::with_capacity(num_monos);
        let mut mono_ends = Vec::with_capacity(num_monos);
        let mut poly_ends = Vec::with_capacity(polys.len());
        let mut factor_vars = Vec::new();
        let mut factor_exps = Vec::new();
        let mut space = VarSpace::new();
        for p in polys.iter() {
            for (m, c) in p.iter() {
                coeffs.push(c.clone());
                for (v, e) in m.factors() {
                    factor_vars.push(space.local(v));
                    factor_exps.push(e);
                }
                mono_ends.push(arena_end(factor_vars.len()));
            }
            poly_ends.push(arena_end(coeffs.len()));
        }
        Self {
            coeffs,
            mono_ends,
            poly_ends,
            factor_vars,
            factor_exps,
            vars: space.into_vars(),
        }
    }

    /// Freezes an interned [`WorkingSet`] into the columnar evaluation
    /// form by re-slicing its arena — the monomials are read straight out
    /// of the shared [`MonoArena`](crate::intern::MonoArena), so no
    /// intermediate [`PolySet`] (and no monomial re-hashing) is involved.
    /// This is how the abstraction pipeline hands its rewritten `𝒫↓S` to
    /// the evaluator.
    ///
    /// Each polynomial's monomials are laid out in the working set's
    /// canonical ascending-id order (matching
    /// [`WorkingSet::to_polyset`]), which is deterministic for a given
    /// working set. Note that this order generally differs from the
    /// hash-map iteration order [`compile`](Self::compile) preserves, so
    /// floating-point sums may differ from the `to_polyset` → `compile`
    /// round-trip in the last bit; term *sets* and exact-coefficient
    /// results are identical (see the `intern_equivalence` suite).
    pub fn from_working(ws: &WorkingSet<C>) -> Self {
        let num_monos = ws.size_m();
        let mut coeffs = Vec::with_capacity(num_monos);
        let mut mono_ends = Vec::with_capacity(num_monos);
        let mut poly_ends = Vec::with_capacity(ws.num_polys());
        let mut factor_vars = Vec::new();
        let mut factor_exps = Vec::new();
        let mut space = VarSpace::new();
        for pi in 0..ws.num_polys() {
            for (id, c) in ws.sorted_terms(pi) {
                coeffs.push(c.clone());
                for (v, e) in ws.mono(id).factors() {
                    factor_vars.push(space.local(v));
                    factor_exps.push(e);
                }
                mono_ends.push(arena_end(factor_vars.len()));
            }
            poly_ends.push(arena_end(coeffs.len()));
        }
        Self {
            coeffs,
            mono_ends,
            poly_ends,
            factor_vars,
            factor_exps,
            vars: space.into_vars(),
        }
    }

    /// Borrows the six columns as a [`CompiledView`] — the form every
    /// evaluation entry point actually consumes, and the type a
    /// memory-mapped artifact ([`crate::persist`]) produces without
    /// materialising a `CompiledPolySet` at all.
    pub fn view(&self) -> CompiledView<'_, C> {
        CompiledView {
            coeffs: &self.coeffs,
            mono_ends: &self.mono_ends,
            poly_ends: &self.poly_ends,
            factor_vars: &self.factor_vars,
            factor_exps: &self.factor_exps,
            vars: &self.vars,
        }
    }

    /// Number of polynomials.
    pub fn num_polys(&self) -> usize {
        self.poly_ends.len()
    }

    /// Whether the compiled set contains no polynomials.
    pub fn is_empty(&self) -> bool {
        self.poly_ends.is_empty()
    }

    /// Total number of monomials across all polynomials (`|𝒫|_M`).
    pub fn num_monomials(&self) -> usize {
        self.coeffs.len()
    }

    /// Total number of variable factors in the arena.
    pub fn num_factors(&self) -> usize {
        self.factor_vars.len()
    }

    /// Number of distinct variables (`|𝒫|_V`, the densified index space).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The densification order: local index `i` stands for `vars()[i]`.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Heap footprint of the arenas in bytes — compare with
    /// [`PolySet::estimated_bytes`] to see the columnar saving.
    pub fn estimated_bytes(&self) -> usize {
        self.coeffs.capacity() * std::mem::size_of::<C>()
            + (self.mono_ends.capacity()
                + self.poly_ends.capacity()
                + self.factor_vars.capacity()
                + self.factor_exps.capacity())
                * std::mem::size_of::<u32>()
            + self.vars.capacity() * std::mem::size_of::<VarId>()
    }

    /// Densifies a sparse valuation into the batch-local lookup table:
    /// `table[i]` is the value of local variable `i`.
    pub fn valuation_table(&self, val: &Valuation<C>) -> Vec<C> {
        self.view().valuation_table(val)
    }

    /// [`valuation_table`](Self::valuation_table) into a caller-owned
    /// buffer: `table` is cleared and refilled, so a batch loop that keeps
    /// one buffer across scenarios is allocation-free after the first
    /// iteration (the capacity warms up once and is reused). This is what
    /// [`eval_all`](Self::eval_all) and the executor's batch loop do.
    pub fn valuation_table_into(&self, val: &Valuation<C>, table: &mut Vec<C>) {
        self.view().valuation_table_into(val, table)
    }

    /// Evaluates every polynomial against a dense lookup table produced by
    /// [`valuation_table`](Self::valuation_table), appending one value per
    /// polynomial to `out`.
    ///
    /// # Panics
    /// Panics if `table` is shorter than [`num_vars`](Self::num_vars).
    pub fn eval_into(&self, table: &[C], out: &mut Vec<C>) {
        self.view().eval_into(table, out)
    }

    /// Evaluates every polynomial under one valuation (one value per
    /// polynomial, same order and bit-identical values as
    /// [`Valuation::eval_set`]).
    pub fn eval_one(&self, val: &Valuation<C>) -> Vec<C> {
        self.view().eval_one(val)
    }

    /// Evaluates the whole scenario batch: `result[s][p]` is the value of
    /// polynomial `p` under valuation `s`. The densified lookup table is
    /// reused across scenarios.
    pub fn eval_all(&self, vals: &[Valuation<C>]) -> Vec<Vec<C>> {
        self.view().eval_all(vals)
    }

    /// The semantics-equivalence bridge: reconstructs the hash-map-backed
    /// [`PolySet`] this compiled form denotes. `compile` then `to_polyset`
    /// is the identity up to [`Polynomial`] equality (tested), which is
    /// what makes the compiled evaluator a drop-in replacement.
    pub fn to_polyset(&self) -> PolySet<C> {
        self.view().to_polyset()
    }
}

/// A borrowed view of the six compiled columns — the common currency of
/// every evaluator.
///
/// The slices can come from a live [`CompiledPolySet`]
/// ([`CompiledPolySet::view`]) or be resliced straight out of a durable
/// artifact's mapped bytes ([`crate::persist::SharedCompiled::view`]);
/// the evaluation engines (the columnar sweep here, the lane kernels in
/// [`crate::simd`], the batch executor in `provabs-scenario`) cannot tell
/// the difference — which is exactly what makes the zero-copy load path
/// a drop-in.
#[derive(Debug)]
pub struct CompiledView<'a, C> {
    /// One coefficient per monomial, in evaluation order.
    pub(crate) coeffs: &'a [C],
    /// Per monomial: exclusive end of its factor range (prefix ends).
    pub(crate) mono_ends: &'a [u32],
    /// Per polynomial: exclusive end of its monomial range.
    pub(crate) poly_ends: &'a [u32],
    /// Dense batch-local variable index per factor.
    pub(crate) factor_vars: &'a [u32],
    /// Exponent per factor (≥ 1 by monomial canonicalisation).
    pub(crate) factor_exps: &'a [u32],
    /// Local index → original variable (the densification order).
    pub(crate) vars: &'a [VarId],
}

// Manual impls: a view of six slices is Copy regardless of whether `C`
// itself is (a derive would demand `C: Copy`/`C: Clone`).
impl<C> Clone for CompiledView<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<C> Copy for CompiledView<'_, C> {}

impl<'a, C: Coefficient> CompiledView<'a, C> {
    /// Number of polynomials.
    pub fn num_polys(&self) -> usize {
        self.poly_ends.len()
    }

    /// Whether the compiled set contains no polynomials.
    pub fn is_empty(&self) -> bool {
        self.poly_ends.is_empty()
    }

    /// Total number of monomials across all polynomials (`|𝒫|_M`).
    pub fn num_monomials(&self) -> usize {
        self.coeffs.len()
    }

    /// Total number of variable factors in the arena.
    pub fn num_factors(&self) -> usize {
        self.factor_vars.len()
    }

    /// Number of distinct variables (`|𝒫|_V`, the densified index space).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The densification order: local index `i` stands for `vars()[i]`.
    pub fn vars(&self) -> &'a [VarId] {
        self.vars
    }

    /// Densifies a sparse valuation into the batch-local lookup table:
    /// `table[i]` is the value of local variable `i`.
    pub fn valuation_table(&self, val: &Valuation<C>) -> Vec<C> {
        let mut table = Vec::with_capacity(self.vars.len());
        self.valuation_table_into(val, &mut table);
        table
    }

    /// [`valuation_table`](Self::valuation_table) into a caller-owned
    /// buffer (cleared and refilled; see
    /// [`CompiledPolySet::valuation_table_into`]).
    pub fn valuation_table_into(&self, val: &Valuation<C>, table: &mut Vec<C>) {
        table.clear();
        table.extend(self.vars.iter().map(|&v| val.get(v)));
    }

    /// Evaluates every polynomial against a dense lookup table produced by
    /// [`valuation_table`](Self::valuation_table), appending one value per
    /// polynomial to `out`.
    ///
    /// # Panics
    /// Panics if `table` is shorter than [`num_vars`](Self::num_vars).
    pub fn eval_into(&self, table: &[C], out: &mut Vec<C>) {
        assert!(table.len() >= self.vars.len(), "valuation table too short");
        out.reserve(self.poly_ends.len());
        let mut mono = 0usize;
        let mut fac = 0usize;
        for &poly_end in self.poly_ends {
            let mut acc = C::zero();
            while mono < poly_end as usize {
                let fac_end = self.mono_ends[mono] as usize;
                let mut term = self.coeffs[mono].clone();
                while fac < fac_end {
                    let v = &table[self.factor_vars[fac] as usize];
                    let e = self.factor_exps[fac];
                    // Small-exponent fast path: `pow(1)` is the identity
                    // for every lawful coefficient and the inlined squares
                    // below reproduce `pow`'s multiply tree exactly
                    // (multiplication by `one()` is exact and IEEE-754
                    // multiplication is commutative), so skipping the
                    // `pow` call never changes a bit — the scalar engine
                    // pays no `powi`-shaped overhead the lane kernels
                    // (`crate::simd`) have specialised away.
                    term = match e {
                        1 => term.mul(v),
                        2 => term.mul(&v.mul(v)),
                        3 => term.mul(&v.mul(v).mul(v)),
                        _ => term.mul(&v.pow(e)),
                    };
                    fac += 1;
                }
                acc = acc.add(&term);
                mono += 1;
            }
            out.push(acc);
        }
    }

    /// Evaluates every polynomial under one valuation (one value per
    /// polynomial, same order and bit-identical values as
    /// [`Valuation::eval_set`]).
    pub fn eval_one(&self, val: &Valuation<C>) -> Vec<C> {
        let table = self.valuation_table(val);
        let mut out = Vec::new();
        self.eval_into(&table, &mut out);
        out
    }

    /// Evaluates the whole scenario batch: `result[s][p]` is the value of
    /// polynomial `p` under valuation `s`. The densified lookup table is
    /// reused across scenarios.
    pub fn eval_all(&self, vals: &[Valuation<C>]) -> Vec<Vec<C>> {
        let mut table = Vec::with_capacity(self.vars.len());
        vals.iter()
            .map(|val| {
                self.valuation_table_into(val, &mut table);
                let mut out = Vec::new();
                self.eval_into(&table, &mut out);
                out
            })
            .collect()
    }

    /// The semantics-equivalence bridge: reconstructs the hash-map-backed
    /// [`PolySet`] these columns denote (see
    /// [`CompiledPolySet::to_polyset`]).
    pub fn to_polyset(&self) -> PolySet<C> {
        let mut polys = Vec::with_capacity(self.poly_ends.len());
        let mut mono = 0usize;
        let mut fac = 0usize;
        for &poly_end in self.poly_ends {
            let mut p = Polynomial::zero();
            while mono < poly_end as usize {
                let fac_end = self.mono_ends[mono] as usize;
                let factors = (fac..fac_end)
                    .map(|i| (self.vars[self.factor_vars[i] as usize], self.factor_exps[i]));
                p.add_term(Monomial::from_factors(factors), self.coeffs[mono].clone());
                fac = fac_end;
                mono += 1;
            }
            polys.push(p);
        }
        PolySet::from_vec(polys)
    }

    /// Rebuilds an owned [`CompiledPolySet`] by copying the six columns —
    /// how a session opened from an artifact detaches from the mapping
    /// when it needs an owned lowering.
    pub fn to_owned_set(&self) -> CompiledPolySet<C> {
        CompiledPolySet {
            coeffs: self.coeffs.to_vec(),
            mono_ends: self.mono_ends.to_vec(),
            poly_ends: self.poly_ends.to_vec(),
            factor_vars: self.factor_vars.to_vec(),
            factor_exps: self.factor_exps.to_vec(),
            vars: self.vars.to_vec(),
        }
    }
}

/// Converts an arena length into a `u32` prefix end, guarding overflow.
fn arena_end(len: usize) -> u32 {
    u32::try_from(len).expect("arena exceeds u32::MAX entries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeff::Rational;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn poly(terms: &[(&[(u32, u32)], f64)]) -> Polynomial<f64> {
        Polynomial::from_terms(terms.iter().map(|(fs, c)| {
            (
                Monomial::from_factors(fs.iter().map(|&(i, e)| (v(i), e))),
                *c,
            )
        }))
    }

    fn sample() -> PolySet<f64> {
        PolySet::from_vec(vec![
            poly(&[(&[(1, 1), (2, 1)], 2.0), (&[(1, 2)], 3.0)]),
            poly(&[(&[(7, 1)], 4.0), (&[], 5.0)]),
            poly(&[]),
        ])
    }

    #[test]
    fn arena_shapes_match_the_polyset() {
        let polys = sample();
        let c = CompiledPolySet::compile(&polys);
        assert_eq!(c.num_polys(), 3);
        assert_eq!(c.num_monomials(), polys.size_m());
        assert_eq!(c.num_vars(), polys.size_v());
        assert_eq!(c.num_factors(), 4); // v1·v2, v1², v7, 1
        assert!(!c.is_empty());
        assert!(c.estimated_bytes() > 0);
    }

    #[test]
    fn eval_matches_hashmap_bit_for_bit() {
        let polys = sample();
        let c = CompiledPolySet::compile(&polys);
        let vals = [
            Valuation::neutral(),
            Valuation::neutral().set(v(1), 3.0).set(v(2), -0.5),
            Valuation::with_default(0.25).set(v(7), 1e9),
        ];
        for val in &vals {
            let fast = c.eval_one(val);
            let slow = val.eval_set(&polys);
            assert_eq!(fast.len(), slow.len());
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
        let batch = c.eval_all(&vals);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], c.eval_one(&vals[0]));
    }

    #[test]
    fn roundtrip_bridge_preserves_semantics() {
        let polys = sample();
        let c = CompiledPolySet::compile(&polys);
        let back = c.to_polyset();
        assert_eq!(back.len(), polys.len());
        for (a, b) in back.iter().zip(polys.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_polyset_and_empty_batch() {
        let polys: PolySet<f64> = PolySet::new();
        let c = CompiledPolySet::compile(&polys);
        assert!(c.is_empty());
        assert_eq!(c.eval_one(&Valuation::neutral()), Vec::<f64>::new());
        assert_eq!(c.eval_all(&[]), Vec::<Vec<f64>>::new());
    }

    #[test]
    fn zero_polynomials_evaluate_to_zero() {
        let polys = PolySet::from_vec(vec![Polynomial::<f64>::zero(), poly(&[(&[(1, 1)], 2.0)])]);
        let c = CompiledPolySet::compile(&polys);
        let out = c.eval_one(&Valuation::neutral().set(v(1), 10.0));
        assert_eq!(out, vec![0.0, 20.0]);
    }

    #[test]
    fn exponents_use_the_lookup_table() {
        // 2·x²·y at x=3, y=5 → 90 (mirrors the hashmap eval test).
        let polys = PolySet::from_vec(vec![poly(&[(&[(1, 2), (2, 1)], 2.0)])]);
        let c = CompiledPolySet::compile(&polys);
        let val = Valuation::neutral().set(v(1), 3.0).set(v(2), 5.0);
        assert_eq!(c.eval_one(&val), vec![90.0]);
    }

    #[test]
    fn generic_coefficients_compile_too() {
        let p: Polynomial<Rational> = Polynomial::from_terms([
            (Monomial::from_vars([v(1)]), Rational::new(1, 2)),
            (Monomial::from_vars([v(2)]), Rational::int(3)),
        ]);
        let polys = PolySet::from_vec(vec![p]);
        let c = CompiledPolySet::compile(&polys);
        let val = Valuation::neutral().set(v(1), Rational::int(4));
        assert_eq!(c.eval_one(&val), val.eval_set(&polys));
        assert_eq!(c.eval_one(&val), vec![Rational::int(5)]);
    }

    #[test]
    fn densification_is_first_occurrence_order() {
        let polys = PolySet::from_vec(vec![poly(&[(&[(9, 1)], 1.0)]), poly(&[(&[(4, 1)], 1.0)])]);
        let c = CompiledPolySet::compile(&polys);
        assert_eq!(c.vars(), &[v(9), v(4)]);
        let table = c.valuation_table(&Valuation::neutral().set(v(4), 2.0));
        assert_eq!(table, vec![1.0, 2.0]);
    }

    #[test]
    fn from_working_matches_compile_semantics() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        let frozen = CompiledPolySet::from_working(&ws);
        assert_eq!(frozen.num_polys(), polys.len());
        assert_eq!(frozen.num_monomials(), polys.size_m());
        assert_eq!(frozen.num_vars(), polys.size_v());
        // The frozen form denotes the same poly-set.
        let back = frozen.to_polyset();
        for (a, b) in back.iter().zip(polys.iter()) {
            assert_eq!(a, b);
        }
        // Its values agree with the hash-map evaluator (exactly here: the
        // sample sums are short enough to be order-insensitive).
        let val = Valuation::neutral().set(v(1), 3.0).set(v(7), -2.0);
        let fast = frozen.eval_one(&val);
        let slow = val.eval_set(&polys);
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn from_working_tracks_rewrites() {
        let polys = sample();
        let mut ws = WorkingSet::from_polyset(&polys);
        // v2 and v7 occur in distinct monomials (group-compatible).
        ws.apply_group(&[v(2), v(7)], v(30), &[0, 1]);
        let frozen = CompiledPolySet::from_working(&ws);
        let expected = polys.map_vars(|x| if x == v(2) || x == v(7) { v(30) } else { x });
        assert_eq!(frozen.num_monomials(), expected.size_m());
        for (a, b) in frozen.to_polyset().iter().zip(expected.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "valuation table too short")]
    fn short_table_panics() {
        let polys = sample();
        let c = CompiledPolySet::compile(&polys);
        let mut out = Vec::new();
        c.eval_into(&[1.0], &mut out);
    }
}
