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
//! [`CompiledPolySet`] lowers a poly-set once into flat, contiguous
//! columns (struct-of-arrays):
//!
//! ```text
//! coeffs      [c0, c1, c2, ...]       one per monomial
//! mono_ends   [2, 3, 5, ...]          factor-range end per monomial — only
//!                                     when monomials differ in factor count;
//!                                     otherwise one degree d (monomial m
//!                                     spans factors m·d .. m·d + d)
//! poly_ends   [2, 3, ...]             monomial-range end per polynomial
//! factor_vars [0, 1, 2, 0, 3, ...]    dense local variable index per factor:
//!                                     u16 up to 65 536 variables, u32 above
//! power_at    [2, ...]                positions of the factors raised to a
//! power_exp   [2, ...]                power ≥ 2, and that power (sorted by
//!                                     position; every other factor is ^1)
//! vars        [v7, v2, v9, v4, ...]   local index → original variable
//! ```
//!
//! Variables are densified into a batch-local index space, so a
//! valuation becomes a plain `Vec<C>` lookup table: evaluation is a single
//! linear sweep over the columns with direct slice indexing — no hashing,
//! no pointer chasing. Evaluation visits monomials in exactly the order
//! [`Polynomial::iter`] yields them, so results are bit-for-bit identical
//! to the hash-map path (floating-point summation order is preserved).
//!
//! The layout is sized by what provenance looks like (ADRs 013 and 020):
//! an exponent is almost always 1, so exponents are stored only where
//! they are not; a few hundred variables index in two bytes; and the
//! monomials of one query's provenance all join the same relations, so
//! they all have the same number of factors, which is then stored once
//! instead of as a prefix end per monomial. Every choice follows from the
//! data alone — the index is narrow exactly when the set has at most
//! [`NARROW_VARS`] variables, `mono_ends` exists exactly when two
//! monomials differ in factor count — so equal poly-sets lower to equal
//! columns, and the artifact codec ([`crate::persist`]) refuses columns
//! in any other shape.

use crate::coeff::Coefficient;
use crate::fxhash::FxHashSet;
use crate::intern::VarSpace;
use crate::monomial::Monomial;
use crate::polynomial::Polynomial;
use crate::polyset::PolySet;
use crate::valuation::Valuation;
use crate::var::VarId;
use crate::working::WorkingSet;

/// The most variables a set may have and still index them in a `u16`.
pub const NARROW_VARS: usize = 1 << 16;

/// One element of the factor-index column: a dense local variable index,
/// two or four bytes wide.
pub(crate) trait LocalIdx: Copy {
    /// The index as a table offset.
    fn at(self) -> usize;
}

impl LocalIdx for u16 {
    #[inline]
    fn at(self) -> usize {
        usize::from(self)
    }
}

impl LocalIdx for u32 {
    #[inline]
    fn at(self) -> usize {
        self as usize
    }
}

/// The factor-index column of an owned set. Which variant a set has is a
/// function of its variable count alone: narrow up to [`NARROW_VARS`],
/// wide above.
#[derive(Clone, Debug)]
pub(crate) enum FactorVars {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl FactorVars {
    fn with_capacity(num_vars: usize, factors: usize) -> Self {
        if num_vars <= NARROW_VARS {
            FactorVars::Narrow(Vec::with_capacity(factors))
        } else {
            FactorVars::Wide(Vec::with_capacity(factors))
        }
    }

    fn as_ref(&self) -> FactorVarsRef<'_> {
        match self {
            FactorVars::Narrow(f) => FactorVarsRef::Narrow(f),
            FactorVars::Wide(f) => FactorVarsRef::Wide(f),
        }
    }
}

/// The factor-index column of a [`CompiledView`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum FactorVarsRef<'a> {
    Narrow(&'a [u16]),
    Wide(&'a [u32]),
}

impl FactorVarsRef<'_> {
    pub(crate) fn len(self) -> usize {
        match self {
            FactorVarsRef::Narrow(f) => f.len(),
            FactorVarsRef::Wide(f) => f.len(),
        }
    }

    /// Bytes per index.
    pub(crate) fn width(self) -> usize {
        match self {
            FactorVarsRef::Narrow(_) => 2,
            FactorVarsRef::Wide(_) => 4,
        }
    }

    fn get(self, fac: usize) -> usize {
        match self {
            FactorVarsRef::Narrow(f) => f[fac].at(),
            FactorVarsRef::Wide(f) => f[fac].at(),
        }
    }
}

/// Where each monomial's factor range ends, in an owned set. Which variant
/// a set has is a function of its monomials alone: `Uniform` exactly when
/// they all have the same number of factors (`0` for a set without
/// monomials), `Ends` otherwise.
#[derive(Clone, Debug)]
pub(crate) enum MonoEnds {
    /// Every monomial has this many factors: monomial `m` spans factors
    /// `m·d .. m·d + d`.
    Uniform(u32),
    /// Per monomial, the exclusive end of its factor range (prefix ends;
    /// the start is the previous entry, 0 for the first).
    Ends(Vec<u32>),
}

impl MonoEnds {
    fn as_ref(&self) -> MonoEndsRef<'_> {
        match self {
            MonoEnds::Uniform(d) => MonoEndsRef::Uniform(*d),
            MonoEnds::Ends(e) => MonoEndsRef::Ends(e),
        }
    }
}

/// Where each monomial's factor range ends, in a [`CompiledView`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum MonoEndsRef<'a> {
    Uniform(u32),
    Ends(&'a [u32]),
}

/// How a kernel finds the end of a monomial's factor range: one
/// implementation per layout, so each kernel is instantiated per layout
/// and the uniform one never loads an end.
pub(crate) trait FactorRanges: Copy {
    /// The exclusive end of monomial `mono`'s factors, which start at
    /// `start`.
    fn end(self, mono: usize, start: usize) -> usize;
}

/// The uniform layout as a kernel reads it: every monomial has `D`
/// factors or, for `D = 0`, as many as the field says. The degrees join
/// provenance has — 2 and 3 — are dispatched as constants, so a kernel's
/// factor loop unrolls into straight-line code; any other degree reads
/// the field.
#[derive(Clone, Copy)]
pub(crate) struct Degree<const D: usize>(usize);

impl<const D: usize> FactorRanges for Degree<D> {
    #[inline]
    fn end(self, _mono: usize, start: usize) -> usize {
        start + if D == 0 { self.0 } else { D }
    }
}

impl FactorRanges for &[u32] {
    #[inline]
    fn end(self, mono: usize, _start: usize) -> usize {
        self[mono] as usize
    }
}

impl FactorRanges for MonoEndsRef<'_> {
    #[inline]
    fn end(self, mono: usize, start: usize) -> usize {
        match self {
            MonoEndsRef::Uniform(d) => Degree::<0>(d as usize).end(mono, start),
            MonoEndsRef::Ends(e) => e.end(mono, start),
        }
    }
}

/// One evaluation kernel over a view's columns, written once and
/// instantiated by [`CompiledView::dispatch`] per factor-index width, per
/// factor-range layout and per whether the set has any factor that is not
/// `^1` (without one, `POWERS` is false and the power columns are never
/// read).
pub(crate) trait Sweep {
    fn sweep<I: LocalIdx, R: FactorRanges, const POWERS: bool>(self, factor_vars: &[I], ranges: R);
}

/// A forward reader of the power columns: the exponent of each factor
/// position, asked for in increasing order.
pub(crate) struct PowerCursor<'a> {
    at: &'a [u32],
    exp: &'a [u32],
    next: usize,
}

impl<'a> PowerCursor<'a> {
    pub(crate) fn new(at: &'a [u32], exp: &'a [u32]) -> Self {
        Self { at, exp, next: 0 }
    }

    /// The exponent of the factor at `fac`. Every position must be asked
    /// for, in order: an exception that is skipped is never found again.
    #[inline]
    pub(crate) fn exp_at(&mut self, fac: usize) -> u32 {
        match self.at.get(self.next) {
            Some(&at) if at as usize == fac => {
                let exp = self.exp[self.next];
                self.next += 1;
                exp
            }
            _ => 1,
        }
    }
}

/// A [`PolySet`] lowered into flat columns for batch evaluation.
///
/// Build one with [`CompiledPolySet::compile`], then evaluate scenarios
/// with [`eval_one`](CompiledPolySet::eval_one) /
/// [`eval_all`](CompiledPolySet::eval_all). The compiled form is
/// immutable; re-compile after abstraction changes the poly-set. Every
/// column is allocated once, at the size it ends with.
#[derive(Clone, Debug)]
pub struct CompiledPolySet<C> {
    /// One coefficient per monomial, in evaluation order.
    pub(crate) coeffs: Vec<C>,
    /// Where each monomial's factor range in `factor_vars` ends: the one
    /// degree of a set whose monomials all have it, prefix ends otherwise.
    pub(crate) mono_ends: MonoEnds,
    /// Per polynomial: exclusive end of its monomial range in `coeffs`.
    pub(crate) poly_ends: Vec<u32>,
    /// Dense batch-local variable index per factor.
    pub(crate) factor_vars: FactorVars,
    /// Positions in `factor_vars` of the factors whose exponent is not 1,
    /// strictly increasing.
    pub(crate) power_at: Vec<u32>,
    /// The exponent (≥ 2) of the factor at the same index of `power_at`.
    pub(crate) power_exp: Vec<u32>,
    /// Local index → original variable (the densification order).
    pub(crate) vars: Vec<VarId>,
}

/// What a lowering is going to hold, counted before any column exists so
/// each is allocated once, at its final size and width.
#[derive(Default)]
struct Shape {
    monos: usize,
    factors: usize,
    powers: usize,
    total_degree: u64,
    vars: FxHashSet<VarId>,
    /// The factor count of the first monomial, and whether any later one
    /// differs from it.
    degree: Option<usize>,
    mixed: bool,
}

impl Shape {
    fn term(&mut self, factors: impl Iterator<Item = (VarId, u32)>) {
        self.monos += 1;
        let first = self.factors;
        for (v, e) in factors {
            self.factors += 1;
            self.powers += usize::from(e > 1);
            self.total_degree += u64::from(e);
            self.vars.insert(v);
        }
        let degree = self.factors - first;
        self.mixed |= *self.degree.get_or_insert(degree) != degree;
    }

    /// The factor-range layout the data calls for, allocated at its size.
    fn mono_ends(&self) -> MonoEnds {
        if self.mixed {
            MonoEnds::Ends(Vec::with_capacity(self.monos))
        } else {
            MonoEnds::Uniform(arena_end(self.degree.unwrap_or(0)))
        }
    }
}

/// The columns of a lowering while its terms are pushed, in evaluation
/// order, into the room a [`Shape`] measured.
struct Lowering<C> {
    set: CompiledPolySet<C>,
    space: VarSpace,
}

impl<C: Coefficient> Lowering<C> {
    fn sized(shape: &Shape, polys: usize) -> Self {
        // The format's two limits (ADR 013): factor positions and any
        // sum of exponents fit a `u32`.
        arena_end(shape.factors);
        assert!(
            shape.total_degree <= u64::from(u32::MAX),
            "total degree exceeds u32::MAX"
        );
        Self {
            set: CompiledPolySet {
                coeffs: Vec::with_capacity(shape.monos),
                mono_ends: shape.mono_ends(),
                poly_ends: Vec::with_capacity(polys),
                factor_vars: FactorVars::with_capacity(shape.vars.len(), shape.factors),
                power_at: Vec::with_capacity(shape.powers),
                power_exp: Vec::with_capacity(shape.powers),
                vars: Vec::new(),
            },
            space: VarSpace::with_capacity(shape.vars.len()),
        }
    }

    fn term(&mut self, coeff: &C, factors: impl Iterator<Item = (VarId, u32)>) {
        let set = &mut self.set;
        set.coeffs.push(coeff.clone());
        for (v, e) in factors {
            let local = self.space.local(v);
            if e > 1 {
                set.power_at.push(arena_end(set.factor_vars.as_ref().len()));
                set.power_exp.push(e);
            }
            match &mut set.factor_vars {
                FactorVars::Narrow(f) => {
                    f.push(u16::try_from(local).expect("a narrow set has ≤ 65 536 variables"))
                }
                FactorVars::Wide(f) => f.push(local),
            }
        }
        if let MonoEnds::Ends(ends) = &mut set.mono_ends {
            ends.push(arena_end(set.factor_vars.as_ref().len()));
        }
    }

    fn end_poly(&mut self) {
        self.set.poly_ends.push(arena_end(self.set.coeffs.len()));
    }

    fn finish(mut self) -> CompiledPolySet<C> {
        self.set.vars = self.space.into_vars();
        debug_assert_eq!(
            matches!(self.set.factor_vars, FactorVars::Narrow(_)),
            self.set.vars.len() <= NARROW_VARS
        );
        self.set
    }
}

impl<C: Coefficient> CompiledPolySet<C> {
    /// Lowers `polys` into the columnar form: one pass to count, one to
    /// write, so every column is allocated exactly once.
    pub fn compile(polys: &PolySet<C>) -> Self {
        let mut shape = Shape::default();
        for p in polys.iter() {
            for (m, _) in p.iter() {
                shape.term(m.factors());
            }
        }
        let mut lowering = Lowering::sized(&shape, polys.len());
        for p in polys.iter() {
            for (m, c) in p.iter() {
                lowering.term(c, m.factors());
            }
            lowering.end_poly();
        }
        lowering.finish()
    }

    /// Freezes an interned [`WorkingSet`] into the columnar evaluation
    /// form by re-slicing its arena — the monomials are read straight out
    /// of the shared [`MonoArena`](crate::intern::MonoArena), so no
    /// intermediate [`PolySet`] (and no monomial re-hashing) is involved.
    /// This is how the abstraction pipeline hands its rewritten `𝒫↓S` to
    /// the evaluator.
    ///
    /// Each polynomial's monomials are laid out as its run stores them,
    /// in ascending id order (matching [`WorkingSet::to_polyset`]), which
    /// is deterministic for a given working set. Note that this order
    /// generally differs from the hash-map iteration order
    /// [`compile`](Self::compile) preserves, so floating-point sums may
    /// differ from the `to_polyset` → `compile` round-trip in the last
    /// bit; term *sets* and exact-coefficient results are identical (see
    /// the `intern_equivalence` suite).
    pub fn from_working(ws: &WorkingSet<C>) -> Self {
        let mut shape = Shape::default();
        for pi in 0..ws.num_polys() {
            for &id in ws.poly_mono_ids(pi) {
                shape.term(ws.mono(id).factors());
            }
        }
        let mut lowering = Lowering::sized(&shape, ws.num_polys());
        for pi in 0..ws.num_polys() {
            for (id, c) in ws.poly_terms(pi) {
                lowering.term(c, ws.mono(id).factors());
            }
            lowering.end_poly();
        }
        lowering.finish()
    }

    /// Borrows the columns as a [`CompiledView`] — the form every
    /// evaluation entry point actually consumes, and the type a
    /// memory-mapped artifact ([`crate::persist`]) produces without
    /// materialising a `CompiledPolySet` at all.
    pub fn view(&self) -> CompiledView<'_, C> {
        CompiledView {
            coeffs: &self.coeffs,
            mono_ends: self.mono_ends.as_ref(),
            poly_ends: &self.poly_ends,
            factor_vars: self.factor_vars.as_ref(),
            power_at: &self.power_at,
            power_exp: &self.power_exp,
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
        self.view().num_factors()
    }

    /// Number of distinct variables (`|𝒫|_V`, the densified index space).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The densification order: local index `i` stands for `vars()[i]`.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Heap footprint of the columns in bytes — compare with
    /// [`PolySet::estimated_bytes`] to see the columnar saving. A lowering
    /// allocates each column at its final size, so this is also the size
    /// of the data held.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        let factor_vars = match &self.factor_vars {
            FactorVars::Narrow(f) => f.capacity() * size_of::<u16>(),
            FactorVars::Wide(f) => f.capacity() * size_of::<u32>(),
        };
        let mono_ends = match &self.mono_ends {
            MonoEnds::Uniform(_) => 0,
            MonoEnds::Ends(e) => e.capacity(),
        };
        self.coeffs.capacity() * size_of::<C>()
            + (mono_ends
                + self.poly_ends.capacity()
                + self.power_at.capacity()
                + self.power_exp.capacity())
                * size_of::<u32>()
            + factor_vars
            + self.vars.capacity() * size_of::<VarId>()
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

/// A borrowed view of the compiled columns — the common currency of
/// every evaluator.
///
/// The slices can come from a live [`CompiledPolySet`]
/// ([`CompiledPolySet::view`]) or be resliced straight out of a durable
/// artifact's mapped bytes ([`crate::persist::SharedCompiled::view`]);
/// the evaluation engines (the columnar sweep here, the lane kernels in
/// [`crate::simd`], the batch executor in `provabs-scenario`) cannot tell
/// the difference — which is exactly what makes the zero-copy load path
/// a drop-in.
///
/// Whoever builds one (the lowerings here, the artifact validator)
/// guarantees what the kernels index by: monotone prefix ends that cover
/// their columns — or, for a uniform set, exactly `d` factors per
/// monomial — every factor index below `vars.len()`, `power_at` strictly
/// increasing below the factor count with `power_exp` beside it.
#[derive(Debug)]
pub struct CompiledView<'a, C> {
    /// One coefficient per monomial, in evaluation order.
    pub(crate) coeffs: &'a [C],
    /// Where each monomial's factor range ends: one degree, or prefix ends.
    pub(crate) mono_ends: MonoEndsRef<'a>,
    /// Per polynomial: exclusive end of its monomial range.
    pub(crate) poly_ends: &'a [u32],
    /// Dense batch-local variable index per factor.
    pub(crate) factor_vars: FactorVarsRef<'a>,
    /// Positions of the factors whose exponent is not 1, increasing.
    pub(crate) power_at: &'a [u32],
    /// The exponent (≥ 2) of the factor at the same index of `power_at`.
    pub(crate) power_exp: &'a [u32],
    /// Local index → original variable (the densification order).
    pub(crate) vars: &'a [VarId],
}

// Manual impls: a view of slices is Copy regardless of whether `C`
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

    /// Bytes each factor spends on its variable index: 2 for a set of at
    /// most [`NARROW_VARS`] variables, 4 above.
    pub fn factor_index_bytes(&self) -> usize {
        self.factor_vars.width()
    }

    /// The number of factors every monomial has, when they all have the
    /// same — the set then stores that one number instead of a prefix
    /// end per monomial. `None` for a set whose monomials differ in
    /// factor count (and so keep a `u32` end each); `Some(0)` for a set
    /// without monomials.
    pub fn uniform_degree(&self) -> Option<usize> {
        match self.mono_ends {
            MonoEndsRef::Uniform(d) => Some(d as usize),
            MonoEndsRef::Ends(_) => None,
        }
    }

    /// Runs `kernel` on the instantiation these columns call for: by
    /// index width, by factor-range layout (a uniform degree of 2 or 3 as
    /// a constant, any other read at run time, or the stored ends) and by
    /// whether any factor has a power. The one place the three choices
    /// are made.
    pub(crate) fn dispatch(&self, kernel: impl Sweep) {
        match self.factor_vars {
            FactorVarsRef::Narrow(f) => self.dispatch_ranges(f, kernel),
            FactorVarsRef::Wide(f) => self.dispatch_ranges(f, kernel),
        }
    }

    fn dispatch_ranges<I: LocalIdx>(&self, factor_vars: &[I], kernel: impl Sweep) {
        match self.mono_ends {
            MonoEndsRef::Uniform(2) => self.dispatch_powers(factor_vars, Degree::<2>(2), kernel),
            MonoEndsRef::Uniform(3) => self.dispatch_powers(factor_vars, Degree::<3>(3), kernel),
            MonoEndsRef::Uniform(d) => {
                self.dispatch_powers(factor_vars, Degree::<0>(d as usize), kernel)
            }
            MonoEndsRef::Ends(e) => self.dispatch_powers(factor_vars, e, kernel),
        }
    }

    fn dispatch_powers<I: LocalIdx, R: FactorRanges>(
        &self,
        factor_vars: &[I],
        ranges: R,
        kernel: impl Sweep,
    ) {
        if self.power_at.is_empty() {
            kernel.sweep::<I, R, false>(factor_vars, ranges)
        } else {
            kernel.sweep::<I, R, true>(factor_vars, ranges)
        }
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
        self.dispatch(ScalarSweep {
            view: *self,
            table,
            out,
        });
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

    /// Hands `visit` every term in evaluation order: the index of its
    /// polynomial, its coefficient and its factors *as stored* — canonical
    /// when the columns came from a lowering; in any order, a variable
    /// possibly repeated, when they were admitted from an artifact.
    pub(crate) fn for_each_term(&self, mut visit: impl FnMut(usize, &C, &mut Vec<(VarId, u32)>)) {
        let mut powers = PowerCursor::new(self.power_at, self.power_exp);
        let mut factors = Vec::new();
        let mut mono = 0usize;
        let mut fac = 0usize;
        for (pi, &poly_end) in self.poly_ends.iter().enumerate() {
            while mono < poly_end as usize {
                let fac_end = self.mono_ends.end(mono, fac);
                factors.clear();
                factors.extend(
                    (fac..fac_end)
                        .map(|at| (self.vars[self.factor_vars.get(at)], powers.exp_at(at))),
                );
                visit(pi, &self.coeffs[mono], &mut factors);
                fac = fac_end;
                mono += 1;
            }
        }
    }

    /// The semantics-equivalence bridge: reconstructs the hash-map-backed
    /// [`PolySet`] these columns denote (see
    /// [`CompiledPolySet::to_polyset`]).
    pub fn to_polyset(&self) -> PolySet<C> {
        let mut polys = vec![Polynomial::zero(); self.poly_ends.len()];
        self.for_each_term(|pi, c, factors| {
            polys[pi].add_term(Monomial::from_factors(factors.drain(..)), c.clone());
        });
        PolySet::from_vec(polys)
    }
}

/// The scalar sweep: one scenario's lookup table, one value per
/// polynomial appended to `out`.
struct ScalarSweep<'v, 'o, C> {
    view: CompiledView<'v, C>,
    table: &'v [C],
    out: &'o mut Vec<C>,
}

impl<C: Coefficient> Sweep for ScalarSweep<'_, '_, C> {
    fn sweep<I: LocalIdx, R: FactorRanges, const POWERS: bool>(self, factor_vars: &[I], ranges: R) {
        let Self { view, table, out } = self;
        let mut powers = PowerCursor::new(view.power_at, view.power_exp);
        let mut mono = 0usize;
        let mut fac = 0usize;
        for &poly_end in view.poly_ends {
            let mut acc = C::zero();
            while mono < poly_end as usize {
                let fac_end = ranges.end(mono, fac);
                let mut term = view.coeffs[mono].clone();
                while fac < fac_end {
                    let v = &table[factor_vars[fac].at()];
                    let e = if POWERS { powers.exp_at(fac) } else { 1 };
                    // The inlined squares reproduce `pow`'s multiply tree
                    // exactly (multiplication by `one()` is exact and
                    // IEEE-754 multiplication is commutative), so going
                    // around the `pow` call never changes a bit.
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
}

/// Converts an arena length into a `u32` prefix end, guarding overflow.
fn arena_end(len: usize) -> u32 {
    u32::try_from(len).expect("arena exceeds u32::MAX entries")
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(c.power_exp, [2], "v1² is the one factor that is not ^1");
    }

    /// Bytes of data a set holds: what its columns' lengths add up to.
    fn data_bytes<C: Coefficient>(c: &CompiledPolySet<C>) -> usize {
        let ends = match &c.mono_ends {
            MonoEnds::Uniform(_) => 0,
            MonoEnds::Ends(e) => e.len(),
        };
        c.coeffs.len() * std::mem::size_of::<C>()
            + 4 * (ends + c.poly_ends.len() + c.vars.len())
            + 8 * c.power_at.len()
            + c.view().factor_index_bytes() * c.num_factors()
    }

    #[test]
    fn every_column_is_allocated_at_its_final_size() {
        let polys = sample();
        let compiled = CompiledPolySet::compile(&polys);
        assert_eq!(compiled.estimated_bytes(), data_bytes(&compiled));
        let mut ws = WorkingSet::from_polyset(&polys);
        ws.apply_group(&[v(2), v(7)], v(30), &[0, 1]);
        let frozen = ws.freeze();
        assert_eq!(frozen.estimated_bytes(), data_bytes(&frozen));
        assert_eq!(frozen.power_at.len(), frozen.power_exp.len());
        let empty = CompiledPolySet::<f64>::compile(&PolySet::new());
        assert_eq!(empty.estimated_bytes(), 0);
    }

    #[test]
    fn the_degree_is_stored_once_when_every_monomial_has_it() {
        // v1·v2, v1², v7 and 1: four monomials, three factor counts.
        let mixed = CompiledPolySet::compile(&sample());
        assert!(matches!(&mixed.mono_ends, MonoEnds::Ends(e) if e.len() == 4));
        assert_eq!(mixed.view().uniform_degree(), None);
        // Two factors each; a power does not change a factor count.
        let polys = PolySet::from_vec(vec![
            poly(&[(&[(1, 1), (2, 1)], 2.0), (&[(1, 2), (3, 1)], 3.0)]),
            poly(&[]),
            poly(&[(&[(7, 1), (2, 1)], 4.0)]),
        ]);
        let val = Valuation::neutral()
            .set(v(1), 1.5)
            .set(v(2), -0.25)
            .set(v(7), 3.0);
        for c in [
            CompiledPolySet::compile(&polys),
            WorkingSet::from_polyset(&polys).freeze(),
        ] {
            assert!(matches!(c.mono_ends, MonoEnds::Uniform(2)));
            assert_eq!(c.view().uniform_degree(), Some(2));
            assert_eq!(c.estimated_bytes(), data_bytes(&c));
            for (a, b) in c.eval_one(&val).iter().zip(&val.eval_set(&polys)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
            for (a, b) in c.to_polyset().iter().zip(polys.iter()) {
                assert_eq!(a, b);
            }
        }
        // Constants alone are degree 0; so is a set without monomials.
        let constants = PolySet::from_vec(vec![poly(&[(&[], 5.0)]), poly(&[(&[], -1.0)])]);
        let c = CompiledPolySet::compile(&constants);
        assert!(matches!(c.mono_ends, MonoEnds::Uniform(0)));
        assert_eq!(c.eval_one(&val), vec![5.0, -1.0]);
        let empty = CompiledPolySet::<f64>::compile(&PolySet::new());
        assert_eq!(empty.view().uniform_degree(), Some(0));
    }

    /// `n` variables, one single-variable monomial each, two to a
    /// polynomial.
    fn chain(n: u32) -> PolySet<f64> {
        let term = |i: u32| (Monomial::var(v(i)), f64::from(i % 7) + 0.5);
        PolySet::from_vec(
            (0..n)
                .step_by(2)
                .map(|i| Polynomial::from_terms((i..n.min(i + 2)).map(term)))
                .collect(),
        )
    }

    #[test]
    fn the_index_is_narrow_up_to_65536_variables_and_wide_above() {
        for (n, width) in [(NARROW_VARS as u32, 2), (NARROW_VARS as u32 + 1, 4)] {
            let polys = chain(n);
            for c in [
                CompiledPolySet::compile(&polys),
                WorkingSet::from_polyset(&polys).freeze(),
            ] {
                assert_eq!(c.num_vars(), n as usize);
                assert_eq!(c.view().factor_index_bytes(), width, "{n} variables");
                assert_eq!(c.estimated_bytes(), data_bytes(&c));
                // The last variable (local index n − 1) is addressable.
                let val = Valuation::neutral().set(v(n - 1), 4.0);
                let fast = c.eval_one(&val);
                let slow = val.eval_set(&polys);
                assert!(fast
                    .iter()
                    .zip(&slow)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                assert_eq!(c.to_polyset().iter().last(), polys.iter().last());
            }
        }
    }

    #[test]
    fn powers_are_found_wherever_they_sit() {
        // First factor, last factor, two in one monomial, none, and past
        // the unrolled 2/3 into the squaring tree.
        let polys = PolySet::from_vec(vec![
            poly(&[(&[(1, 3), (2, 1)], 2.0), (&[(1, 1), (2, 1)], 0.5)]),
            poly(&[
                (&[(1, 2), (2, 7)], -1.5),
                (&[(3, 1)], 4.0),
                (&[(3, 5)], 1.0),
            ]),
        ]);
        let c = CompiledPolySet::compile(&polys);
        assert_eq!(c.power_at.len(), 4);
        assert!(c.power_at.windows(2).all(|w| w[0] < w[1]));
        let val = Valuation::neutral()
            .set(v(1), 1.25)
            .set(v(2), -0.75)
            .set(v(3), 3.0);
        for (a, b) in c.eval_one(&val).iter().zip(&val.eval_set(&polys)) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        for (a, b) in c.to_polyset().iter().zip(polys.iter()) {
            assert_eq!(a, b);
        }
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
        let p: Polynomial<i64> = Polynomial::from_terms([
            (Monomial::from_vars([v(1)]), -2),
            (Monomial::from_vars([v(2)]), 3),
        ]);
        let polys = PolySet::from_vec(vec![p]);
        let c = CompiledPolySet::compile(&polys);
        let val = Valuation::neutral().set(v(1), 4);
        assert_eq!(c.eval_one(&val), val.eval_set(&polys));
        assert_eq!(c.eval_one(&val), vec![-5]);
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
