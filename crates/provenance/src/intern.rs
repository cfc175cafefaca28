//! The shared monomial-interning core — the one provenance currency.
//!
//! Every stage of the pipeline (engine emission → abstraction rewriting →
//! compiled scenario evaluation) needs the same thing: distinct monomials
//! held exactly once, addressed by dense `u32` ids, with cheap indexes
//! over them. Before this module existed the codebase kept three private
//! copies of that idea — the interning map of
//! [`crate::working::WorkingSet`], the variable densifier of
//! [`crate::compiled::CompiledPolySet`], and the per-operator merge maps
//! of the engine — and converted between them through hash-map-backed
//! [`crate::polyset::PolySet`]s at every crate boundary.
//!
//! [`MonoArena`] is the extracted, shared core:
//!
//! * an **append-only arena** of distinct [`Monomial`]s with dense
//!   [`MonoId`]s — once a monomial is interned its id never changes, so
//!   ids may flow across layers without re-canonicalising or re-hashing
//!   the monomial;
//! * a **postings index** `variable → sorted monomial ids`, the inverted
//!   index group substitutions and candidate scoring probe;
//! * the **memoised remainder index** `(monomial, variable) → (remainder,
//!   exponent)` — the `M_l` operation of §4.1 of the paper, valid forever
//!   because the arena only grows;
//! * a **product memo** `(monomial, monomial) → product`, which turns the
//!   `⊗` of provenance-semiring joins into a single hash probe once a
//!   pair has been seen.
//!
//! [`VarSpace`] is the matching variable densifier: original [`VarId`]s
//! mapped to a dense batch-local `u32` space in first-occurrence order,
//! shared by the compiled evaluator's lowering paths.

use crate::coeff::Coefficient;
use crate::fxhash::FxHashMap;
use crate::monomial::Monomial;
use crate::var::VarId;
use std::hash::Hash;

/// Dense id of an interned monomial within a [`MonoArena`].
pub type MonoId = u32;

/// Adds `coeff` to `map[key]`, dropping the entry when the sum cancels
/// to exactly zero — the one accumulate-and-drop rule every polynomial
/// representation shares ([`Polynomial::add_term`], the working set's
/// id-keyed terms, the engine's interned aggregation). Keeping it in one
/// place keeps the zero-cancellation semantics from diverging between
/// currencies.
///
/// [`Polynomial::add_term`]: crate::polynomial::Polynomial::add_term
pub fn accumulate<K: Eq + Hash, C: Coefficient>(map: &mut FxHashMap<K, C>, key: K, coeff: C) {
    if coeff.is_zero() {
        return;
    }
    use std::collections::hash_map::Entry;
    match map.entry(key) {
        Entry::Occupied(mut e) => {
            let sum = e.get().add(&coeff);
            if sum.is_zero() {
                e.remove();
            } else {
                e.insert(sum);
            }
        }
        Entry::Vacant(e) => {
            e.insert(coeff);
        }
    }
}

/// A dense, first-occurrence-ordered mapping of [`VarId`]s into a local
/// `u32` index space.
///
/// This is the densification step of the compiled evaluator (a valuation
/// becomes a flat lookup table indexed by local id), extracted so every
/// lowering — [`CompiledPolySet::compile`] and
/// [`CompiledPolySet::from_working`] — shares one implementation.
///
/// [`CompiledPolySet::compile`]: crate::compiled::CompiledPolySet::compile
/// [`CompiledPolySet::from_working`]: crate::compiled::CompiledPolySet::from_working
#[derive(Clone, Debug, Default)]
pub struct VarSpace {
    /// Local index → original variable, in first-occurrence order.
    vars: Vec<VarId>,
    /// Original variable → local index.
    index: FxHashMap<VarId, u32>,
}

impl VarSpace {
    /// An empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The local index of `v`, assigning the next dense index on first
    /// sight.
    pub fn local(&mut self, v: VarId) -> u32 {
        if let Some(&i) = self.index.get(&v) {
            return i;
        }
        let i = u32::try_from(self.vars.len()).expect("more than u32::MAX variables");
        self.vars.push(v);
        self.index.insert(v, i);
        i
    }

    /// The local index of `v`, if it has been assigned.
    pub fn get(&self, v: VarId) -> Option<u32> {
        self.index.get(&v).copied()
    }

    /// The original variable behind local index `i`.
    pub fn var_of(&self, i: u32) -> VarId {
        self.vars[i as usize]
    }

    /// Number of densified variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variable has been densified yet.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The densification order as a slice: local index `i` stands for
    /// `as_slice()[i]`.
    pub fn as_slice(&self) -> &[VarId] {
        &self.vars
    }

    /// Consumes the space, returning the densification order.
    pub fn into_vars(self) -> Vec<VarId> {
        self.vars
    }
}

/// An append-only arena of distinct monomials with dense ids, postings,
/// and the memoised remainder/product indexes. See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct MonoArena {
    /// The interned monomials; `MonoId` indexes this vector.
    monos: Vec<Monomial>,
    /// Interning map over the arena.
    ids: FxHashMap<Monomial, MonoId>,
    /// `variable → sorted monomial ids containing it`. Covers every arena
    /// entry (callers filter against their own liveness).
    postings: FxHashMap<VarId, Vec<MonoId>>,
    /// Memoised remainders: `(monomial, removed variable) → (remainder,
    /// exponent)`. Valid forever (append-only arena).
    remainders: FxHashMap<(MonoId, VarId), (MonoId, u32)>,
    /// Memoised products, keyed with the smaller id first (monomial
    /// multiplication is commutative).
    products: FxHashMap<(MonoId, MonoId), MonoId>,
}

impl MonoArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct monomials interned so far.
    pub fn len(&self) -> usize {
        self.monos.len()
    }

    /// Whether the arena holds no monomial.
    pub fn is_empty(&self) -> bool {
        self.monos.is_empty()
    }

    /// Interns `mono`, registering a fresh id in the postings index on
    /// first sight. Ids grow monotonically, so postings stay sorted by
    /// construction.
    pub fn intern(&mut self, mono: Monomial) -> MonoId {
        if let Some(&id) = self.ids.get(&mono) {
            return id;
        }
        self.push_new(mono)
    }

    /// [`intern`](Self::intern) for a monomial given as its canonical
    /// factor slice (see [`Monomial::from_canonical`]): a monomial the
    /// arena already holds costs one lookup and no allocation — the
    /// steady state of engine emission, where a few thousand distinct
    /// monomials recur over millions of rows.
    pub fn intern_factors(&mut self, factors: &[(VarId, u32)]) -> MonoId {
        if let Some(&id) = self.ids.get(factors) {
            return id;
        }
        self.push_new(Monomial::from_canonical(factors))
    }

    /// Appends a monomial known to be absent.
    fn push_new(&mut self, mono: Monomial) -> MonoId {
        let id = MonoId::try_from(self.monos.len()).expect("more than u32::MAX monomials");
        for v in mono.vars() {
            self.postings.entry(v).or_default().push(id);
        }
        self.monos.push(mono.clone());
        self.ids.insert(mono, id);
        id
    }

    /// The id of `mono`, if it has been interned.
    pub fn get(&self, mono: &Monomial) -> Option<MonoId> {
        self.ids.get(mono).copied()
    }

    /// The interned monomial behind `id`.
    pub fn mono(&self, id: MonoId) -> &Monomial {
        &self.monos[id as usize]
    }

    /// The unit monomial's id (interning it on first use).
    pub fn one(&mut self) -> MonoId {
        self.intern(Monomial::one())
    }

    /// Sorted ids of the arena monomials containing `v` (empty if `v`
    /// never occurred). Includes ids that callers may no longer consider
    /// live — probe your own term maps to filter.
    pub fn postings_of(&self, v: VarId) -> &[MonoId] {
        self.postings.get(&v).map_or(&[], Vec::as_slice)
    }

    /// The memoised `M_l` operation: remainder id and exponent of `v` in
    /// monomial `id` (`v` must occur in it).
    pub fn remainder(&mut self, id: MonoId, v: VarId) -> (MonoId, u32) {
        if let Some(&r) = self.remainders.get(&(id, v)) {
            return r;
        }
        let (rem, exp) = self.monos[id as usize].remove_var(v);
        debug_assert!(exp > 0, "remainder of an absent variable");
        let rem_id = self.intern(rem);
        self.remainders.insert((id, v), (rem_id, exp));
        (rem_id, exp)
    }

    /// Interns the product `mono(a) · mono(b)`, memoised per unordered
    /// pair — the `⊗` of provenance-semiring joins in id space.
    pub fn mul(&mut self, a: MonoId, b: MonoId) -> MonoId {
        let key = (a.min(b), a.max(b));
        if let Some(&p) = self.products.get(&key) {
            return p;
        }
        let product = self.monos[a as usize].mul(&self.monos[b as usize]);
        let id = self.intern(product);
        self.products.insert(key, id);
        id
    }

    /// Interns `mono(id) · v^exp` — the re-attachment step of a group
    /// substitution (remainder times the target meta-variable).
    pub fn mul_factor(&mut self, id: MonoId, v: VarId, exp: u32) -> MonoId {
        let product = self.monos[id as usize].mul(&Monomial::from_factors([(v, exp)]));
        self.intern(product)
    }

    /// Rough heap footprint of the arena's monomial storage in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.monos
            .iter()
            .map(|m| m.num_vars() * std::mem::size_of::<(VarId, u32)>())
            .sum::<usize>()
            + self.monos.capacity() * std::mem::size_of::<Monomial>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut arena = MonoArena::new();
        let a = arena.intern(Monomial::from_vars([v(1), v(2)]));
        let b = arena.intern(Monomial::from_vars([v(2), v(1)])); // canonical equal
        let c = arena.intern(Monomial::var(v(3)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(&Monomial::var(v(3))), Some(c));
        assert_eq!(arena.get(&Monomial::var(v(9))), None);
    }

    #[test]
    fn interning_by_factor_slice_is_the_same_interning() {
        let mut arena = MonoArena::new();
        let a = arena.intern(Monomial::from_vars([v(2), v(1)]));
        assert_eq!(arena.intern_factors(&[(v(1), 1), (v(2), 1)]), a);
        let b = arena.intern_factors(&[(v(3), 2)]);
        assert_eq!(arena.intern(Monomial::from_factors([(v(3), 2)])), b);
        assert_eq!(arena.intern_factors(&[]), arena.one());
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.postings_of(v(3)), &[b]);
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let mut arena = MonoArena::new();
        let a = arena.intern(Monomial::from_vars([v(1), v(2)]));
        let b = arena.intern(Monomial::from_vars([v(1), v(3)]));
        assert_eq!(arena.postings_of(v(1)), &[a, b]);
        assert_eq!(arena.postings_of(v(3)), &[b]);
        assert!(arena.postings_of(v(9)).is_empty());
    }

    #[test]
    fn remainder_is_memoised_and_correct() {
        let mut arena = MonoArena::new();
        let m = arena.intern(Monomial::from_factors([(v(1), 2), (v(2), 1)]));
        let (rem, exp) = arena.remainder(m, v(1));
        assert_eq!(exp, 2);
        assert_eq!(arena.mono(rem), &Monomial::var(v(2)));
        // Second probe hits the memo (same ids back).
        assert_eq!(arena.remainder(m, v(1)), (rem, exp));
    }

    #[test]
    fn products_commute_and_memoise() {
        let mut arena = MonoArena::new();
        let a = arena.intern(Monomial::var(v(1)));
        let b = arena.intern(Monomial::from_factors([(v(1), 1), (v(2), 2)]));
        let ab = arena.mul(a, b);
        let ba = arena.mul(b, a);
        assert_eq!(ab, ba);
        assert_eq!(arena.mono(ab).exponent_of(v(1)), 2);
        assert_eq!(arena.mono(ab).exponent_of(v(2)), 2);
        let unit = arena.one();
        assert_eq!(arena.mul(a, unit), a);
    }

    #[test]
    fn mul_factor_reattaches_meta_variables() {
        let mut arena = MonoArena::new();
        let m = arena.intern(Monomial::var(v(8)));
        let merged = arena.mul_factor(m, v(20), 3);
        assert_eq!(arena.mono(merged).exponent_of(v(20)), 3);
        assert_eq!(arena.mono(merged).exponent_of(v(8)), 1);
    }

    #[test]
    fn var_space_densifies_in_first_occurrence_order() {
        let mut space = VarSpace::new();
        assert_eq!(space.local(v(9)), 0);
        assert_eq!(space.local(v(4)), 1);
        assert_eq!(space.local(v(9)), 0);
        assert_eq!(space.get(v(4)), Some(1));
        assert_eq!(space.get(v(7)), None);
        assert_eq!(space.var_of(0), v(9));
        assert_eq!(space.as_slice(), &[v(9), v(4)]);
        assert_eq!(space.len(), 2);
        assert!(!space.is_empty());
        assert_eq!(space.into_vars(), vec![v(9), v(4)]);
    }

    #[test]
    fn empty_arena_measures() {
        let arena = MonoArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
    }
}
