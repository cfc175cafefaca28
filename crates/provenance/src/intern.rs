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
//! * an **append-only arena** of distinct monomials with dense
//!   [`MonoId`]s, each held once in a flat factor column and read through
//!   a borrowed [`MonoRef`] — once a monomial is interned its id never
//!   changes, so ids may flow across layers without re-canonicalising or
//!   re-hashing the monomial ([`Monomial`] stays the owned value of the
//!   hash-map world);
//! * a **postings index** `variable → sorted monomial ids`, the inverted
//!   index group substitutions and candidate scoring probe;
//! * the **memoised remainder index** `(monomial, variable) → (remainder,
//!   exponent)` — the `M_l` operation of §4.1 of the paper, valid forever
//!   because the arena only grows.
//!
//! [`VarSpace`] is the matching variable densifier: original [`VarId`]s
//! mapped to a dense batch-local `u32` space in first-occurrence order,
//! shared by the compiled evaluator's lowering paths.

use crate::coeff::Coefficient;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::monomial::{is_canonical, MonoRef, Monomial};
use crate::var::VarId;
use std::hash::{Hash, Hasher};

/// Dense id of an interned monomial within a [`MonoArena`].
pub type MonoId = u32;

/// Adds `coeff` to `map[key]`, dropping the entry when the sum cancels
/// to exactly zero — the one accumulate-and-drop rule every hash-map
/// polynomial shares ([`Polynomial::add_term`], the engine's interned
/// aggregation; a working set's runs follow the same rule in a defined
/// order, see [`crate::working`]). Keeping it in one place keeps the
/// zero-cancellation semantics from diverging between currencies.
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

    /// An empty space that takes `vars` variables without growing.
    pub fn with_capacity(vars: usize) -> Self {
        let mut index = FxHashMap::default();
        index.reserve(vars);
        Self {
            vars: Vec::with_capacity(vars),
            index,
        }
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

/// An append-only arena of distinct monomials with dense ids, postings
/// and the memoised remainder index. See the [module docs](self).
///
/// Storage is flat and holds each monomial once: every factor of every
/// monomial sits in one column, cut by prefix ends; interning probes an
/// open-addressed table of ids whose keys are the factor slices
/// themselves. Nothing is boxed per monomial, so a clone is a few
/// `memcpy`s and an operation that derives a monomial ([`remainder`],
/// [`mul_factor`]) builds it in one reused buffer.
///
/// [`remainder`]: Self::remainder
/// [`mul_factor`]: Self::mul_factor
#[derive(Clone, Debug, Default)]
pub struct MonoArena {
    /// The factors of every monomial, in id order.
    factors: Vec<(VarId, u32)>,
    /// Per monomial: exclusive end of its factor range in `factors` (the
    /// start is the previous entry, 0 for the first).
    ends: Vec<u32>,
    /// Open-addressed interning table (linear probing, [`VACANT`] marks a
    /// free slot). Its length is a power of two, at least twice `ends`'s;
    /// a monomial's home slot is the top `64 - shift` bits of its hash.
    table: Vec<MonoId>,
    /// `64 - log2(table.len())`.
    shift: u32,
    /// `variable index → sorted ids of the monomials containing it`.
    /// Covers every arena entry (callers filter against their own
    /// liveness).
    postings: Vec<Vec<MonoId>>,
    /// Memoised remainders, parallel to a prefix of `factors`: the entry
    /// at a factor's position is the id of its monomial without that
    /// factor ([`VACANT`] until asked for; positions past the end have
    /// not been asked for either). Valid forever (append-only arena).
    remainders: Vec<MonoId>,
    /// The buffer derived monomials are built in.
    scratch: Vec<(VarId, u32)>,
}

/// A free slot of the interning table, an unset remainder. No monomial
/// gets this id.
const VACANT: MonoId = MonoId::MAX;

/// Slots of the smallest interning table.
const MIN_TABLE: usize = 8;

/// Hash of a canonical factor slice. [`MonoArena`] takes a slot index from
/// its top bits, which in a multiplicative hash depend on every input bit.
fn hash_factors(factors: &[(VarId, u32)]) -> u64 {
    let mut h = FxHasher::default();
    for &(v, e) in factors {
        h.write_u64(u64::from(v.0) << 32 | u64::from(e));
    }
    h.finish()
}

impl MonoArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena that takes `monomials` monomials of `factors`
    /// factors in total without growing a column or the table.
    pub fn with_capacity(monomials: usize, factors: usize) -> Self {
        let mut arena = Self {
            factors: Vec::with_capacity(factors),
            ends: Vec::with_capacity(monomials),
            ..Self::default()
        };
        arena.resize_table(monomials);
        arena
    }

    /// Number of distinct monomials interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the arena holds no monomial.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Interns `mono`; see [`intern_factors`](Self::intern_factors).
    pub fn intern(&mut self, mono: &Monomial) -> MonoId {
        self.intern_factors(mono.as_factors())
    }

    /// Interns the monomial with the canonical factor slice `factors`
    /// (strictly increasing variables, exponents ≥ 1 — what
    /// [`MonoRef::as_factors`] returns), registering a fresh id in the
    /// postings index on first sight. Ids grow monotonically, so postings
    /// stay sorted by construction. Neither a hit nor a miss allocates
    /// for the monomial: a new one is appended to the factor column.
    pub fn intern_factors(&mut self, factors: &[(VarId, u32)]) -> MonoId {
        let hash = hash_factors(factors);
        match self.probe(factors, hash) {
            Ok(id) => id,
            Err(slot) => self.push_new(factors, hash, slot),
        }
    }

    /// Walks the probe sequence of `hash`: the id whose factors equal
    /// `factors`, or the free slot the walk ended on.
    fn probe(&self, factors: &[(VarId, u32)], hash: u64) -> Result<MonoId, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mask = self.table.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        loop {
            match self.table[at] {
                VACANT => return Err(at),
                id if &self.factors[self.range_of(id)] == factors => return Ok(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Appends a monomial known to be absent; `slot` is the free slot its
    /// probe ended on.
    fn push_new(&mut self, factors: &[(VarId, u32)], hash: u64, mut slot: usize) -> MonoId {
        debug_assert!(is_canonical(factors), "factors must be canonical");
        let id = MonoId::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != VACANT)
            .expect("more monomials than ids");
        if (self.ends.len() + 1) * 2 > self.table.len() {
            self.resize_table(self.ends.len() + 1);
            slot = self
                .probe(factors, hash)
                .expect_err("the monomial is absent");
        }
        self.factors.extend_from_slice(factors);
        self.ends
            .push(u32::try_from(self.factors.len()).expect("more than u32::MAX factors"));
        for &(v, _) in factors {
            if self.postings.len() <= v.index() {
                self.postings.resize_with(v.index() + 1, Vec::new);
            }
            self.postings[v.index()].push(id);
        }
        self.table[slot] = id;
        id
    }

    /// Rebuilds the table with room for `monomials` monomials at no more
    /// than half load.
    fn resize_table(&mut self, monomials: usize) {
        let slots = (monomials * 2).next_power_of_two().max(MIN_TABLE);
        self.shift = 64 - slots.trailing_zeros();
        self.table.clear();
        self.table.resize(slots, VACANT);
        for id in 0..self.ends.len() as MonoId {
            let mut at = (hash_factors(&self.factors[self.range_of(id)]) >> self.shift) as usize;
            while self.table[at] != VACANT {
                at = (at + 1) & (slots - 1);
            }
            self.table[at] = id;
        }
    }

    /// The range of monomial `id` in the factor column.
    fn range_of(&self, id: MonoId) -> std::ops::Range<usize> {
        let start = match id {
            0 => 0,
            _ => self.ends[id as usize - 1],
        };
        start as usize..self.ends[id as usize] as usize
    }

    /// The id of `mono`, if it has been interned.
    pub fn get(&self, mono: &Monomial) -> Option<MonoId> {
        let factors = mono.as_factors();
        self.probe(factors, hash_factors(factors)).ok()
    }

    /// The interned monomial behind `id`, borrowed from the factor column.
    pub fn mono(&self, id: MonoId) -> MonoRef<'_> {
        MonoRef::from_canonical(&self.factors[self.range_of(id)])
    }

    /// Sorted ids of the arena monomials containing `v` (empty if `v`
    /// never occurred). Includes ids that callers may no longer consider
    /// live — intersect with your own runs to filter.
    pub fn postings_of(&self, v: VarId) -> &[MonoId] {
        self.postings.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// The memoised `M_l` operation: remainder id and exponent of `v` in
    /// monomial `id`.
    ///
    /// # Panics
    /// Panics if `v` does not occur in the monomial.
    pub fn remainder(&mut self, id: MonoId, v: VarId) -> (MonoId, u32) {
        let range = self.range_of(id);
        let at = range.start
            + self.factors[range.clone()]
                .iter()
                .position(|&(w, _)| w == v)
                .expect("remainder of an absent variable");
        let exp = self.factors[at].1;
        if let Some(&rem) = self.remainders.get(at).filter(|&&rem| rem != VACANT) {
            return (rem, exp);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(&self.factors[range.start..at]);
        scratch.extend_from_slice(&self.factors[at + 1..range.end]);
        let rem = self.intern_factors(&scratch);
        self.scratch = scratch;
        if self.remainders.len() < self.factors.len() {
            self.remainders.resize(self.factors.len(), VACANT);
        }
        self.remainders[at] = rem;
        (rem, exp)
    }

    /// Interns `mono(id) · v^exp` — the re-attachment step of a group
    /// substitution (remainder times the target meta-variable).
    pub fn mul_factor(&mut self, id: MonoId, v: VarId, exp: u32) -> MonoId {
        if exp == 0 {
            return id;
        }
        let range = self.range_of(id);
        let at = range.start + self.factors[range.clone()].partition_point(|&(w, _)| w < v);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(&self.factors[range.start..at]);
        match self.factors[at..range.end].first() {
            Some(&(w, e)) if w == v => {
                scratch.push((v, e + exp));
                scratch.extend_from_slice(&self.factors[at + 1..range.end]);
            }
            _ => {
                scratch.push((v, exp));
                scratch.extend_from_slice(&self.factors[at..range.end]);
            }
        }
        let product = self.intern_factors(&scratch);
        self.scratch = scratch;
        product
    }

    /// Heap footprint of the arena in bytes: the factor column and its
    /// prefix ends, the interning table, the postings lists, the
    /// remainder memo and the scratch buffer, each at its capacity.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.factors.capacity() + self.scratch.capacity()) * size_of::<(VarId, u32)>()
            + (self.ends.capacity() + self.table.capacity() + self.remainders.capacity())
                * size_of::<MonoId>()
            + self.postings.capacity() * size_of::<Vec<MonoId>>()
            + self
                .postings
                .iter()
                .map(|list| list.capacity() * size_of::<MonoId>())
                .sum::<usize>()
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
        let a = arena.intern(&Monomial::from_vars([v(1), v(2)]));
        let b = arena.intern(&Monomial::from_vars([v(2), v(1)])); // canonical equal
        let c = arena.intern(&Monomial::var(v(3)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(&Monomial::var(v(3))), Some(c));
        assert_eq!(arena.get(&Monomial::var(v(9))), None);
    }

    #[test]
    fn interning_by_factor_slice_is_the_same_interning() {
        let mut arena = MonoArena::new();
        let a = arena.intern(&Monomial::from_vars([v(2), v(1)]));
        assert_eq!(arena.intern_factors(&[(v(1), 1), (v(2), 1)]), a);
        let b = arena.intern_factors(&[(v(3), 2)]);
        assert_eq!(arena.intern(&Monomial::from_factors([(v(3), 2)])), b);
        assert_eq!(arena.intern_factors(&[]), arena.intern(&Monomial::one()));
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.postings_of(v(3)), &[b]);
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let mut arena = MonoArena::new();
        let a = arena.intern(&Monomial::from_vars([v(1), v(2)]));
        let b = arena.intern(&Monomial::from_vars([v(1), v(3)]));
        assert_eq!(arena.postings_of(v(1)), &[a, b]);
        assert_eq!(arena.postings_of(v(3)), &[b]);
        assert!(arena.postings_of(v(9)).is_empty());
    }

    #[test]
    fn remainder_is_memoised_and_correct() {
        let mut arena = MonoArena::new();
        let m = arena.intern(&Monomial::from_factors([(v(1), 2), (v(2), 1)]));
        let (rem, exp) = arena.remainder(m, v(1));
        assert_eq!(exp, 2);
        assert_eq!(arena.mono(rem), Monomial::var(v(2)).view());
        // Second probe hits the memo (same ids back, nothing interned).
        let len = arena.len();
        assert_eq!(arena.remainder(m, v(1)), (rem, exp));
        assert_eq!(arena.len(), len);
    }

    #[test]
    fn mul_factor_reattaches_meta_variables() {
        let mut arena = MonoArena::new();
        let m = arena.intern(&Monomial::var(v(8)));
        let merged = arena.mul_factor(m, v(20), 3);
        assert_eq!(arena.mono(merged).exponent_of(v(20)), 3);
        assert_eq!(arena.mono(merged).exponent_of(v(8)), 1);
        // A variable the monomial already has gains the exponent, and a
        // smaller one goes in front.
        let squared = arena.mul_factor(m, v(8), 1);
        assert_eq!(arena.mono(squared).as_factors(), &[(v(8), 2)]);
        assert_eq!(arena.mul_factor(m, v(5), 0), m, "v⁰ is the unit");
        let front = arena.mul_factor(merged, v(3), 1);
        assert_eq!(
            arena.mono(front).as_factors(),
            &[(v(3), 1), (v(8), 1), (v(20), 3)]
        );
    }

    #[test]
    fn ids_and_lookups_survive_table_growth() {
        let mut arena = MonoArena::new();
        let ids: Vec<MonoId> = (0..1000u32)
            .map(|i| arena.intern_factors(&[(v(i % 37), 1 + i / 37), (v(40 + i % 3), 1)]))
            .collect();
        assert_eq!(ids, (0..1000).collect::<Vec<MonoId>>());
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u32;
            let factors = [(v(i % 37), 1 + i / 37), (v(40 + i % 3), 1)];
            assert_eq!(arena.intern_factors(&factors), id);
            assert_eq!(arena.mono(id).as_factors(), &factors);
        }
        // A sized arena interns the same ids without growing anything.
        let mut sized = MonoArena::with_capacity(arena.len(), 2 * arena.len());
        let before = sized.estimated_bytes();
        for &id in &ids {
            assert_eq!(sized.intern_factors(arena.mono(id).as_factors()), id);
        }
        let postings: usize = (0..43).map(|i| sized.postings_of(v(i)).len()).sum();
        assert_eq!(postings, 2 * ids.len());
        assert_eq!(
            sized.factors.capacity() + sized.table.len(),
            2 * arena.len() + 2048
        );
        assert!(sized.estimated_bytes() > before, "postings were added");
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
        assert_eq!(arena.estimated_bytes(), 0);
    }
}
