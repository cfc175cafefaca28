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
//!   index group substitutions and candidate scoring probe.
//!
//! The arena holds what some polynomial holds or held, and nothing
//! derived only to be compared: a remainder (the `M_l` of §4.1) is a
//! class key, never a term, so scoring builds none here (ADR 018).
//!
//! **Clones share, writers copy what they change** (ADR 017). The ids
//! `0..n` — their factors, ends and postings — are an immutable *prefix*
//! behind an `Arc`; the ids `n..` are a *tail*, also behind an `Arc`, and
//! so is the one interning table over both. A clone shares all three and
//! copies nothing. The first write of a clone *promotes*: a shared tail
//! over an empty prefix becomes the prefix as it is, a shared tail behind
//! a prefix — the few monomials a run derived — is copied, and a shared
//! table is copied once. Promotion moves no id: the postings of a
//! variable are the prefix's list followed by the tail's, ascending
//! either way, so every consumer sees the same arena it saw before.
//!
//! [`VarSpace`] is the matching variable densifier: original [`VarId`]s
//! mapped to a dense batch-local `u32` space in first-occurrence order,
//! shared by the compiled evaluator's lowering paths.

use crate::coeff::Coefficient;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::monomial::{is_canonical, MonoRef, Monomial};
use crate::var::VarId;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

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

/// An append-only arena of distinct monomials with dense ids and
/// postings. See the [module docs](self).
///
/// Storage is flat and holds each monomial once: every factor of every
/// monomial sits in a column, cut by prefix ends; interning probes an
/// open-addressed table of ids whose keys are the factor slices
/// themselves. Nothing is boxed per monomial, and a derived monomial
/// ([`ArenaWriter::substitute`]) is built in one reused buffer.
///
/// The columns of ids `0..n` are an immutable prefix and those of ids
/// `n..` a tail, each behind an `Arc` like the table: a clone allocates
/// nothing for them, and a writer copies only what is shared when it
/// first writes (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct MonoArena {
    /// Ids `0..prefix.len()`; never written once shared.
    prefix: Arc<Part>,
    /// Ids `prefix.len()..`; written only when this arena holds it alone.
    tail: Arc<Part>,
    /// The interning table over both parts.
    table: Arc<Table>,
    /// The buffer derived monomials are built in.
    scratch: Vec<(VarId, u32)>,
}

/// Consecutive ids' monomials: their factors and the postings of the ids.
#[derive(Clone, Debug, Default)]
struct Part {
    /// The factors of every monomial of the part, in id order.
    factors: Vec<(VarId, u32)>,
    /// Per monomial: exclusive end of its factor range in `factors` (the
    /// start is the previous entry, 0 for the first).
    ends: Vec<u32>,
    /// `variable index → ascending ids of the part's monomials containing
    /// it`. Covers every entry (callers filter against their own
    /// liveness).
    postings: Vec<Vec<MonoId>>,
}

/// The open-addressed interning table (linear probing, [`VACANT`] marks a
/// free slot). Its length is a power of two, at least twice the arena's;
/// a monomial's home slot is the top `64 - shift` bits of its hash.
#[derive(Clone, Debug, Default)]
struct Table {
    slots: Vec<MonoId>,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

/// A free slot of the interning table. No monomial gets this id.
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

/// A part's factor column and its ends, borrowed: what a lookup reads.
#[derive(Clone, Copy)]
struct Cols<'a> {
    factors: &'a [(VarId, u32)],
    ends: &'a [u32],
}

impl<'a> Cols<'a> {
    /// The range of the `i`-th monomial in the factor column.
    fn range(self, i: usize) -> Range<usize> {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        start..self.ends[i] as usize
    }

    /// The factors of the `i`-th monomial.
    fn get(self, i: usize) -> &'a [(VarId, u32)] {
        &self.factors[self.range(i)]
    }
}

impl Part {
    fn cols(&self) -> Cols<'_> {
        Cols {
            factors: &self.factors,
            ends: &self.ends,
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The factor slice of every monomial, in id order.
    fn monomials(&self) -> impl Iterator<Item = &[(VarId, u32)]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let factors = &self.factors[start..end as usize];
            start = end as usize;
            factors
        })
    }

    fn postings_of(&self, v: VarId) -> &[MonoId] {
        self.postings.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// Appends monomial `id`.
    fn push(&mut self, id: MonoId, factors: &[(VarId, u32)]) {
        self.factors.extend_from_slice(factors);
        self.ends
            .push(u32::try_from(self.factors.len()).expect("more than u32::MAX factors"));
        for &(v, _) in factors {
            if self.postings.len() <= v.index() {
                self.postings.resize_with(v.index() + 1, Vec::new);
            }
            self.postings[v.index()].push(id);
        }
    }

    /// Every column at its capacity.
    fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.factors.capacity() * size_of::<(VarId, u32)>()
            + self.ends.capacity() * size_of::<u32>()
            + self.postings.capacity() * size_of::<Vec<MonoId>>()
            + self
                .postings
                .iter()
                .map(|list| list.capacity() * size_of::<MonoId>())
                .sum::<usize>()
    }
}

/// The two parts read as one column: what every lookup goes through. An
/// id below the prefix's length is the prefix's, one compare.
#[derive(Clone, Copy)]
struct Parts<'a> {
    prefix: &'a Part,
    tail: &'a Part,
}

impl<'a> Parts<'a> {
    fn len(self) -> usize {
        self.prefix.len() + self.tail.len()
    }

    /// The factors of monomial `id`.
    fn slice(self, id: MonoId) -> &'a [(VarId, u32)] {
        let n = self.prefix.len();
        match id as usize {
            i if i < n => self.prefix.cols().get(i),
            i => self.tail.cols().get(i - n),
        }
    }

    /// The `at`-th id of `v`'s postings: the prefix's, then the tail's.
    fn posting(self, v: VarId, at: usize) -> MonoId {
        let head = self.prefix.postings_of(v);
        match head.get(at) {
            Some(&id) => id,
            None => self.tail.postings_of(v)[at - head.len()],
        }
    }

    /// Walks the probe sequence of `hash`: the id whose factors equal
    /// `factors`, or the free slot the walk ended on.
    fn probe(self, table: &Table, factors: &[(VarId, u32)], hash: u64) -> Result<MonoId, usize> {
        if table.slots.is_empty() {
            return Err(0);
        }
        let mask = table.slots.len() - 1;
        let mut at = (hash >> table.shift) as usize;
        // The two parts' columns, read once for the whole walk.
        let (prefix, tail) = (self.prefix.cols(), self.tail.cols());
        let n = prefix.ends.len();
        let slice = |id: MonoId| match id as usize {
            i if i < n => prefix.get(i),
            i => tail.get(i - n),
        };
        loop {
            match table.slots[at] {
                VACANT => return Err(at),
                id if slice(id) == factors => return Ok(id),
                _ => at = (at + 1) & mask,
            }
        }
    }
}

/// A [`MonoArena`] opened for writing by [`MonoArena::writer`]: its tail
/// and table are its own, so interning and the derived monomials run
/// without asking again whether they are shared. A producer that interns
/// many monomials in a row — an emitter, a lowering, a group rewrite —
/// opens one writer for all of them.
///
/// While it lives the writer holds the tail, the table and the scratch
/// buffer by value — a probe reaches them without a hop through the
/// arena's `Arc`s — and it hands them back when dropped: drop it before
/// reading the arena again.
pub struct ArenaWriter<'a> {
    prefix: &'a Part,
    tail: Part,
    table: Table,
    scratch: Vec<(VarId, u32)>,
    home: Home<'a>,
}

/// Where a writer's tail, table and buffer go back to.
struct Home<'a> {
    tail: &'a mut Part,
    table: &'a mut Table,
    scratch: &'a mut Vec<(VarId, u32)>,
}

impl Drop for ArenaWriter<'_> {
    fn drop(&mut self) {
        std::mem::swap(self.home.tail, &mut self.tail);
        std::mem::swap(self.home.table, &mut self.table);
        std::mem::swap(self.home.scratch, &mut self.scratch);
    }
}

impl ArenaWriter<'_> {
    fn parts(&self) -> Parts<'_> {
        Parts {
            prefix: self.prefix,
            tail: &self.tail,
        }
    }

    /// Number of distinct monomials interned so far.
    pub fn len(&self) -> usize {
        self.parts().len()
    }

    /// Whether the arena holds no monomial.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The interned monomial behind `id`.
    pub fn mono(&self, id: MonoId) -> MonoRef<'_> {
        MonoRef::from_canonical(self.parts().slice(id))
    }

    /// How many monomials contain `v`.
    pub(crate) fn postings_len(&self, v: VarId) -> usize {
        self.prefix.postings_of(v).len() + self.tail.postings_of(v).len()
    }

    /// The `at`-th of them, in ascending id.
    pub(crate) fn posting(&self, v: VarId, at: usize) -> MonoId {
        self.parts().posting(v, at)
    }

    /// [`MonoArena::intern_factors`], without opening the arena again.
    pub fn intern_factors(&mut self, factors: &[(VarId, u32)]) -> MonoId {
        let hash = hash_factors(factors);
        match self.parts().probe(&self.table, factors, hash) {
            Ok(id) => id,
            Err(slot) => self.push_new(factors, hash, slot),
        }
    }

    /// Appends a monomial known to be absent; `slot` is the free slot its
    /// probe ended on.
    fn push_new(&mut self, factors: &[(VarId, u32)], hash: u64, mut slot: usize) -> MonoId {
        debug_assert!(is_canonical(factors), "factors must be canonical");
        let len = self.len();
        let id = MonoId::try_from(len)
            .ok()
            .filter(|&id| id != VACANT)
            .expect("more monomials than ids");
        if (len + 1) * 2 > self.table.slots.len() {
            self.resize_table(len + 1);
            slot = self
                .parts()
                .probe(&self.table, factors, hash)
                .expect_err("the monomial is absent");
        }
        self.tail.push(id, factors);
        self.table.slots[slot] = id;
        id
    }

    /// Rebuilds the table with room for `monomials` monomials at no more
    /// than half load, hashing each part's factor column in one pass.
    fn resize_table(&mut self, monomials: usize) {
        let slots = (monomials * 2).next_power_of_two().max(MIN_TABLE);
        let table = &mut self.table;
        table.shift = 64 - slots.trailing_zeros();
        table.slots.clear();
        table.slots.resize(slots, VACANT);
        let mut id = 0;
        for part in [self.prefix, &self.tail] {
            for factors in part.monomials() {
                let mut at = (hash_factors(factors) >> table.shift) as usize;
                while table.slots[at] != VACANT {
                    at = (at + 1) & (slots - 1);
                }
                table.slots[at] = id;
                id += 1;
            }
        }
    }

    /// Interns monomial `id` with its factor of `v` replaced by `target`
    /// to the same power, added to `target`'s own if the monomial holds
    /// it too: `M_v · target^exp` in §4.1's terms, the one step a group
    /// substitution takes per occurrence. Only the product is built, in
    /// the scratch buffer; the remainder `M_v` never enters the arena.
    ///
    /// # Panics
    /// Panics if `v` does not occur in the monomial.
    pub fn substitute(&mut self, id: MonoId, v: VarId, target: VarId) -> MonoId {
        let mut scratch = std::mem::take(&mut self.scratch);
        let factors = self.parts().slice(id);
        let k = factors
            .iter()
            .position(|&(w, _)| w == v)
            .expect("substitution of an absent variable");
        let exp = factors[k].1;
        scratch.clear();
        scratch.extend_from_slice(&factors[..k]);
        scratch.extend_from_slice(&factors[k + 1..]);
        let at = scratch.partition_point(|&(w, _)| w < target);
        match scratch.get_mut(at) {
            Some((w, e)) if *w == target => *e += exp,
            _ => scratch.insert(at, (target, exp)),
        }
        let product = self.intern_factors(&scratch);
        self.scratch = scratch;
        product
    }
}

impl Clone for MonoArena {
    /// Shares the prefix, the tail and the table; starts with an empty
    /// scratch buffer.
    fn clone(&self) -> Self {
        Self {
            prefix: Arc::clone(&self.prefix),
            tail: Arc::clone(&self.tail),
            table: Arc::clone(&self.table),
            scratch: Vec::new(),
        }
    }
}

impl MonoArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena that takes `monomials` monomials of `factors`
    /// factors in total without growing a column or the table.
    pub fn with_capacity(monomials: usize, factors: usize) -> Self {
        let tail = Part {
            factors: Vec::with_capacity(factors),
            ends: Vec::with_capacity(monomials),
            postings: Vec::new(),
        };
        let mut arena = Self {
            tail: Arc::new(tail),
            ..Self::default()
        };
        arena.writer().resize_table(monomials);
        arena
    }

    fn parts(&self) -> Parts<'_> {
        Parts {
            prefix: &self.prefix,
            tail: &self.tail,
        }
    }

    /// Opens the arena for writing — once per operation, not once per
    /// monomial: whether the tail and the table are shared is decided
    /// here, with two atomic operations, and the writer then interns
    /// without asking again. (The per-call [`intern_factors`] opens one
    /// on a miss; a loop over many monomials should open its own.)
    ///
    /// Promotes what is shared: a shared tail over an empty prefix
    /// becomes the prefix (no copy), a shared tail behind a prefix is
    /// copied, a shared table is copied. No id moves.
    ///
    /// [`intern_factors`]: Self::intern_factors
    pub fn writer(&mut self) -> ArenaWriter<'_> {
        let Self {
            prefix,
            tail,
            table,
            scratch,
        } = self;
        if prefix.ends.is_empty() && Arc::strong_count(tail) > 1 {
            *prefix = std::mem::take(tail);
        }
        let home = Home {
            tail: Arc::make_mut(tail),
            table: Arc::make_mut(table),
            scratch,
        };
        ArenaWriter {
            prefix,
            tail: std::mem::take(home.tail),
            table: std::mem::take(home.table),
            scratch: std::mem::take(home.scratch),
            home,
        }
    }

    /// Number of distinct monomials interned so far.
    pub fn len(&self) -> usize {
        self.parts().len()
    }

    /// Whether the arena holds no monomial.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// for the monomial: a new one is appended to the factor column. A
    /// hit writes nothing, so it leaves what this arena shares shared.
    pub fn intern_factors(&mut self, factors: &[(VarId, u32)]) -> MonoId {
        let hash = hash_factors(factors);
        match self.parts().probe(&self.table, factors, hash) {
            Ok(id) => id,
            Err(slot) => self.writer().push_new(factors, hash, slot),
        }
    }

    /// The id of `mono`, if it has been interned.
    pub fn get(&self, mono: &Monomial) -> Option<MonoId> {
        let factors = mono.as_factors();
        self.parts()
            .probe(&self.table, factors, hash_factors(factors))
            .ok()
    }

    /// The interned monomial behind `id`, borrowed from the factor column.
    pub fn mono(&self, id: MonoId) -> MonoRef<'_> {
        MonoRef::from_canonical(self.parts().slice(id))
    }

    /// Every monomial, in id order: each part's factor column walked once,
    /// with no lookup per id.
    pub(crate) fn monomials(&self) -> impl Iterator<Item = MonoRef<'_>> {
        let parts = self.prefix.monomials().chain(self.tail.monomials());
        parts.map(MonoRef::from_canonical)
    }

    /// Ids of the arena monomials containing `v` (both empty if `v` never
    /// occurred): the prefix's, then the tail's — concatenated, they
    /// ascend. Includes ids that callers may no longer consider live —
    /// intersect with your own runs to filter.
    pub fn postings_of(&self, v: VarId) -> (&[MonoId], &[MonoId]) {
        (self.prefix.postings_of(v), self.tail.postings_of(v))
    }

    /// The arena of the entries `keep` marks, in their order — an entry's
    /// new id is its rank among them — and each old id's new one
    /// ([`VACANT`] where dropped). Reads only the factor columns, so this
    /// arena's table goes before the new one is built, and what it held
    /// is free for the new arena's columns.
    pub(crate) fn compacted(mut self, keep: &[bool]) -> (Self, Vec<MonoId>) {
        self.table = Arc::default();
        let kept = || self.monomials().zip(keep).filter(|&(_, &k)| k);
        let factors = kept().map(|(mono, _)| mono.num_vars()).sum();
        let mut arena = Self::with_capacity(kept().count(), factors);
        let mut writer = arena.writer();
        let mut new_id = |(mono, &k): (MonoRef<'_>, &bool)| match k {
            true => writer.intern_factors(mono.as_factors()),
            false => VACANT,
        };
        let new_ids = self.monomials().zip(keep).map(&mut new_id).collect();
        drop(writer);
        (arena, new_ids)
    }

    /// Heap footprint of the arena in bytes: the factor columns and their
    /// ends, the interning table, the postings lists and the scratch
    /// buffer, each at its capacity. This is the value's size, shared
    /// parts included: a clone reports what its source reports (less a
    /// scratch buffer it starts without), so a sum over clones counts
    /// what they share once per clone.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.prefix.estimated_bytes()
            + self.tail.estimated_bytes()
            + self.table.slots.capacity() * size_of::<MonoId>()
            + self.scratch.capacity() * size_of::<(VarId, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// `v`'s postings as one list.
    fn postings(arena: &MonoArena, v: VarId) -> Vec<MonoId> {
        let (prefix, tail) = arena.postings_of(v);
        prefix.iter().chain(tail).copied().collect()
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
        assert_eq!(postings(&arena, v(3)), [b]);
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let mut arena = MonoArena::new();
        let a = arena.intern(&Monomial::from_vars([v(1), v(2)]));
        let b = arena.intern(&Monomial::from_vars([v(1), v(3)]));
        assert_eq!(postings(&arena, v(1)), [a, b]);
        assert_eq!(postings(&arena, v(3)), [b]);
        assert!(postings(&arena, v(9)).is_empty());
    }

    #[test]
    fn substitute_replaces_a_factor_by_the_target() {
        let mut arena = MonoArena::new();
        let m = arena.intern(&Monomial::from_factors([(v(1), 3), (v(8), 1)]));
        let mut writer = arena.writer();
        // The power carries over, and the target goes where it sorts.
        let merged = writer.substitute(m, v(1), v(20));
        assert_eq!(writer.mono(merged).as_factors(), &[(v(8), 1), (v(20), 3)]);
        let front = writer.substitute(merged, v(8), v(3));
        assert_eq!(writer.mono(front).as_factors(), &[(v(3), 1), (v(20), 3)]);
        // A target the monomial already holds gains the power.
        let merged_in = writer.substitute(m, v(1), v(8));
        assert_eq!(writer.mono(merged_in).as_factors(), &[(v(8), 4)]);
        assert_eq!(writer.substitute(m, v(1), v(1)), m, "v ↦ v is the identity");
        drop(writer);
        assert_eq!(arena.len(), 4, "the products, and no remainder");
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
        let listed: usize = (0..43).map(|i| postings(&sized, v(i)).len()).sum();
        assert_eq!(listed, 2 * ids.len());
        assert_eq!(
            sized.tail.factors.capacity() + sized.table.slots.len(),
            2 * arena.len() + 2048
        );
        assert!(sized.estimated_bytes() > before, "postings were added");
    }

    #[test]
    fn a_clone_shares_until_it_writes_and_promotion_moves_no_id() {
        let mut source = MonoArena::new();
        let a = source.intern(&Monomial::from_vars([v(1), v(2)]));
        let b = source.intern(&Monomial::from_vars([v(1), v(3)]));
        let mut clone = source.clone();
        assert!(Arc::ptr_eq(&clone.tail, &source.tail) && Arc::ptr_eq(&clone.table, &source.table));
        // A hit writes nothing; the first miss promotes the shared tail
        // over an empty prefix to the prefix, as it is.
        assert_eq!(clone.intern_factors(&[(v(1), 1), (v(2), 1)]), a);
        assert!(Arc::ptr_eq(&clone.tail, &source.tail));
        let c = clone.intern(&Monomial::from_vars([v(1), v(4)]));
        assert!(Arc::ptr_eq(&clone.prefix, &source.tail));
        assert!(!Arc::ptr_eq(&clone.table, &source.table));
        assert_eq!((clone.len(), source.len()), (3, 2));
        assert_eq!(postings(&clone, v(1)), [a, b, c]);
        assert_eq!(postings(&source, v(1)), [a, b]);
        assert_eq!(source.get(&Monomial::from_vars([v(1), v(4)])), None);
        // A clone of the promoted clone shares both parts; its first
        // write copies the derived tail and keeps the prefix shared.
        let mut twin = clone.clone();
        let d = twin.writer().substitute(c, v(4), v(5));
        assert_eq!(twin.mono(d), Monomial::from_vars([v(1), v(5)]).view());
        assert!(Arc::ptr_eq(&twin.prefix, &clone.prefix));
        assert!(!Arc::ptr_eq(&twin.tail, &clone.tail));
        assert_eq!((twin.len(), clone.len()), (4, 3));
        assert_eq!(postings(&twin, v(1)), [a, b, c, d]);
        assert_eq!(postings(&clone, v(1)), [a, b, c]);
        assert_eq!(clone.estimated_bytes(), clone.clone().estimated_bytes());
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
