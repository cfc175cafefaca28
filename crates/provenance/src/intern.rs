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
//! so is the interning table. A clone shares all three and copies
//! nothing. The first write of a clone *promotes*: a shared tail over an
//! empty prefix becomes the prefix as it is, and a shared tail behind a
//! prefix — the few monomials a run derived — is copied. Promotion moves
//! no id: the postings of a variable are the prefix's list followed by
//! the tail's, ascending either way, so every consumer sees the same
//! arena it saw before.
//!
//! **The interning table is an index built on first lookup** (ADR 026).
//! It holds the ids below its *watermark*. A writer that only appends
//! ([`ArenaWriter::append`], for a monomial the caller knows is absent)
//! never touches it; the first probe of a writer takes it — the arena's
//! own, a copy of a shared one that holds every id, or else a new one —
//! and puts in the ids appended since. So a compaction and an emitter of
//! distinct monomials build no table, and a group rewrite, which finds
//! its products among the monomials holding its target (`Products`),
//! never probes, copies or grows its source's.
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
/// themselves. Nothing is boxed per monomial.
///
/// The columns of ids `0..n` are an immutable prefix and those of ids
/// `n..` a tail, each behind an `Arc` like the table: a clone allocates
/// nothing for them, and a writer copies only what is shared when it
/// first writes (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct MonoArena {
    /// Ids `0..prefix.len()`; never written once shared.
    prefix: Arc<Part>,
    /// Ids `prefix.len()..`; written only when this arena holds it alone.
    tail: Arc<Part>,
    /// The interning table: an index of the ids below its watermark.
    table: Arc<Table>,
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

/// An open-addressed table of monomial ids keyed by their factor slices
/// (linear probing, [`VACANT`] marks a free slot). Its length is a power
/// of two, at least twice the number of ids it holds; an id's home slot
/// is the top `64 - shift` bits of its factors' hash.
///
/// An arena's table holds the ids `0..held` — its *watermark* — and a
/// writer puts in the ids past it when it first probes (ADR 026). A group
/// rewrite's ([`Products`]) holds the ids its products may equal.
#[derive(Clone, Debug, Default)]
struct Table {
    slots: Vec<MonoId>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    /// How many ids the table holds.
    held: usize,
}

/// A free slot of the interning table. No monomial gets this id.
const VACANT: MonoId = MonoId::MAX;

/// Slots of the smallest interning table.
const MIN_TABLE: usize = 8;

/// Hash of a canonical factor slice. A [`Table`] takes a slot index from
/// its top bits, which in a multiplicative hash depend on every input bit.
fn hash_factors(factors: &[(VarId, u32)]) -> u64 {
    let mut h = FxHasher::default();
    for &(v, e) in factors {
        h.write_u64(u64::from(v.0) << 32 | u64::from(e));
    }
    h.finish()
}

/// The id the arena's next monomial gets.
fn next_id(len: usize) -> MonoId {
    MonoId::try_from(len)
        .ok()
        .filter(|&id| id != VACANT)
        .expect("more monomials than ids")
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
        self.monomials_from(0)
    }

    /// The factor slices of the `i`-th monomial and those after it.
    fn monomials_from(&self, i: usize) -> impl Iterator<Item = &[(VarId, u32)]> {
        let mut start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        self.ends[i..].iter().map(move |&end| {
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

    /// The factors of a monomial by id, with the two parts' columns read
    /// once: what a probe walk compares against.
    fn slices(self) -> impl Fn(MonoId) -> &'a [(VarId, u32)] {
        let (prefix, tail) = (self.prefix.cols(), self.tail.cols());
        let n = prefix.ends.len();
        move |id| match id as usize {
            i if i < n => prefix.get(i),
            i => tail.get(i - n),
        }
    }

    /// The factors of monomial `id`.
    fn slice(self, id: MonoId) -> &'a [(VarId, u32)] {
        self.slices()(id)
    }

    /// The `at`-th id of `v`'s postings: the prefix's, then the tail's.
    fn posting(self, v: VarId, at: usize) -> MonoId {
        let head = self.prefix.postings_of(v);
        match head.get(at) {
            Some(&id) => id,
            None => self.tail.postings_of(v)[at - head.len()],
        }
    }

    fn postings_len(self, v: VarId) -> usize {
        self.prefix.postings_of(v).len() + self.tail.postings_of(v).len()
    }
}

impl Table {
    /// Empties the table and sizes it for `ids` ids at no more than half
    /// load.
    fn reset(&mut self, ids: usize) {
        let slots = (ids * 2).next_power_of_two().max(MIN_TABLE);
        self.shift = 64 - slots.trailing_zeros();
        self.slots.clear();
        self.slots.resize(slots, VACANT);
        self.held = 0;
    }

    /// Walks the probe sequence of `hash`: the id whose factors (read
    /// through `slices`) equal `factors`, or the free slot the walk ended
    /// on.
    fn find<'a>(
        &self,
        factors: &[(VarId, u32)],
        hash: u64,
        slices: impl Fn(MonoId) -> &'a [(VarId, u32)],
    ) -> Result<MonoId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        loop {
            match self.slots[at] {
                VACANT => return Err(at),
                id if slices(id) == factors => return Ok(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Puts `id` in `slot`, the free slot its probe ended on.
    fn fill(&mut self, slot: usize, id: MonoId) {
        debug_assert!(2 * self.held < self.slots.len(), "the table is half full");
        self.slots[slot] = id;
        self.held += 1;
    }

    /// Puts `id`, whose monomial the table does not hold, in the first
    /// free slot of `hash`'s walk.
    fn put(&mut self, hash: u64, id: MonoId) {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        while self.slots[at] != VACANT {
            at = (at + 1) & mask;
        }
        self.fill(at, id);
    }

    /// Empties the table, sizes it for `room` ids and puts in every id of
    /// `parts`.
    fn rebuild(&mut self, parts: Parts<'_>, room: usize) {
        self.reset(room);
        self.index(parts, 0);
    }

    /// Brings an arena's table up to every id of `parts`: the ids past the
    /// watermark are put in, or, if they would fill it past half, the
    /// table is rebuilt.
    fn catch_up(&mut self, parts: Parts<'_>) {
        let len = parts.len();
        if self.held == len {
            return;
        }
        match len * 2 > self.slots.len() {
            true => self.rebuild(parts, len + 1),
            false => self.index(parts, self.held),
        }
    }

    /// Doubles a rewrite's table, putting its ids in again. Only a rewrite
    /// over monomials that hold two group variables — which no polynomial
    /// of a forest-compatible set holds — derives more products than it
    /// started for ([`Products::start`]).
    fn grow(&mut self, parts: Parts<'_>) {
        let ids = std::mem::take(&mut self.slots);
        self.reset(self.held + 1);
        for id in ids.into_iter().filter(|&id| id != VACANT) {
            self.put(hash_factors(parts.slice(id)), id);
        }
    }

    /// Puts in the ids `from..` of `parts`, none of which it holds,
    /// walking each part's factor column once.
    fn index(&mut self, parts: Parts<'_>, from: usize) {
        let n = parts.prefix.len();
        let prefix = parts.prefix.monomials_from(from.min(n));
        let walk = prefix.chain(parts.tail.monomials_from(from.saturating_sub(n)));
        for (id, factors) in (from..).zip(walk) {
            self.put(hash_factors(factors), id as MonoId);
        }
    }
}

/// A [`MonoArena`] opened for writing by [`MonoArena::writer`]: its tail
/// is its own, so interning and appending run without asking again
/// whether it is shared. A producer that writes many monomials in a row
/// — an emitter, a lowering, a group rewrite — opens one writer for all
/// of them.
///
/// The interning table is taken only by the writer's first probe (ADR
/// 026): a writer that only appends never touches it.
///
/// While it lives the writer holds the tail and the table by value — a
/// probe reaches them without a hop through the arena's `Arc`s — and it
/// hands them back when dropped: drop it before reading the arena again.
pub struct ArenaWriter<'a> {
    prefix: &'a Part,
    tail: Part,
    /// The interning table once a probe has taken it.
    table: Option<Table>,
    home: Home<'a>,
}

/// Where a writer's tail and table go back to.
struct Home<'a> {
    tail: &'a mut Part,
    table: &'a mut Arc<Table>,
}

impl Drop for ArenaWriter<'_> {
    fn drop(&mut self) {
        std::mem::swap(self.home.tail, &mut self.tail);
        if let Some(table) = self.table.take() {
            match Arc::get_mut(self.home.table) {
                Some(own) => *own = table,
                None => *self.home.table = Arc::new(table),
            }
        }
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
        self.parts().postings_len(v)
    }

    /// The `at`-th of them, in ascending id.
    pub(crate) fn posting(&self, v: VarId, at: usize) -> MonoId {
        self.parts().posting(v, at)
    }

    /// [`MonoArena::intern_factors`], without opening the arena again.
    ///
    /// The first probe takes the arena's table: its own as it is, a copy
    /// of a shared one that holds every id, or else a new one; and every
    /// probe first puts in the ids appended since the last.
    pub fn intern_factors(&mut self, factors: &[(VarId, u32)]) -> MonoId {
        let hash = hash_factors(factors);
        let parts = Parts {
            prefix: self.prefix,
            tail: &self.tail,
        };
        let home = &mut self.home;
        let table = self.table.get_or_insert_with(|| {
            if let Some(own) = Arc::get_mut(home.table) {
                return std::mem::take(own);
            }
            match &**home.table {
                shared if shared.held == parts.len() => shared.clone(),
                _ => Table::default(),
            }
        });
        table.catch_up(parts);
        match table.find(factors, hash, parts.slices()) {
            Ok(id) => id,
            Err(slot) => self.push_new(factors, hash, slot),
        }
    }

    /// Appends a monomial known to be absent; `slot` is the free slot its
    /// probe ended on.
    fn push_new(&mut self, factors: &[(VarId, u32)], hash: u64, mut slot: usize) -> MonoId {
        debug_assert!(is_canonical(factors), "factors must be canonical");
        let len = self.len();
        let id = next_id(len);
        let table = self.table.as_mut().expect("a probe took the table");
        if (len + 1) * 2 > table.slots.len() {
            let parts = Parts {
                prefix: self.prefix,
                tail: &self.tail,
            };
            table.rebuild(parts, len + 1);
            slot = table
                .find(factors, hash, parts.slices())
                .expect_err("the monomial is absent");
        }
        self.tail.push(id, factors);
        table.fill(slot, id);
        id
    }

    /// Appends the monomial with the canonical factor slice `factors`,
    /// which the caller knows the arena does not hold, and returns its id:
    /// no probe, and the table is not touched — the next probe puts the id
    /// in. A producer whose monomials are distinct by construction (the
    /// entries of a compaction, a group rewrite's new products, the scale
    /// fixture's emission) appends them.
    ///
    /// Appending a monomial the arena holds gives it a second id, and a
    /// lookup may then find either: that is the caller's error.
    pub fn append(&mut self, factors: &[(VarId, u32)]) -> MonoId {
        debug_assert!(is_canonical(factors), "factors must be canonical");
        let id = next_id(self.len());
        self.tail.push(id, factors);
        id
    }
}

/// The products of one group rewrite — monomial `m` with its factor of a
/// group variable `v` replaced by the rewrite's target to the same power,
/// `M_v · target^e` in §4.1's terms — each found among the monomials it
/// may equal or appended (ADR 026).
///
/// A product holds the target, so the monomials it may equal are those
/// that held the target when the rewrite started and the products
/// appended since: the table holds exactly those, and a product finds the
/// id the arena's own table would have given it, without that table
/// being probed, copied or grown. Only the product is built, in one
/// reused buffer; the remainder `M_v` never enters the arena.
#[derive(Debug)]
pub(crate) struct Products {
    table: Table,
    target: VarId,
    /// The buffer a product is built in.
    buf: Vec<(VarId, u32)>,
}

impl Default for Products {
    fn default() -> Self {
        Self {
            table: Table::default(),
            target: VarId(0),
            buf: Vec::new(),
        }
    }
}

impl Products {
    /// Starts a rewrite into `target` that derives about `products`
    /// products through `writer`: the table is emptied, sized for them,
    /// and takes the monomials holding `target` now.
    pub(crate) fn start(&mut self, writer: &ArenaWriter<'_>, target: VarId, products: usize) {
        let (parts, seeds) = (writer.parts(), writer.postings_len(target));
        self.table.reset(seeds + products);
        self.target = target;
        for at in 0..seeds {
            let id = parts.posting(target, at);
            self.table.put(hash_factors(parts.slice(id)), id);
        }
    }

    /// The id of monomial `id` with its factor of `v` replaced by the
    /// target to the same power, added to the target's own if the
    /// monomial holds it too (so `v ↦ v` is the identity): the monomial
    /// the table holds, or a new one appended through `writer`.
    ///
    /// # Panics
    /// Panics if `v` does not occur in the monomial.
    pub(crate) fn product(&mut self, writer: &mut ArenaWriter<'_>, id: MonoId, v: VarId) -> MonoId {
        let (buf, target) = (&mut self.buf, self.target);
        let factors = writer.parts().slice(id);
        let k = factors
            .iter()
            .position(|&(w, _)| w == v)
            .expect("substitution of an absent variable");
        let exp = factors[k].1;
        buf.clear();
        buf.extend_from_slice(&factors[..k]);
        buf.extend_from_slice(&factors[k + 1..]);
        let at = buf.partition_point(|&(w, _)| w < target);
        match buf.get_mut(at) {
            Some((w, e)) if *w == target => *e += exp,
            _ => buf.insert(at, (target, exp)),
        }
        let hash = hash_factors(buf);
        match self.table.find(buf, hash, writer.parts().slices()) {
            Ok(product) => product,
            Err(mut slot) => {
                if 2 * (self.table.held + 1) > self.table.slots.len() {
                    self.table.grow(writer.parts());
                    slot = self
                        .table
                        .find(buf, hash, writer.parts().slices())
                        .expect_err("absent");
                }
                let product = writer.append(buf);
                self.table.fill(slot, product);
                product
            }
        }
    }

    /// The table and the buffer, at their capacity.
    pub(crate) fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.table.slots.capacity() * size_of::<MonoId>()
            + self.buf.capacity() * size_of::<(VarId, u32)>()
    }
}

impl MonoArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena whose columns take `monomials` monomials of
    /// `factors` factors in total without growing. The interning table is
    /// not sized here: a producer that only appends never builds one.
    pub fn with_capacity(monomials: usize, factors: usize) -> Self {
        let tail = Part {
            factors: Vec::with_capacity(factors),
            ends: Vec::with_capacity(monomials),
            postings: Vec::new(),
        };
        Self {
            tail: Arc::new(tail),
            ..Self::default()
        }
    }

    fn parts(&self) -> Parts<'_> {
        Parts {
            prefix: &self.prefix,
            tail: &self.tail,
        }
    }

    /// Opens the arena for writing — once per operation, not once per
    /// monomial: whether the tail is shared is decided here, with one
    /// atomic operation, and the writer then writes without asking again.
    /// (The per-call [`intern_factors`] opens one on a miss; a loop over
    /// many monomials should open its own.)
    ///
    /// Promotes a shared tail: over an empty prefix it becomes the prefix
    /// (no copy), behind a prefix it is copied. No id moves. The table is
    /// left where it is until the writer's first probe.
    ///
    /// [`intern_factors`]: Self::intern_factors
    pub fn writer(&mut self) -> ArenaWriter<'_> {
        let Self {
            prefix,
            tail,
            table,
        } = self;
        if prefix.ends.is_empty() && Arc::strong_count(tail) > 1 {
            *prefix = std::mem::take(tail);
        }
        let tail = Arc::make_mut(tail);
        ArenaWriter {
            prefix,
            tail: std::mem::take(tail),
            table: None,
            home: Home { tail, table },
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

    /// How many ids the interning table holds: the ids below this
    /// watermark, with every id above it appended since the table was
    /// last probed (ADR 026). An arena that was only appended to holds no
    /// table at all.
    pub fn indexed(&self) -> usize {
        self.table.held
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
    /// hit on a table that holds every id writes nothing, so it leaves
    /// what this arena shares shared.
    pub fn intern_factors(&mut self, factors: &[(VarId, u32)]) -> MonoId {
        if self.table.held == self.len() {
            let hash = hash_factors(factors);
            if let Ok(id) = self.table.find(factors, hash, self.parts().slices()) {
                return id;
            }
        }
        self.writer().intern_factors(factors)
    }

    /// The id of `mono`, if it has been interned. The ids past the
    /// table's watermark ([`indexed`](Self::indexed)) are compared one by
    /// one: this reads, so it cannot index them.
    pub fn get(&self, mono: &Monomial) -> Option<MonoId> {
        let factors = mono.as_factors();
        let slices = self.parts().slices();
        match self.table.find(factors, hash_factors(factors), &slices) {
            Ok(id) => Some(id),
            Err(_) => (self.table.held..self.len())
                .map(|id| id as MonoId)
                .find(|&id| slices(id) == factors),
        }
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
    /// ([`VACANT`] where dropped). The entries are distinct, so each is
    /// appended and no table is built; this arena's goes first, and what
    /// it held is free for the new arena's columns.
    pub(crate) fn compacted(mut self, keep: &[bool]) -> (Self, Vec<MonoId>) {
        self.table = Arc::default();
        let kept = || self.monomials().zip(keep).filter(|&(_, &k)| k);
        let factors = kept().map(|(mono, _)| mono.num_vars()).sum();
        let mut arena = Self::with_capacity(kept().count(), factors);
        let mut writer = arena.writer();
        let mut new_id = |(mono, &k): (MonoRef<'_>, &bool)| match k {
            true => writer.append(mono.as_factors()),
            false => VACANT,
        };
        let new_ids = self.monomials().zip(keep).map(&mut new_id).collect();
        drop(writer);
        (arena, new_ids)
    }

    /// Heap footprint of the arena in bytes: the factor columns and their
    /// ends, the interning table and the postings lists, each at its
    /// capacity. This is the value's size, shared parts included: a clone
    /// reports what its source reports, so a sum over clones counts what
    /// they share once per clone.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.prefix.estimated_bytes()
            + self.tail.estimated_bytes()
            + self.table.slots.capacity() * size_of::<MonoId>()
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

    /// `m` with `v` replaced by `target`, through a rewrite started for it.
    fn product(writer: &mut ArenaWriter<'_>, m: MonoId, v: VarId, target: VarId) -> MonoId {
        let mut products = Products::default();
        products.start(writer, target, 1);
        products.product(writer, m, v)
    }

    #[test]
    fn substitute_replaces_a_factor_by_the_target() {
        let mut arena = MonoArena::new();
        let m = arena.intern(&Monomial::from_factors([(v(1), 3), (v(8), 1)]));
        let mut writer = arena.writer();
        // The power carries over, and the target goes where it sorts.
        let merged = product(&mut writer, m, v(1), v(20));
        assert_eq!(writer.mono(merged).as_factors(), &[(v(8), 1), (v(20), 3)]);
        let front = product(&mut writer, merged, v(8), v(3));
        assert_eq!(writer.mono(front).as_factors(), &[(v(3), 1), (v(20), 3)]);
        // A target the monomial already holds gains the power.
        let merged_in = product(&mut writer, m, v(1), v(8));
        assert_eq!(writer.mono(merged_in).as_factors(), &[(v(8), 4)]);
        assert_eq!(
            product(&mut writer, m, v(1), v(1)),
            m,
            "v ↦ v is the identity"
        );
        drop(writer);
        assert_eq!(arena.len(), 4, "the products, and no remainder");
        assert_eq!(arena.indexed(), 1, "a rewrite probes no arena table");
    }

    #[test]
    fn a_product_equal_to_a_monomial_is_that_monomial() {
        let mut arena = MonoArena::new();
        let a = arena.intern_factors(&[(v(1), 1), (v(2), 1)]);
        let b = arena.intern_factors(&[(v(1), 1), (v(3), 1)]);
        let held = arena.intern_factors(&[(v(1), 1), (v(9), 1)]);
        let mut writer = arena.writer();
        let mut products = Products::default();
        products.start(&writer, v(9), 2);
        // `a` and `b` both become `v1·v9`, which the arena holds: the
        // seeded table finds it, and nothing is appended.
        assert_eq!(products.product(&mut writer, a, v(2)), held);
        assert_eq!(products.product(&mut writer, b, v(3)), held);
        let c = writer.append(&[(v(2), 2)]);
        drop(writer);
        assert_eq!((arena.len(), c), (4, 3));
        // The appended entry is not in the table until a probe puts it in.
        assert_eq!(arena.indexed(), 3);
        assert_eq!(arena.get(&Monomial::from_factors([(v(2), 2)])), Some(c));
        assert_eq!(arena.intern_factors(&[(v(2), 2)]), c);
        assert_eq!(arena.indexed(), 4);
        // A rewrite that derives more than it started for grows its table
        // and still finds every product.
        let mut writer = arena.writer();
        products.start(&writer, v(20), 0);
        let monos: Vec<MonoId> = (0..20u32)
            .map(|i| writer.append(&[(v(1), 1 + i), (v(30), 1)]))
            .collect();
        let first: Vec<MonoId> = monos
            .iter()
            .map(|&m| products.product(&mut writer, m, v(30)))
            .collect();
        let again: Vec<MonoId> = monos
            .iter()
            .map(|&m| products.product(&mut writer, m, v(30)))
            .collect();
        assert_eq!(first, again);
        assert_eq!(writer.len(), 4 + 20 + 20);
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
        // A sized arena's columns take the same ids without growing; its
        // table is built by the first probe and grows as interning does.
        let mut sized = MonoArena::with_capacity(arena.len(), 2 * arena.len());
        assert_eq!(
            sized.estimated_bytes(),
            2 * arena.len() * 8 + arena.len() * 4
        );
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
        // write copies the derived tail and keeps the prefix shared, and
        // an append leaves the shared table as it is.
        let mut twin = clone.clone();
        let d = twin.writer().append(&[(v(1), 1), (v(5), 1)]);
        assert!(Arc::ptr_eq(&twin.table, &clone.table));
        assert_eq!(
            (twin.indexed(), twin.get(&Monomial::from_vars([v(1), v(5)]))),
            (3, Some(d))
        );
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
