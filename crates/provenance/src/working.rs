//! Interned working sets for in-flight abstraction rewrites.
//!
//! The compression algorithms (greedy valid-variable selection above all)
//! repeatedly *rewrite* a poly-set: substitute a small group of variables
//! by one meta-variable, merge the monomials that become equal, measure,
//! repeat. On the [`crate::polynomial::Polynomial`] representation every
//! such step rebuilds whole monomial hash maps — each surviving monomial
//! is re-canonicalised, re-hashed and re-inserted even when the
//! substitution does not touch it.
//!
//! A [`WorkingSet`] avoids that by holding its polynomials over a shared
//! [`MonoArena`] (the interning core of [`crate::intern`]):
//!
//! * every term of every polynomial sits in one flat column pair —
//!   monomial ids and coefficients — and a polynomial is a *run* of it, a
//!   `(start, length)` span whose ids strictly ascend. Merging under a
//!   substitution is id remapping plus coefficient accumulation: no
//!   monomial is rebuilt unless the substitution actually changes it, and
//!   cross-polynomial duplicates (the common case for grouped provenance)
//!   are remapped exactly once;
//! * the arena's postings index finds the monomials a group substitution
//!   can touch without scanning anything else — an ascending id list, so
//!   finding them in a polynomial is an intersection of two sorted lists,
//!   with no hash table on either side;
//! * the monomial loss of a candidate group counts *remainder classes* —
//!   the `(M_l, exp)` of §4.1 — by a hash of the factor slice less the
//!   group variable, compared slice to slice where hashes meet: nothing is
//!   built or interned to score, and a substitution interns the one
//!   product it keeps (ADR 018), against the monomials holding its target
//!   rather than the arena's table (ADR 026).
//!
//! **Runs never grow.** A substitution can merge terms but never split
//! one, so a rewritten run fits the span it had: it is written back in
//! place and the span shortened. What a run gives up stays behind as a
//! gap until [`WorkingSet::compact`] closes it; appended polynomials
//! ([`WorkingSet::push_poly`], [`WorkingSet::absorb`]) go to the end of
//! the columns. Nothing is allocated per polynomial or per rewrite.
//!
//! **Clones share** (ADR 017). A clone shares its source's arena (see
//! [`crate::intern`]) and its term columns, and allocates for neither. A
//! call that changes the columns ([`WorkingSet::push_poly`],
//! [`WorkingSet::absorb`], [`WorkingSet::apply_group`],
//! [`WorkingSet::apply_var_map`]) makes them its own once, at its top, and
//! a call that interns opens the arena for writing once; so a compression
//! that starts from a clone of its source pays for what it changes, not
//! for a second copy of the source. [`WorkingSet::compact`] leaves a set
//! with nothing to drop as it is, still sharing.
//!
//! The working set is the *rewriting* view over the arena; freezing it
//! with [`WorkingSet::freeze`] yields the read-only evaluation view
//! ([`crate::compiled::CompiledPolySet`]) by re-slicing the same arena —
//! no intermediate [`PolySet`] is materialised.
//!
//! Term *sets* evolve exactly as under [`Polynomial::map_vars`]: the same
//! monomials exist with the same coefficient sums, and terms whose
//! coefficients cancel to zero are dropped. **The order of accumulation
//! is defined:** when several terms of a polynomial land on one monomial
//! their coefficients are added in ascending *source* id (a term that
//! already sits on the target takes part under its own id), and the term
//! is dropped iff the finished sum is exactly zero. The result is a
//! function of the run — its ids and coefficients — and of nothing else:
//! not of a capacity, an insertion history or the size of the group, so
//! a set, its clone and its compacted twin (whose ids keep their order)
//! agree to the bit, cancellation included. (`map_vars` adds in hash-map
//! order, so against *it* three or more floating-point terms collapsing
//! into one may still differ in the last bit.)
//!
//! [`Polynomial::map_vars`]: crate::polynomial::Polynomial::map_vars

use crate::coeff::Coefficient;
use crate::compiled::{CompiledPolySet, CompiledView};
use crate::fxhash::{FxHashSet, FxHasher};
use crate::intern::{MonoArena, Products};
use crate::monomial::{MonoRef, Monomial};
use crate::polynomial::Polynomial;
use crate::polyset::PolySet;
use crate::var::VarId;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::hash::Hasher;
use std::mem::size_of;
use std::sync::Arc;

pub use crate::intern::MonoId;

/// No monomial: a run slot whose term is moving to another monomial, a
/// remap entry not filled in yet, a free slot of a class table. The arena
/// never assigns this id.
const NONE: MonoId = MonoId::MAX;

/// Reusable scratch state for [`WorkingSet::subset_with`].
///
/// Extracting one subset needs an old-id → new-id remap table, one entry
/// per monomial of the source arena. Callers cutting *many* subsets out
/// of one working set (the shard partitioner above all) reuse one scratch
/// across calls so the table is allocated once, instead of K times.
#[derive(Debug, Default)]
pub struct SubsetScratch {
    remap: Vec<MonoId>,
}

impl SubsetScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The remap table's current capacity — exposed so tests can assert
    /// that repeated [`WorkingSet::subset_with`] calls stop allocating
    /// once the scratch has warmed up (the subset analogue of the
    /// executor's stable-pointer check).
    pub fn capacity(&self) -> usize {
        self.remap.capacity()
    }
}

/// The buffers one rewrite fills ([`WorkingSet::ml_delta_of_group`],
/// [`WorkingSet::apply_group`], [`WorkingSet::apply_var_map`]), kept by
/// the working set between calls so a rewrite allocates nothing once they
/// have warmed up. They hold nothing between calls, so a clone starts
/// with fresh ones.
#[derive(Debug)]
struct GroupScratch<C> {
    /// Scoring and applying: the cursors of a merge of sorted lists.
    heap: Vec<Cursor>,
    /// Scoring: each monomial a group touches with the group variable it
    /// holds, by ascending id.
    occurrences: Vec<(MonoId, VarId)>,
    /// Scoring: the classes of the occurrences met in one polynomial.
    classes: RemainderClasses,
    /// Applying: the products the rewrite derived.
    products: Products,
    /// Applying: each monomial a group touches with the id it becomes,
    /// variable by variable.
    segments: Vec<(MonoId, MonoId)>,
    /// Applying: the same, by ascending id.
    remap: Vec<(MonoId, MonoId)>,
    /// Rewriting: the terms of one run that change monomial, as
    /// `(target id, source id, coefficient)`.
    moved: Vec<(MonoId, MonoId, C)>,
    /// Rewriting: the run being rebuilt.
    run: Vec<(MonoId, C)>,
}

impl<C> Default for GroupScratch<C> {
    fn default() -> Self {
        Self {
            heap: Vec::new(),
            occurrences: Vec::new(),
            classes: RemainderClasses::default(),
            products: Products::default(),
            segments: Vec::new(),
            remap: Vec::new(),
            moved: Vec::new(),
            run: Vec::new(),
        }
    }
}

impl<C> Clone for GroupScratch<C> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Where one polynomial's run sits in the term columns.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A poly-set lowered into an interned, id-addressed form that supports
/// cheap incremental substitution. See the [module docs](self).
///
/// A clone shares the source's arena and term columns and allocates
/// nothing for them; each side copies what it shares when it first
/// changes it.
#[derive(Clone, Debug)]
pub struct WorkingSet<C> {
    /// The shared monomial arena (append-only; also holds monomials that
    /// are no longer live in any polynomial).
    arena: MonoArena,
    /// The term columns, made this set's own by the first call that
    /// changes them.
    terms: Arc<Columns<C>>,
    /// Buffers of the rewrites.
    scratch: GroupScratch<C>,
}

/// The term columns of a [`WorkingSet`].
#[derive(Clone, Debug)]
struct Columns<C> {
    /// The monomial id of every live term, run after run (and, between
    /// runs, what rewrites left behind).
    ids: Vec<MonoId>,
    /// The coefficients, parallel to `ids`.
    coeffs: Vec<C>,
    /// Per polynomial: its run. Starts ascend and runs do not overlap.
    spans: Vec<Span>,
}

/// An occurrence of a variable in a monomial: `(hash of its class, monomial
/// id, position of the variable's factor)`.
type Occurrence = (u64, MonoId, u32);

/// Remainder classes by key (ADR 018): occurrences of variables in
/// monomials, numbered by §4.1's `(M_l, exp)` — the monomial less the
/// variable, and the variable's exponent, hashed where they lie — as they
/// are added, without building or interning a remainder. A round starts
/// with [`reset`](Self::reset); the buffers are kept for the next one.
#[derive(Clone, Debug, Default)]
pub struct RemainderClasses {
    /// The first occurrence of each class met in this round.
    firsts: Vec<Occurrence>,
    /// An open-addressed table of indices into `firsts` ([`NONE`] when
    /// free), probed linearly from the hash's top bits, at most half full.
    slots: Vec<u32>,
}

impl RemainderClasses {
    /// Starts a round of at most `occurrences` occurrences.
    pub fn reset(&mut self, occurrences: usize) {
        self.firsts.clear();
        self.slots.clear();
        let slots = (occurrences * 2).next_power_of_two().max(2);
        self.slots.resize(slots, NONE);
    }

    /// Number of distinct classes met in this round.
    pub fn count(&self) -> usize {
        self.firsts.len()
    }

    /// Adds the occurrence of `v` in monomial `id` of `arena` and returns
    /// the number, counting from 0 in this round, of the class it joins or
    /// opens.
    ///
    /// # Panics
    /// Panics if `v` does not occur in the monomial, or if the round
    /// meets more classes than its [`reset`](Self::reset) allowed.
    pub fn push(&mut self, arena: &MonoArena, id: MonoId, v: VarId) -> usize {
        let factors = arena.mono(id).as_factors();
        let at = factors.partition_point(|&(w, _)| w < v);
        assert_eq!(factors[at].0, v, "an occurrence of an absent variable");
        let mut hash = FxHasher::default();
        for &(w, e) in factors[..at].iter().chain(&factors[at + 1..]) {
            hash.write_u64(u64::from(w.0) << 32 | u64::from(e));
        }
        hash.write_u32(factors[at].1);
        self.insert(arena, (hash.finish(), id, at as u32))
    }

    /// The class of occurrence `key`: one whose first occurrence has an
    /// equal hash *and* an equal exponent and remainder, compared factor by
    /// factor — so a collision never merges two classes — or a new one.
    fn insert(&mut self, arena: &MonoArena, key: Occurrence) -> usize {
        let remainder = |(_, id, at): Occurrence| {
            let (factors, at) = (arena.mono(id).as_factors(), at as usize);
            let rest = factors[..at].iter().chain(&factors[at + 1..]);
            (factors[at].1, rest)
        };
        let (exp, rest) = remainder(key);
        let same = |first: Occurrence| {
            first.0 == key.0 && {
                let (first_exp, first_rest) = remainder(first);
                first_exp == exp && first_rest.eq(rest.clone())
            }
        };
        let mask = self.slots.len() - 1;
        let mut at = (key.0 >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[at] {
                NONE => break,
                class if same(self.firsts[class as usize]) => return class as usize,
                _ => at = (at + 1) & mask,
            }
        }
        let class = self.firsts.len();
        assert!(2 * class < mask, "more classes than the round allowed");
        self.slots[at] = class as u32;
        self.firsts.push(key);
        class
    }
}

/// The length of the prefix of `list` that is `below` — which must hold
/// for `list[0]` and for a prefix only — by doubling steps and a
/// bisection of the last one: `O(log answer)`.
fn gallop<T>(list: &[T], below: impl Fn(&T) -> bool) -> usize {
    let mut hi = 1;
    while hi < list.len() && below(&list[hi]) {
        hi *= 2;
    }
    hi / 2 + list[hi / 2..hi.min(list.len())].partition_point(below)
}

/// A list's next entry in a [`merge`]: `(its id, the list, its position)`,
/// ordered so that a max-heap yields the least id first.
type Cursor = Reverse<(MonoId, usize, usize)>;

/// Merges lists that each ascend by ascending id (an id in two lists —
/// only a monomial no run holds can hold two group variables — comes out
/// once from each, the earlier list's first): `heap` starts with a cursor on
/// each non-empty list's first entry, `id(list, at)` is the id at a
/// position of a list (`None` past its end), and `emit` is handed every
/// entry in order as `(id, list, position)`. The cursors' buffer is kept
/// for the next merge.
fn merge(
    heap: &mut Vec<Cursor>,
    id: impl Fn(usize, usize) -> Option<MonoId>,
    mut emit: impl FnMut(MonoId, usize, usize),
) {
    let mut cursors = BinaryHeap::from(std::mem::take(heap));
    while let Some(mut least) = cursors.peek_mut() {
        let Reverse((m, list, at)) = *least;
        emit(m, list, at);
        match id(list, at + 1) {
            Some(next) => *least = Reverse((next, list, at + 1)),
            None => drop(PeekMut::pop(least)),
        }
    }
    *heap = cursors.into_vec();
}

/// Hands `hit` every position of the run `ids` whose monomial has an
/// entry in `list`, with what the entry holds. Both sides ascend by id;
/// whichever lags gallops forward, so lists of like size are walked in
/// step and a short one is searched for in the long one.
fn intersect<T: Copy>(ids: &[MonoId], list: &[(MonoId, T)], mut hit: impl FnMut(usize, T)) {
    let (mut i, mut j) = (0, 0);
    while i < ids.len() && j < list.len() {
        match ids[i].cmp(&list[j].0) {
            Ordering::Less => i += gallop(&ids[i..], |&id| id < list[j].0),
            Ordering::Greater => j += gallop(&list[j..], |&(id, _)| id < ids[i]),
            Ordering::Equal => {
                hit(i, list[j].1);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Rebuilds the run at `span` from the terms still in their slots and the
/// `moved` ones, in place: ascending by id, the terms that meet on one
/// monomial added in ascending source id (a term in its slot is its own
/// source) and dropped if they sum to zero. `run` is the buffer the run
/// is assembled in. The run comes out no longer than it was; returns by
/// how many terms.
fn rebuild_run<C: Coefficient>(
    ids: &mut [MonoId],
    coeffs: &mut [C],
    span: &mut Span,
    moved: &mut Vec<(MonoId, MonoId, C)>,
    run: &mut Vec<(MonoId, C)>,
) -> usize {
    moved.sort_unstable_by_key(|&(target, source, _)| (target, source));
    run.clear();
    let mut add = |id: MonoId, c: &C| match run.last_mut() {
        Some((last, sum)) if *last == id => *sum = sum.add(c),
        _ => run.push((id, c.clone())),
    };
    let mut kept = span.range().filter(|&at| ids[at] != NONE).peekable();
    let mut moving = moved.iter().peekable();
    loop {
        let in_place = match (kept.peek(), moving.peek()) {
            (None, None) => break,
            (Some(&at), Some(m)) => (ids[at], ids[at]) < (m.0, m.1),
            (slot, _) => slot.is_some(),
        };
        if in_place {
            let at = kept.next().expect("peeked");
            add(ids[at], &coeffs[at]);
        } else {
            let m = moving.next().expect("peeked");
            add(m.0, &m.2);
        }
    }
    moved.clear();
    run.retain(|(_, c)| !c.is_zero());
    debug_assert!(run.len() <= span.len as usize, "a run never grows");
    let lost = span.len as usize - run.len();
    span.len = run.len() as u32;
    for (at, (id, c)) in span.range().zip(run.drain(..)) {
        ids[at] = id;
        coeffs[at] = c;
    }
    lost
}

impl<C: Coefficient> Columns<C> {
    fn with_capacity(polys: usize, terms: usize) -> Self {
        Self {
            ids: Vec::with_capacity(terms),
            coeffs: Vec::with_capacity(terms),
            spans: Vec::with_capacity(polys),
        }
    }

    /// Makes the terms pushed since `start` the next polynomial's run.
    fn seal(&mut self, start: usize, scratch: &mut GroupScratch<C>) {
        let Self { ids, coeffs, spans } = self;
        let len = u32::try_from(ids.len() - start).expect("more than u32::MAX terms");
        let start = u32::try_from(start).expect("more than u32::MAX terms");
        let mut span = Span { start, len };
        let canonical = ids[span.range()].windows(2).all(|w| w[0] < w[1])
            && coeffs[span.range()].iter().all(|c| !c.is_zero());
        if !canonical {
            // Every term moves, its place in the input as its source.
            for (seq, at) in span.range().enumerate() {
                let id = std::mem::replace(&mut ids[at], NONE);
                scratch.moved.push((id, seq as MonoId, coeffs[at].clone()));
            }
            rebuild_run(ids, coeffs, &mut span, &mut scratch.moved, &mut scratch.run);
            ids.truncate(span.range().end);
            coeffs.truncate(span.range().end);
        }
        spans.push(span);
    }

    /// Whether the runs tile the columns from the start: no gap between
    /// two runs and none after the last.
    fn is_packed(&self) -> bool {
        let mut end = 0;
        for span in &self.spans {
            if span.start as usize != end {
                return false;
            }
            end += span.len as usize;
        }
        end == self.ids.len()
    }
}

impl<C: Coefficient> WorkingSet<C> {
    /// An empty working set over `arena` whose columns take `polys`
    /// polynomials of `terms` terms in total without growing — what a
    /// producer that interns during emission starts from (it interns
    /// through [`arena_mut`](Self::arena_mut) and hands each polynomial
    /// to [`push_poly`](Self::push_poly)).
    pub fn with_capacity(arena: MonoArena, polys: usize, terms: usize) -> Self {
        let cols = Columns::with_capacity(polys, terms);
        Self::from_columns(arena, cols, GroupScratch::default())
    }

    fn from_columns(arena: MonoArena, cols: Columns<C>, scratch: GroupScratch<C>) -> Self {
        Self {
            arena,
            terms: Arc::new(cols),
            scratch,
        }
    }

    /// Assembles a working set from an already-built arena and one term
    /// list per polynomial — the constructor of producers that accumulate
    /// per group while they emit (the engine's interned aggregation hands
    /// over its accumulation maps). Each list becomes a run as under
    /// [`push_poly`](Self::push_poly); the columns are allocated once.
    pub fn from_parts<P>(arena: MonoArena, polys: Vec<P>) -> Self
    where
        P: IntoIterator<Item = (MonoId, C)>,
        P::IntoIter: ExactSizeIterator,
    {
        let polys: Vec<P::IntoIter> = polys.into_iter().map(P::into_iter).collect();
        let terms = polys.iter().map(ExactSizeIterator::len).sum();
        let mut ws = Self::with_capacity(arena, polys.len(), terms);
        polys.into_iter().for_each(|terms| ws.push_poly(terms));
        ws
    }

    /// Appends a polynomial with the given terms, in any order: the run
    /// is brought into ascending id order, terms given for one monomial
    /// are added in the order given, and zeros are dropped. Terms that
    /// come ascending, distinct and non-zero — what an emitter walking
    /// its monomials in interning order produces — are stored as they
    /// come.
    ///
    /// # Panics
    /// Panics (in debug builds) if a term id is outside the arena.
    pub fn push_poly(&mut self, terms: impl IntoIterator<Item = (MonoId, C)>) {
        let cols = Arc::make_mut(&mut self.terms);
        let start = cols.ids.len();
        for (id, c) in terms {
            cols.ids.push(id);
            cols.coeffs.push(c);
        }
        debug_assert!(cols.ids[start..]
            .iter()
            .all(|&id| (id as usize) < self.arena.len()));
        cols.seal(start, &mut self.scratch);
    }

    /// Lowers a poly-set: interns every distinct monomial, in the
    /// poly-set's iteration order, and lays the terms out as runs.
    pub fn from_polyset(polys: &PolySet<C>) -> Self {
        let mut arena = MonoArena::new();
        let mut cols = Columns::with_capacity(polys.len(), polys.size_m());
        let mut scratch = GroupScratch::default();
        let mut writer = arena.writer();
        for p in polys.iter() {
            let start = cols.ids.len();
            for (m, c) in p.iter() {
                cols.ids.push(writer.intern_factors(m.as_factors()));
                cols.coeffs.push(c.clone());
            }
            cols.seal(start, &mut scratch);
        }
        drop(writer);
        Self::from_columns(arena, cols, scratch)
    }

    /// Rebuilds a working set from compiled columns — how a session opened
    /// from an artifact gets back the interned form of what it stores.
    /// Monomials are interned in column order, each factor list brought
    /// into canonical form first and terms that end up on one monomial
    /// accumulated, so this is total on whatever the artifact validator
    /// admits. `from_compiled(ws.freeze().view())` is `ws` as a poly-set;
    /// its arena ids are its own, not `ws`'s (they follow first occurrence
    /// in the columns, so a run keeps its order where `ws`'s ids do too —
    /// in a freshly lowered set, for one).
    pub fn from_compiled(view: CompiledView<'_, C>) -> Self {
        let mut arena = MonoArena::new();
        let mut cols = Columns::with_capacity(view.num_polys(), view.num_monomials());
        let mut scratch = GroupScratch::default();
        let mut writer = arena.writer();
        // Seals the polynomials before `pi`: the open one, then empty ones.
        let mut start = 0;
        let mut seal_before = |cols: &mut Columns<C>, pi: usize| {
            while cols.spans.len() < pi {
                cols.seal(start, &mut scratch);
                start = cols.ids.len();
            }
        };
        view.for_each_term(|pi, coeff, factors| {
            seal_before(&mut cols, pi);
            Monomial::canonicalise(factors);
            cols.ids.push(writer.intern_factors(factors));
            cols.coeffs.push(coeff.clone());
        });
        seal_before(&mut cols, view.num_polys());
        drop(writer);
        Self::from_columns(arena, cols, scratch)
    }

    /// The shared monomial arena.
    pub fn arena(&self) -> &MonoArena {
        &self.arena
    }

    /// Mutable access to the arena — for producers that intern the
    /// monomials they then hand to [`push_poly`](Self::push_poly). The
    /// arena is append-only, so growing it never invalidates the working
    /// set's term ids.
    pub fn arena_mut(&mut self) -> &mut MonoArena {
        &mut self.arena
    }

    /// The interned monomial behind `id`.
    pub fn mono(&self, id: MonoId) -> MonoRef<'_> {
        self.arena.mono(id)
    }

    /// Number of polynomials.
    pub fn num_polys(&self) -> usize {
        self.terms.spans.len()
    }

    /// Where polynomial `pi`'s run sits in the term columns. Runs of
    /// successive polynomials ascend and never overlap, and a rewrite
    /// leaves a run inside the range it had.
    pub fn poly_span(&self, pi: usize) -> std::ops::Range<usize> {
        self.terms.spans[pi].range()
    }

    /// Live monomial ids of polynomial `pi`, strictly ascending.
    pub fn poly_mono_ids(&self, pi: usize) -> &[MonoId] {
        &self.terms.ids[self.poly_span(pi)]
    }

    /// Live terms of polynomial `pi` as `(monomial id, coefficient)` in
    /// ascending id order — the working set's canonical term order, the
    /// one every deterministic export uses ([`to_polyset`](Self::to_polyset),
    /// [`freeze`](Self::freeze), the artifact codec).
    pub fn poly_terms(&self, pi: usize) -> impl Iterator<Item = (MonoId, &C)> {
        let range = self.poly_span(pi);
        self.terms.ids[range.clone()]
            .iter()
            .copied()
            .zip(&self.terms.coeffs[range])
    }

    /// `|P_pi|_M` of the current (rewritten) polynomial.
    pub fn poly_size_m(&self, pi: usize) -> usize {
        self.terms.spans[pi].len as usize
    }

    /// `|𝒫|_M` of the current working set.
    pub fn size_m(&self) -> usize {
        self.terms.spans.iter().map(|span| span.len as usize).sum()
    }

    /// Heap footprint in bytes: the term columns, the spans and the
    /// rewrite buffers, each at its capacity, plus
    /// [`MonoArena::estimated_bytes`]. Like the arena's, this is the
    /// value's size, what it shares included: a clone reports what its
    /// source reports, less the rewrite buffers it starts without.
    pub fn estimated_bytes(&self) -> usize {
        let (terms, scratch) = (&*self.terms, &self.scratch);
        self.arena.estimated_bytes()
            + terms.ids.capacity() * size_of::<MonoId>()
            + terms.coeffs.capacity() * size_of::<C>()
            + terms.spans.capacity() * size_of::<Span>()
            + scratch.heap.capacity() * size_of::<Cursor>()
            + scratch.occurrences.capacity() * size_of::<(MonoId, VarId)>()
            + scratch.classes.firsts.capacity() * size_of::<Occurrence>()
            + scratch.classes.slots.capacity() * size_of::<u32>()
            + scratch.products.estimated_bytes()
            + (scratch.segments.capacity() + scratch.remap.capacity())
                * size_of::<(MonoId, MonoId)>()
            + scratch.moved.capacity() * size_of::<(MonoId, MonoId, C)>()
            + scratch.run.capacity() * size_of::<(MonoId, C)>()
    }

    /// Liveness bitmap over the arena: `true` for ids live in at least
    /// one polynomial.
    fn live_flags(&self) -> Vec<bool> {
        let mut live = vec![false; self.arena.len()];
        for pi in 0..self.num_polys() {
            for &id in self.poly_mono_ids(pi) {
                live[id as usize] = true;
            }
        }
        live
    }

    /// The distinct variables across the live monomials (`V(𝒫)`).
    pub fn live_vars(&self) -> FxHashSet<VarId> {
        let mut seen: Vec<bool> = Vec::new();
        let mut vars: FxHashSet<VarId> = FxHashSet::default();
        for v in self.live_monomials().flat_map(|mono| mono.vars()) {
            if seen.len() <= v.index() {
                seen.resize(v.index() + 1, false);
            }
            if !std::mem::replace(&mut seen[v.index()], true) {
                vars.insert(v);
            }
        }
        vars
    }

    /// Iterates the distinct live monomials (each arena entry at most
    /// once, regardless of how many polynomials share it).
    pub fn live_monomials(&self) -> impl Iterator<Item = MonoRef<'_>> {
        let live = self.live_flags();
        let monos = self.arena.monomials().zip(live);
        monos.filter_map(|(mono, live)| live.then_some(mono))
    }

    /// `|𝒫|_V`: distinct variables across the live monomials.
    pub fn size_v(&self) -> usize {
        self.live_vars().len()
    }

    /// A working set over the polynomials at `indices` (in that order) —
    /// the sampling primitive of the online compression scheme. The
    /// sample gets a *fresh, compacted* arena holding only its own live
    /// monomials, and columns holding only its own terms.
    pub fn subset(&self, indices: &[usize]) -> Self {
        self.subset_with(indices, &mut SubsetScratch::new())
    }

    /// [`subset`](Self::subset) with caller-provided scratch: the remap
    /// table lives in `scratch` (reset, capacity retained), so a loop
    /// cutting many subsets — the shard partitioner constructs K
    /// per-shard working sets from one source — allocates the table once
    /// instead of per call. The subset's columns are allocated at their
    /// final size.
    pub fn subset_with(&self, indices: &[usize], scratch: &mut SubsetScratch) -> Self {
        scratch.remap.clear();
        scratch.remap.resize(self.arena.len(), NONE);
        let terms = indices.iter().map(|&pi| self.poly_size_m(pi)).sum();
        let mut sub = Self::with_capacity(MonoArena::new(), indices.len(), terms);
        sub.copy_polys(self, indices.iter().copied(), &mut scratch.remap);
        sub
    }

    /// Appends every polynomial of `other` to this working set, interning
    /// `other`'s live monomials into this arena — the chunk-ingest
    /// primitive of the streaming compression path: each incoming chunk
    /// is absorbed into the carried (already compressed) working set, and
    /// only then rewritten under the cumulative abstraction.
    ///
    /// Polynomial indices of `other` shift by `self.num_polys()`; the
    /// polynomials themselves are unchanged (same term sets, same
    /// coefficients). Their runs go to the end of the columns.
    pub fn absorb(&mut self, other: &WorkingSet<C>) {
        let mut remap = vec![NONE; other.arena.len()];
        let cols = Arc::make_mut(&mut self.terms);
        cols.ids.reserve(other.size_m());
        cols.coeffs.reserve(other.size_m());
        cols.spans.reserve(other.num_polys());
        self.copy_polys(other, 0..other.num_polys(), &mut remap);
    }

    /// Appends the polynomials `indices` of `from`, interning each of
    /// their monomials on first sight; `remap` is `from`'s id → this
    /// arena's id.
    fn copy_polys(
        &mut self,
        from: &Self,
        indices: impl IntoIterator<Item = usize>,
        remap: &mut [MonoId],
    ) {
        let Self {
            arena,
            terms,
            scratch,
        } = self;
        let (mut arena, cols) = (arena.writer(), Arc::make_mut(terms));
        for pi in indices {
            let start = cols.ids.len();
            for (id, c) in from.poly_terms(pi) {
                let new_id = &mut remap[id as usize];
                if *new_id == NONE {
                    *new_id = arena.intern_factors(from.arena.mono(id).as_factors());
                }
                cols.ids.push(*new_id);
                cols.coeffs.push(c.clone());
            }
            cols.seal(start, scratch);
        }
    }

    /// The monomial-loss delta of substituting every variable of `group`
    /// by one shared fresh variable, measured over the polynomials at
    /// `affected` — identical to the reference
    /// `ml_delta_of_group_in` computation, in id space: two monomials
    /// merge iff their remainders and exponents agree within the same
    /// polynomial.
    ///
    /// `affected` must cover every polynomial containing a `group`
    /// variable (a superset is fine); a monomial may hold at most one
    /// `group` variable (forest compatibility).
    ///
    /// Scoring reads the arena and writes only this set's own buffers: it
    /// interns nothing, so a clone that is only scored stays shared.
    pub fn ml_delta_of_group(&mut self, group: &[VarId], affected: &[usize]) -> usize {
        if group.len() < 2 {
            return 0;
        }
        let (arena, terms) = (&self.arena, &self.terms);
        let GroupScratch {
            heap,
            occurrences,
            classes,
            ..
        } = &mut self.scratch;
        // The union of the group's postings: one list a variable.
        let posting = |k: usize, at: usize| {
            let (prefix, tail) = arena.postings_of(group[k]);
            match prefix.get(at) {
                Some(&m) => Some(m),
                None => tail.get(at - prefix.len()).copied(),
            }
        };
        heap.clear();
        heap.extend((0..group.len()).filter_map(|k| Some(Reverse((posting(k, 0)?, k, 0)))));
        occurrences.clear();
        merge(heap, posting, |m, k, _| occurrences.push((m, group[k])));
        let mut delta = 0usize;
        for &pi in affected {
            // The occurrences that are terms of this polynomial, less the
            // distinct classes they fall into.
            let ids = &terms.ids[terms.spans[pi].range()];
            classes.reset(ids.len());
            let mut met = 0;
            intersect(ids, occurrences, |at, v| {
                classes.push(arena, ids[at], v);
                met += 1;
            });
            delta += met - classes.count();
        }
        delta
    }

    /// Applies the group substitution `group → target` to the polynomials
    /// at `affected`, merging coefficients of monomials that become equal
    /// (and dropping exact-zero sums) — semantically `map_vars` restricted
    /// to the affected polynomials, at id-remap cost, each run rewritten
    /// inside its own span.
    ///
    /// `affected` must cover every polynomial containing a `group`
    /// variable; polynomials outside it are left untouched (they contain
    /// no group variable, so the substitution fixes them anyway).
    ///
    /// Returns the number of terms the rewritten runs gave up — the
    /// measured monomial loss, which falls short of the modelled one
    /// ([`ml_delta_of_group`](Self::ml_delta_of_group)) by the merged
    /// sums that cancelled to zero.
    pub fn apply_group(&mut self, group: &[VarId], target: VarId, affected: &[usize]) -> usize {
        let Self {
            arena,
            terms,
            scratch,
        } = self;
        let Columns { ids, coeffs, spans } = Arc::make_mut(terms);
        let GroupScratch {
            heap,
            products,
            segments,
            remap,
            moved,
            run,
            ..
        } = scratch;
        // Each monomial holding a group variable and the product it becomes,
        // in the order product ids are assigned: variable by variable, in
        // posting order, a variable's postings counted when its turn starts.
        // A variable's segment ascends.
        let mut arena = arena.writer();
        let occurrences = group.iter().map(|&v| arena.postings_len(v)).sum();
        products.start(&arena, target, occurrences);
        segments.clear();
        heap.clear();
        for &v in group {
            let start = segments.len();
            for at in 0..arena.postings_len(v) {
                let m = arena.posting(v, at);
                segments.push((m, products.product(&mut arena, m, v)));
            }
            if let Some(&(m, _)) = segments.get(start) {
                heap.push(Reverse((m, segments.len(), start)));
            }
        }
        drop(arena);
        // The segments merged; a cursor's list is its segment's end.
        remap.clear();
        let id = |end: usize, at: usize| (at < end).then(|| segments[at].0);
        merge(heap, id, |_, _, at| remap.push(segments[at]));
        let mut lost = 0;
        for &pi in affected {
            let range = spans[pi].range();
            intersect(&ids[range.clone()], remap, |at, new_id| {
                let at = range.start + at;
                if new_id != ids[at] {
                    moved.push((new_id, at as MonoId, coeffs[at].clone()));
                }
            });
            if moved.is_empty() {
                continue;
            }
            // The walk above read `ids`; now that it is over, each moved
            // term's slot — kept where its source id goes — is vacated.
            for term in moved.iter_mut() {
                term.1 = std::mem::replace(&mut ids[term.1 as usize], NONE);
            }
            lost += rebuild_run(ids, coeffs, &mut spans[pi], moved, run);
        }
        lost
    }

    /// Applies an arbitrary variable substitution to *every* polynomial —
    /// the wholesale `𝒫↓S` application, with each distinct monomial
    /// remapped exactly once no matter how many polynomials share it
    /// (monomials the substitution changes are interned polynomial by
    /// polynomial, in ascending source id).
    pub fn apply_var_map(&mut self, mut map: impl FnMut(VarId) -> VarId) {
        let Self {
            arena,
            terms,
            scratch,
        } = self;
        let Columns { ids, coeffs, spans } = Arc::make_mut(terms);
        let mut arena = arena.writer();
        let mut remap = vec![NONE; arena.len()];
        let mut mapped: Vec<(VarId, u32)> = Vec::new();
        for span in spans {
            for at in span.range() {
                let m = ids[at];
                if remap[m as usize] == NONE {
                    let moves = arena.mono(m).vars().any(|v| map(v) != v);
                    remap[m as usize] = if moves {
                        mapped.clear();
                        mapped.extend(arena.mono(m).factors().map(|(v, e)| (map(v), e)));
                        Monomial::canonicalise(&mut mapped);
                        arena.intern_factors(&mapped)
                    } else {
                        m
                    };
                }
                if remap[m as usize] != m {
                    let moved = (remap[m as usize], m, coeffs[at].clone());
                    scratch.moved.push(moved);
                    ids[at] = NONE;
                }
            }
            if !scratch.moved.is_empty() {
                rebuild_run(ids, coeffs, span, &mut scratch.moved, &mut scratch.run);
            }
        }
    }

    /// Drops the rewrite buffers, every arena entry that no polynomial
    /// holds and the gaps rewrites left between the runs: the monomials
    /// that are live keep their order (a monomial's new id is its rank
    /// among the live ids), so the canonical term order — and with it
    /// [`freeze`](Self::freeze), [`to_polyset`](Self::to_polyset) and the
    /// artifact codec — come out as they would have. A compression run
    /// leaves behind every monomial it rewrote; this is what a caller does
    /// once with the `𝒫↓S` it is going to keep.
    ///
    /// What the packed copy does not read goes before it is built: the
    /// buffers, and the arena's interning table.
    /// A set with nothing else to drop — every arena entry live, no gap —
    /// is kept as it is, so what it shares with a clone stays shared: an
    /// identity abstraction holds no second copy of its source.
    pub fn compact(&mut self) {
        self.scratch = GroupScratch::default();
        let live = self.live_flags();
        if self.terms.is_packed() && live.iter().all(|&l| l) {
            return;
        }
        let (arena, new_ids) = std::mem::take(&mut self.arena).compacted(&live);
        let mut packed = Self::with_capacity(arena, self.num_polys(), self.size_m());
        for pi in 0..self.num_polys() {
            let terms = self.poly_terms(pi);
            packed.push_poly(terms.map(|(id, c)| (new_ids[id as usize], c.clone())));
        }
        *self = packed;
    }

    /// Freezes the working set into the read-only columnar evaluation
    /// view: an arena re-slice, without any intermediate [`PolySet`]
    /// materialisation. Shorthand for [`CompiledPolySet::from_working`].
    pub fn freeze(&self) -> CompiledPolySet<C> {
        CompiledPolySet::from_working(self)
    }

    /// Materialises the current state back into a hash-map-backed
    /// [`PolySet`] — the *semantics bridge* out of the interned currency,
    /// mirroring [`crate::compiled::CompiledPolySet::to_polyset`]. Terms
    /// are emitted in the canonical ascending-id order, so the result is
    /// deterministic for a given working set. Hot paths should stay in id
    /// space ([`freeze`](Self::freeze)); this exists for interop,
    /// display, and the reference engines.
    pub fn to_polyset(&self) -> PolySet<C> {
        let polys = (0..self.num_polys()).map(|pi| {
            let terms = self.poly_terms(pi);
            Polynomial::from_terms(
                terms.map(|(id, c)| (self.arena.mono(id).to_monomial(), c.clone())),
            )
        });
        PolySet::from_vec(polys.collect())
    }
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

    /// Two polynomials sharing the monomial structure of the running
    /// example: leaves 1, 2, 3 under a group, context variables 8, 9.
    fn sample() -> PolySet<f64> {
        PolySet::from_vec(vec![
            poly(&[
                (&[(1, 1), (8, 1)], 2.0),
                (&[(2, 1), (8, 1)], 3.0),
                (&[(3, 1), (9, 1)], 4.0),
            ]),
            poly(&[(&[(1, 1), (8, 1)], 5.0), (&[(2, 1), (9, 1)], 6.0)]),
        ])
    }

    #[test]
    fn lowering_preserves_sizes_and_roundtrips() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        assert_eq!(ws.num_polys(), 2);
        assert_eq!(ws.size_m(), polys.size_m());
        assert_eq!(ws.size_v(), polys.size_v());
        assert_eq!(ws.poly_size_m(0), 3);
        let back = ws.to_polyset();
        for (a, b) in back.iter().zip(polys.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn shared_monomials_are_interned_once() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        // 1·8 appears in both polynomials but is stored once.
        assert_eq!(ws.arena().len(), 4);
        assert_eq!(ws.live_monomials().count(), 4);
    }

    #[test]
    fn apply_group_matches_map_vars() {
        let polys = sample();
        let group = [v(1), v(2), v(3)];
        let target = v(20);
        let mut ws = WorkingSet::from_polyset(&polys);
        ws.apply_group(&group, target, &[0, 1]);
        let expected = polys.map_vars(|x| if group.contains(&x) { target } else { x });
        for (a, b) in ws.to_polyset().iter().zip(expected.iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(ws.size_m(), expected.size_m());
        assert_eq!(ws.size_v(), expected.size_v());
    }

    #[test]
    fn apply_group_merges_coefficients_and_drops_zeros() {
        let polys = PolySet::from_vec(vec![poly(&[
            (&[(1, 1), (8, 1)], 2.5),
            (&[(2, 1), (8, 1)], -2.5),
            (&[(3, 1), (8, 1)], 1.0),
        ])]);
        let mut ws = WorkingSet::from_polyset(&polys);
        // Merging 1 and 2 cancels exactly; 3 stays apart.
        ws.apply_group(&[v(1), v(2)], v(20), &[0]);
        assert_eq!(ws.size_m(), 1);
        let back = ws.to_polyset();
        let got = back.iter().next().expect("one poly");
        assert_eq!(
            got.coefficient(&Monomial::from_vars([v(3), v(8)])),
            1.0,
            "{got:?}"
        );
    }

    #[test]
    fn ml_delta_matches_actual_merge_count() {
        let polys = sample();
        let group = [v(1), v(2), v(3)];
        let mut ws = WorkingSet::from_polyset(&polys);
        let predicted = ws.ml_delta_of_group(&group, &[0, 1]);
        assert_eq!(ws.arena().len(), 4, "scoring interns nothing");
        let merged = polys.map_vars(|x| if group.contains(&x) { v(20) } else { x });
        assert_eq!(predicted, polys.size_m() - merged.size_m());
        // Only 1·8 and 2·8 of the first polynomial merge (3 pairs with 9).
        assert_eq!(predicted, 1);
        // Sub-groups and singleton groups.
        assert_eq!(ws.ml_delta_of_group(&[v(1)], &[0, 1]), 0);
        assert_eq!(ws.ml_delta_of_group(&[v(1), v(3)], &[0, 1]), 0);
    }

    #[test]
    fn ml_delta_respects_exponents() {
        // x²·a never merges with y·a (exponents differ after mapping).
        let polys = PolySet::from_vec(vec![poly(&[
            (&[(1, 2), (8, 1)], 1.0),
            (&[(2, 1), (8, 1)], 2.0),
            (&[(3, 1), (8, 1)], 3.0),
        ])]);
        let mut ws = WorkingSet::from_polyset(&polys);
        assert_eq!(ws.ml_delta_of_group(&[v(1), v(2), v(3)], &[0]), 1);
    }

    #[test]
    fn a_hash_collision_never_merges_two_classes() {
        let mut arena = MonoArena::new();
        let mut id = |factors: &[(u32, u32)]| {
            arena.intern_factors(&factors.iter().map(|&(i, e)| (v(i), e)).collect::<Vec<_>>())
        };
        // Remainders x, y, x and x, the last under exponent 2: three
        // classes — x¹, y¹, x² — whatever the hashes say.
        let monos = [
            id(&[(1, 1), (8, 1)]),
            id(&[(2, 1), (9, 1)]),
            id(&[(3, 1), (8, 1)]),
        ];
        let squared = id(&[(1, 2), (8, 1)]);
        let mut classes = RemainderClasses::default();
        classes.reset(4);
        let planted = monos.iter().chain([&squared]).map(|&m| (7, m, 0));
        let numbered: Vec<usize> = planted.map(|key| classes.insert(&arena, key)).collect();
        assert_eq!(numbered, [0, 1, 0, 2], "one planted hash");
        // Under the real hashes, the same three.
        classes.reset(4);
        let occurrences = monos
            .iter()
            .zip([v(1), v(2), v(3)])
            .chain([(&squared, v(1))]);
        let numbered: Vec<usize> = occurrences
            .map(|(&m, g)| classes.push(&arena, m, g))
            .collect();
        assert_eq!(numbered, [0, 1, 0, 2], "the occurrences' own hashes");
        assert_eq!(classes.count(), 3);
    }

    #[test]
    fn sequential_groups_compose() {
        let polys = sample();
        let mut ws = WorkingSet::from_polyset(&polys);
        ws.apply_group(&[v(1), v(2)], v(20), &[0, 1]);
        ws.apply_group(&[v(20), v(3)], v(21), &[0, 1]);
        let expected = polys.map_vars(|x| {
            if [v(1), v(2), v(3)].contains(&x) {
                v(21)
            } else {
                x
            }
        });
        for (a, b) in ws.to_polyset().iter().zip(expected.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn apply_var_map_is_wholesale_substitution() {
        let polys = sample();
        let mut ws = WorkingSet::from_polyset(&polys);
        let map = |x: VarId| if x.0 <= 3 { v(30) } else { x };
        ws.apply_var_map(map);
        let expected = polys.map_vars(map);
        assert_eq!(ws.size_m(), expected.size_m());
        assert_eq!(ws.size_v(), expected.size_v());
        for (a, b) in ws.to_polyset().iter().zip(expected.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_polyset_works() {
        let polys: PolySet<f64> = PolySet::new();
        let mut ws = WorkingSet::from_polyset(&polys);
        assert_eq!(ws.size_m(), 0);
        assert_eq!(ws.size_v(), 0);
        ws.apply_var_map(|x| x);
        assert!(ws.to_polyset().is_empty());
    }

    #[test]
    fn subset_compacts_the_arena() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        let sub = ws.subset(&[1]);
        assert_eq!(sub.num_polys(), 1);
        assert_eq!(sub.poly_size_m(0), 2);
        // Only the sample's own live monomials are carried over.
        assert_eq!(sub.arena().len(), 2);
        let back = sub.to_polyset();
        assert_eq!(back.iter().next(), polys.iter().nth(1));
    }

    #[test]
    fn subset_with_reuses_the_scratch_table() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        let mut scratch = SubsetScratch::new();
        // Warm-up call sizes the remap table.
        let warm = ws.subset_with(&[0, 1], &mut scratch);
        assert_eq!(warm.size_m(), ws.size_m());
        let warmed_capacity = scratch.capacity();
        assert!(warmed_capacity > 0);
        // Every further subset of no larger footprint must run inside the
        // retained capacity — no re-allocation of the remap table.
        for indices in [&[0usize, 1][..], &[1], &[0], &[1, 0]] {
            let sub = ws.subset_with(indices, &mut scratch);
            assert_eq!(sub.num_polys(), indices.len());
            assert_eq!(
                scratch.capacity(),
                warmed_capacity,
                "subset_with grew the scratch on {indices:?}"
            );
        }
        // And the output matches the allocating variant exactly.
        let a = ws.subset(&[1]);
        let b = ws.subset_with(&[1], &mut scratch);
        for (x, y) in a.to_polyset().iter().zip(b.to_polyset().iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn absorb_appends_and_interns_once() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        let mut acc: WorkingSet<f64> = WorkingSet::with_capacity(MonoArena::new(), 0, 0);
        acc.absorb(&ws.subset(&[0]));
        acc.absorb(&ws.subset(&[1]));
        assert_eq!(acc.num_polys(), 2);
        assert_eq!(acc.size_m(), ws.size_m());
        assert_eq!(acc.size_v(), ws.size_v());
        // The shared monomial 1·8 is interned once across the two chunks.
        assert_eq!(acc.arena().len(), ws.arena().len());
        for (a, b) in acc.to_polyset().iter().zip(polys.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        let arena = ws.arena().clone();
        // Term lists in any order — a producer's accumulation maps, here
        // each run backwards — come out as the same ascending runs.
        let terms: Vec<Vec<(MonoId, f64)>> = (0..ws.num_polys())
            .map(|pi| {
                let mut run: Vec<_> = ws.poly_terms(pi).map(|(id, c)| (id, *c)).collect();
                run.reverse();
                run
            })
            .collect();
        let rebuilt = WorkingSet::from_parts(arena, terms);
        for pi in 0..ws.num_polys() {
            assert!(rebuilt.poly_terms(pi).eq(ws.poly_terms(pi)));
        }
        for (a, b) in rebuilt.to_polyset().iter().zip(polys.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn push_poly_accumulates_in_the_order_given_and_drops_zeros() {
        let mut ws: WorkingSet<f64> = WorkingSet::with_capacity(MonoArena::new(), 0, 0);
        let ids: Vec<MonoId> = (1..=3)
            .map(|i| ws.arena_mut().intern(&Monomial::var(v(i))))
            .collect();
        // 1e16 + 1 − 1e16 on one monomial: left to right the 1 is lost.
        ws.push_poly([
            (ids[2], 4.0),
            (ids[0], 1e16),
            (ids[1], 2.0),
            (ids[0], 1.0),
            (ids[1], -2.0),
            (ids[0], -1e16),
        ]);
        assert_eq!(ws.size_m(), 1, "the zero sums are gone");
        assert!(ws.poly_terms(0).eq([(ids[2], &4.0)]));
        // The same three terms with the 1 last keep it.
        ws.push_poly([
            (ids[1], 1.0),
            (ids[0], 1e16),
            (ids[0], -1e16),
            (ids[0], 1.0),
        ]);
        assert!(ws.poly_terms(1).eq([(ids[0], &1.0), (ids[1], &1.0)]));
        assert_eq!((ws.poly_span(0), ws.poly_span(1)), (0..1, 1..3));
    }

    #[test]
    fn coeff_and_sorted_ids() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        assert_eq!(ws.poly_mono_ids(0).len(), 3);
        for pi in 0..ws.num_polys() {
            assert!(ws.poly_mono_ids(pi).windows(2).all(|w| w[0] < w[1]));
        }
        let m18 = ws
            .arena()
            .get(&Monomial::from_vars([v(1), v(8)]))
            .expect("interned");
        let coeff_in =
            |pi: usize, id: MonoId| ws.poly_terms(pi).find(|&(m, _)| m == id).map(|(_, c)| *c);
        assert_eq!(coeff_in(0, m18), Some(2.0));
        assert_eq!(coeff_in(1, m18), Some(5.0));
        let m39 = ws
            .arena()
            .get(&Monomial::from_vars([v(3), v(9)]))
            .expect("interned");
        assert_eq!(coeff_in(1, m39), None, "3·9 not live in P2");
    }

    #[test]
    fn compaction_keeps_the_live_monomials_in_order() {
        let polys = sample();
        let mut ws = WorkingSet::from_polyset(&polys);
        ws.apply_group(&[v(1), v(2), v(3)], v(20), &[0, 1]);
        let (before, frozen) = (ws.to_polyset(), ws.freeze());
        assert!(ws.arena().len() > ws.live_monomials().count());
        ws.compact();
        assert_eq!(ws.arena().len(), ws.live_monomials().count());
        for (a, b) in ws.to_polyset().iter().zip(before.iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(ws.freeze().vars(), frozen.vars());
        for (a, b) in ws
            .freeze()
            .to_polyset()
            .iter()
            .zip(frozen.to_polyset().iter())
        {
            assert_eq!(a, b);
        }
        // The compacted set rewrites like any other.
        ws.apply_group(&[v(8), v(9)], v(21), &[0, 1]);
        assert_eq!(ws.size_m(), 2);
    }
}
