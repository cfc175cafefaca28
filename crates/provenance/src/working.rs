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
//! * each polynomial becomes a map `monomial id → coefficient`, so
//!   merging under a substitution is id remapping plus coefficient
//!   accumulation — no monomial is rebuilt unless the substitution
//!   actually changes it, and cross-polynomial duplicates (the common
//!   case for grouped provenance) are remapped exactly once;
//! * the arena's postings index finds the monomials a group substitution
//!   can touch without scanning anything else;
//! * the arena's memoised *remainder index* — the `M_l` operation of
//!   §4.1 — makes the monomial loss of a candidate group a matter of
//!   `u32` probes instead of monomial construction and hashing.
//!
//! The working set is the *rewriting* view over the arena; freezing it
//! with [`WorkingSet::freeze`] yields the read-only evaluation view
//! ([`crate::compiled::CompiledPolySet`]) by re-slicing the same arena —
//! no intermediate [`PolySet`] is materialised.
//!
//! Term *sets* evolve exactly as under [`Polynomial::map_vars`]: the same
//! monomials exist with the same coefficient sums, and terms whose
//! coefficients cancel to zero are dropped. The only divergence from the
//! hash-map path is the *order* in which merged coefficients are added,
//! which can differ in the last floating-point bit when three or more
//! terms collapse into one (and can only change a term's existence if a
//! sum lands exactly on zero in one order but not another — impossible
//! for the non-negative provenance coefficients the paper's workloads
//! produce, and irrelevant for exact coefficient types).
//!
//! [`Polynomial::map_vars`]: crate::polynomial::Polynomial::map_vars

use crate::coeff::Coefficient;
use crate::compiled::{CompiledPolySet, CompiledView};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::intern::MonoArena;
use crate::monomial::{MonoRef, Monomial};
use crate::polynomial::Polynomial;
use crate::polyset::PolySet;
use crate::var::VarId;

pub use crate::intern::MonoId;

/// Reusable scratch state for [`WorkingSet::subset_with`].
///
/// Extracting one subset needs an old-id → new-id remap table sized by
/// the subset's distinct monomials. Callers cutting *many* subsets out of
/// one working set (the shard partitioner above all) reuse one scratch
/// across calls so the table's allocation is paid once and then only
/// grows to the largest subset seen — instead of K fresh tables, each
/// re-growing through the same doubling sequence.
#[derive(Debug, Default)]
pub struct SubsetScratch {
    remap: FxHashMap<MonoId, MonoId>,
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

/// The buffers one group rewrite fills ([`WorkingSet::ml_delta_of_group`],
/// [`WorkingSet::apply_group`]), kept by the working set between calls so
/// a rewrite allocates nothing once they have warmed up. They hold
/// nothing between calls, so a clone starts with fresh ones.
#[derive(Debug, Default)]
struct GroupScratch {
    /// Scoring: each monomial a group touches with its remainder class
    /// (remainder id and exponent in one word).
    classes: Vec<(MonoId, u64)>,
    /// `classes` as a lookup table.
    class_of: FxHashMap<MonoId, u64>,
    /// Scoring: the remainder classes met in one polynomial.
    distinct: FxHashSet<u64>,
    /// Applying: each monomial a group touches with the id it becomes.
    remap: Vec<(MonoId, MonoId)>,
    /// `remap` as a lookup table.
    remapped: FxHashMap<MonoId, MonoId>,
}

impl Clone for GroupScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// A poly-set lowered into an interned, id-addressed form that supports
/// cheap incremental substitution. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct WorkingSet<C> {
    /// The shared monomial arena (append-only; also holds monomials that
    /// are no longer live in any polynomial).
    arena: MonoArena,
    /// Per polynomial: live terms as `monomial id → coefficient`.
    terms: Vec<FxHashMap<MonoId, C>>,
    /// Buffers of the group rewrites.
    scratch: GroupScratch,
}

/// Adds `coeff` to `map[id]`, dropping the entry when the sum vanishes —
/// the id-space analogue of [`Polynomial::add_term`], sharing the one
/// accumulate-and-drop rule ([`crate::intern::accumulate`]).
///
/// [`Polynomial::add_term`]: crate::polynomial::Polynomial::add_term
fn add_term_id<C: Coefficient>(map: &mut FxHashMap<MonoId, C>, id: MonoId, coeff: C) {
    crate::intern::accumulate(map, id, coeff);
}

/// Hands `visit` every arena monomial a substitution of `group` can
/// touch, with the group variable it contains (compatibility — at most
/// one tree node per monomial — makes the pairing unique among live
/// monomials), variable by variable in posting order. `visit` may
/// intern: what it adds lands behind the postings being read, and is not
/// visited for the variable whose turn it is.
fn visit_occurrences(
    arena: &mut MonoArena,
    group: &[VarId],
    mut visit: impl FnMut(&mut MonoArena, MonoId, VarId),
) {
    for &v in group {
        for at in 0..arena.postings_of(v).len() {
            let m = arena.postings_of(v)[at];
            visit(arena, m, v);
        }
    }
}

impl<C: Coefficient> WorkingSet<C> {
    /// Lowers a poly-set: interns every distinct monomial and builds the
    /// id-keyed term maps plus the postings index.
    pub fn from_polyset(polys: &PolySet<C>) -> Self {
        let mut ws = Self::from_parts(MonoArena::new(), Vec::with_capacity(polys.len()));
        for p in polys.iter() {
            let mut map = FxHashMap::default();
            map.reserve(p.size_m());
            for (m, c) in p.iter() {
                let id = ws.arena.intern(m);
                // Input polynomials never store duplicate monomials, so
                // plain insertion suffices (and never drops a term).
                map.insert(id, c.clone());
            }
            ws.terms.push(map);
        }
        ws
    }

    /// Assembles a working set from an already-built arena and term maps
    /// — the constructor used by producers that intern during emission
    /// (e.g. the engine's interned aggregation) instead of lowering a
    /// materialised [`PolySet`].
    ///
    /// # Panics
    /// Panics (in debug builds) if any term id is outside the arena.
    pub fn from_parts(arena: MonoArena, terms: Vec<FxHashMap<MonoId, C>>) -> Self {
        debug_assert!(terms
            .iter()
            .all(|map| map.keys().all(|&id| (id as usize) < arena.len())));
        Self {
            arena,
            terms,
            scratch: GroupScratch::default(),
        }
    }

    /// Rebuilds a working set from compiled columns — how a session opened
    /// from an artifact gets back the interned form of what it stores.
    /// Monomials are interned in column order, each factor list brought
    /// into canonical form first and terms that end up on one monomial
    /// accumulated, so this is total on whatever the artifact validator
    /// admits. `from_compiled(ws.freeze().view())` is `ws` as a poly-set;
    /// its arena ids are its own, not `ws`'s.
    pub fn from_compiled(view: CompiledView<'_, C>) -> Self {
        let mut arena = MonoArena::new();
        let mut start = 0;
        let poly_ends = view.poly_ends.iter();
        let mut terms: Vec<FxHashMap<MonoId, C>> = poly_ends
            .map(|&end| {
                let mut map = FxHashMap::default();
                map.reserve((end - start) as usize);
                start = end;
                map
            })
            .collect();
        view.for_each_term(|pi, coeff, factors| {
            Monomial::canonicalise(factors);
            add_term_id(&mut terms[pi], arena.intern_factors(factors), coeff.clone());
        });
        Self::from_parts(arena, terms)
    }

    /// The shared monomial arena.
    pub fn arena(&self) -> &MonoArena {
        &self.arena
    }

    /// Mutable access to the arena — for consumers that extend it with
    /// derived monomials (remainders, products). The arena is append-only,
    /// so growing it never invalidates the working set's term ids.
    pub fn arena_mut(&mut self) -> &mut MonoArena {
        &mut self.arena
    }

    /// The interned monomial behind `id`.
    pub fn mono(&self, id: MonoId) -> MonoRef<'_> {
        self.arena.mono(id)
    }

    /// Number of polynomials.
    pub fn num_polys(&self) -> usize {
        self.terms.len()
    }

    /// Live monomial ids of polynomial `pi`, in unspecified order.
    pub fn poly_mono_ids(&self, pi: usize) -> impl Iterator<Item = MonoId> + '_ {
        self.terms[pi].keys().copied()
    }

    /// Live terms of polynomial `pi` as `(monomial id, coefficient)`, in
    /// unspecified order.
    pub fn poly_terms(&self, pi: usize) -> impl Iterator<Item = (MonoId, &C)> {
        self.terms[pi].iter().map(|(&id, c)| (id, c))
    }

    /// Live terms of polynomial `pi` in ascending id order — the working
    /// set's canonical term order, used by every deterministic export
    /// ([`to_polyset`](Self::to_polyset), [`freeze`](Self::freeze), the
    /// artifact codec).
    pub fn sorted_terms(&self, pi: usize) -> Vec<(MonoId, &C)> {
        let mut terms: Vec<(MonoId, &C)> = self.poly_terms(pi).collect();
        terms.sort_unstable_by_key(|&(id, _)| id);
        terms
    }

    /// `|P_pi|_M` of the current (rewritten) polynomial.
    pub fn poly_size_m(&self, pi: usize) -> usize {
        self.terms[pi].len()
    }

    /// `|𝒫|_M` of the current working set.
    pub fn size_m(&self) -> usize {
        self.terms.iter().map(FxHashMap::len).sum()
    }

    /// Liveness bitmap over the arena: `true` for ids live in at least
    /// one polynomial.
    fn live_flags(&self) -> Vec<bool> {
        let mut live = vec![false; self.arena.len()];
        for map in &self.terms {
            for &id in map.keys() {
                live[id as usize] = true;
            }
        }
        live
    }

    /// The distinct variables across the live monomials (`V(𝒫)`).
    pub fn live_vars(&self) -> FxHashSet<VarId> {
        let live = self.live_flags();
        let mut vars: FxHashSet<VarId> = FxHashSet::default();
        for (idx, is_live) in live.iter().enumerate() {
            if *is_live {
                vars.extend(self.arena.mono(idx as MonoId).vars());
            }
        }
        vars
    }

    /// Iterates the distinct live monomials (each arena entry at most
    /// once, regardless of how many polynomials share it).
    pub fn live_monomials(&self) -> impl Iterator<Item = MonoRef<'_>> {
        let live = self.live_flags();
        (0..self.arena.len())
            .filter(move |&idx| live[idx])
            .map(|idx| self.arena.mono(idx as MonoId))
    }

    /// `|𝒫|_V`: distinct variables across the live monomials.
    pub fn size_v(&self) -> usize {
        self.live_vars().len()
    }

    /// A working set over the polynomials at `indices` (in that order) —
    /// the sampling primitive of the online compression scheme. The
    /// sample gets a *fresh, compacted* arena holding only its own live
    /// monomials, so a small sample costs work proportional to the
    /// sample, not to the full provenance (a 5 % draw does not drag the
    /// other 95 %'s arena, postings and memo indexes along).
    pub fn subset(&self, indices: &[usize]) -> Self {
        self.subset_with(indices, &mut SubsetScratch::new())
    }

    /// [`subset`](Self::subset) with caller-provided scratch: the remap
    /// table lives in `scratch` (cleared, capacity retained), so a loop
    /// cutting many subsets — the shard partitioner constructs K
    /// per-shard working sets from one source — allocates the table once
    /// instead of per call. Per-polynomial term maps are pre-reserved
    /// from the source sizes.
    pub fn subset_with(&self, indices: &[usize], scratch: &mut SubsetScratch) -> Self {
        let mut arena = MonoArena::new();
        let remap = &mut scratch.remap;
        remap.clear();
        remap.reserve(indices.iter().map(|&pi| self.terms[pi].len()).sum());
        let terms = indices
            .iter()
            .map(|&pi| {
                let mut map = FxHashMap::default();
                map.reserve(self.terms[pi].len());
                for (&id, c) in &self.terms[pi] {
                    let new_id = *remap
                        .entry(id)
                        .or_insert_with(|| arena.intern_factors(self.arena.mono(id).as_factors()));
                    map.insert(new_id, c.clone());
                }
                map
            })
            .collect();
        Self::from_parts(arena, terms)
    }

    /// Appends every polynomial of `other` to this working set, interning
    /// `other`'s live monomials into this arena — the chunk-ingest
    /// primitive of the streaming compression path: each incoming chunk
    /// is absorbed into the carried (already compressed) working set, and
    /// only then rewritten under the cumulative abstraction.
    ///
    /// Polynomial indices of `other` shift by `self.num_polys()`; the
    /// polynomials themselves are unchanged (same term sets, same
    /// coefficients).
    pub fn absorb(&mut self, other: &WorkingSet<C>) {
        let mut remap: FxHashMap<MonoId, MonoId> = FxHashMap::default();
        remap.reserve(other.arena.len());
        self.terms.reserve(other.num_polys());
        for src in &other.terms {
            let mut map = FxHashMap::default();
            map.reserve(src.len());
            for (&id, c) in src {
                let new_id = *remap.entry(id).or_insert_with(|| {
                    self.arena.intern_factors(other.arena.mono(id).as_factors())
                });
                map.insert(new_id, c.clone());
            }
            self.terms.push(map);
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
    /// variable (a superset is fine); `group` variables must belong to at
    /// most one monomial each (forest compatibility).
    pub fn ml_delta_of_group(&mut self, group: &[VarId], affected: &[usize]) -> usize {
        if group.len() < 2 {
            return 0;
        }
        let Self {
            arena,
            terms,
            scratch,
        } = self;
        // Relevant monomials with their remainder class, as both a probe
        // list and a lookup map: per polynomial the cheaper side wins.
        let GroupScratch {
            classes,
            class_of,
            distinct,
            ..
        } = scratch;
        classes.clear();
        class_of.clear();
        visit_occurrences(arena, group, |arena, m, v| {
            let (rem, exp) = arena.remainder(m, v);
            let key = (u64::from(rem) << 32) | u64::from(exp);
            classes.push((m, key));
            class_of.insert(m, key);
        });
        let mut delta = 0usize;
        for &pi in affected {
            let map = &terms[pi];
            distinct.clear();
            let mut matches = 0usize;
            if classes.len() <= map.len() {
                for &(m, key) in classes.iter() {
                    if map.contains_key(&m) {
                        matches += 1;
                        distinct.insert(key);
                    }
                }
            } else {
                for &m in map.keys() {
                    if let Some(&key) = class_of.get(&m) {
                        matches += 1;
                        distinct.insert(key);
                    }
                }
            }
            delta += matches - distinct.len();
        }
        delta
    }

    /// Applies the group substitution `group → target` to the polynomials
    /// at `affected`, merging coefficients of monomials that become equal
    /// (and dropping exact-zero sums) — semantically `map_vars` restricted
    /// to the affected polynomials, at id-remap cost.
    ///
    /// `affected` must cover every polynomial containing a `group`
    /// variable; polynomials outside it are left untouched (they contain
    /// no group variable, so the substitution fixes them anyway).
    pub fn apply_group(&mut self, group: &[VarId], target: VarId, affected: &[usize]) {
        let Self {
            arena,
            terms,
            scratch,
        } = self;
        let GroupScratch {
            remap, remapped, ..
        } = scratch;
        remap.clear();
        remapped.clear();
        visit_occurrences(arena, group, |arena, m, v| {
            let (rem, exp) = arena.remainder(m, v);
            let new_id = arena.mul_factor(rem, target, exp);
            remap.push((m, new_id));
            remapped.insert(m, new_id);
        });
        for &pi in affected {
            let map = &mut terms[pi];
            if remap.len() <= map.len() {
                // Move only the touched terms.
                for &(old, new) in remap.iter() {
                    if let Some(c) = map.remove(&old) {
                        add_term_id(map, new, c);
                    }
                }
            } else {
                // Small polynomial: rebuilding beats probing the remap.
                let old = std::mem::take(map);
                map.reserve(old.len());
                for (m, c) in old {
                    add_term_id(map, remapped.get(&m).copied().unwrap_or(m), c);
                }
            }
        }
    }

    /// Applies an arbitrary variable substitution to *every* polynomial —
    /// the wholesale `𝒫↓S` application, with each distinct monomial
    /// remapped exactly once no matter how many polynomials share it.
    pub fn apply_var_map(&mut self, mut map: impl FnMut(VarId) -> VarId) {
        let mut remap: FxHashMap<MonoId, MonoId> = FxHashMap::default();
        let mut mapped: Vec<(VarId, u32)> = Vec::new();
        for pi in 0..self.terms.len() {
            let old = std::mem::take(&mut self.terms[pi]);
            let mut new_map: FxHashMap<MonoId, C> = FxHashMap::default();
            new_map.reserve(old.len());
            for (m, c) in old {
                let id = match remap.get(&m) {
                    Some(&id) => id,
                    None => {
                        let moved = self.arena.mono(m).vars().any(|v| map(v) != v);
                        let id = if moved {
                            mapped.clear();
                            mapped.extend(self.arena.mono(m).factors().map(|(v, e)| (map(v), e)));
                            Monomial::canonicalise(&mut mapped);
                            self.arena.intern_factors(&mapped)
                        } else {
                            m
                        };
                        remap.insert(m, id);
                        id
                    }
                };
                add_term_id(&mut new_map, id, c);
            }
            self.terms[pi] = new_map;
        }
    }

    /// Drops every arena entry that no polynomial holds, and with them the
    /// arena's remainder memo: the monomials that are live keep their
    /// order (a monomial's new id is its rank among the live ids), so the
    /// canonical term order — and with it [`freeze`](Self::freeze),
    /// [`to_polyset`](Self::to_polyset) and the artifact codec — come out
    /// as they would have. A compression run leaves behind every monomial
    /// it rewrote and every remainder it scored; this is what a caller
    /// does once with the `𝒫↓S` it is going to keep.
    pub fn compact(&mut self) {
        let live = self.live_flags();
        let kept = || (0..live.len()).filter(|&id| live[id]);
        let factors = kept().map(|id| self.arena.mono(id as MonoId).num_vars());
        let mut arena = MonoArena::with_capacity(kept().count(), factors.sum());
        let mut new_ids = vec![MonoId::MAX; live.len()];
        for id in kept() {
            new_ids[id] = arena.intern_factors(self.arena.mono(id as MonoId).as_factors());
        }
        for map in &mut self.terms {
            *map = map
                .drain()
                .map(|(id, c)| (new_ids[id as usize], c))
                .collect();
        }
        self.arena = arena;
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
        PolySet::from_vec(
            (0..self.terms.len())
                .map(|pi| {
                    Polynomial::from_terms(
                        self.sorted_terms(pi)
                            .into_iter()
                            .map(|(id, c)| (self.arena.mono(id).to_monomial(), c.clone())),
                    )
                })
                .collect(),
        )
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
        let mut acc: WorkingSet<f64> = WorkingSet::from_parts(MonoArena::new(), Vec::new());
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
        let terms: Vec<FxHashMap<MonoId, f64>> = (0..ws.num_polys())
            .map(|pi| ws.poly_terms(pi).map(|(id, c)| (id, *c)).collect())
            .collect();
        let rebuilt = WorkingSet::from_parts(arena, terms);
        for (a, b) in rebuilt.to_polyset().iter().zip(polys.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn coeff_and_sorted_ids() {
        let polys = sample();
        let ws = WorkingSet::from_polyset(&polys);
        let terms = ws.sorted_terms(0);
        assert_eq!(terms.len(), 3);
        assert!(terms.windows(2).all(|w| w[0].0 < w[1].0));
        let m18 = ws
            .arena()
            .get(&Monomial::from_vars([v(1), v(8)]))
            .expect("interned");
        let coeff_in = |pi: usize, id: MonoId| {
            let terms = ws.sorted_terms(pi);
            terms.iter().find(|&&(m, _)| m == id).map(|&(_, c)| *c)
        };
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
