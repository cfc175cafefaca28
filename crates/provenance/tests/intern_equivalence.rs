//! Property suite of the interned provenance currency: for random
//! poly-sets, the interned pipeline round-trips bit-for-bit to the
//! hash-map semantics, and freezing a working set into a
//! `CompiledPolySet` evaluates identically to the `to_polyset` →
//! `compile` round-trip on every evaluation entry point.
//!
//! Coefficients and valuations are integer-valued, so every sum and
//! product is exact in `f64` — equality is decidable and independent of
//! summation order (the one degree of freedom the interned
//! representation has; the documented last-bit caveat of
//! `provabs_provenance::working` never manifests on exact inputs).

use proptest::prelude::*;
use provabs_provenance::compiled::CompiledPolySet;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::VarId;
use provabs_provenance::working::WorkingSet;
use provabs_testkit::{runs, Coeffs, Powers, Shape};

/// A random poly-set over variables v0..v9 with small integer-valued
/// `f64` coefficients and exponents 1..=2.
fn polys() -> impl Strategy<Value = PolySet<f64>> {
    Shape {
        arity: 0..=3,
        powers: Powers::Dense(2),
        coeffs: Coeffs::Integers,
        ..Shape::default()
    }
    .strategy()
}

/// A compatible group: variables drawn from a fixed family that the
/// strategy above places in *separate* monomials often enough — filtered
/// below to groups whose variables never co-occur in one monomial.
fn group_is_compatible(polys: &PolySet<f64>, group: &[VarId]) -> bool {
    polys
        .monomials()
        .all(|(_, m, _)| group.iter().filter(|&&v| m.contains(v)).count() <= 1)
}

/// Integer valuation: deterministic per variable, exact in f64.
fn int_valuation(offset: u32) -> Valuation<f64> {
    let mut val = Valuation::neutral();
    for v in 0..16u32 {
        val.assign(VarId(v), f64::from((v * 7 + offset) % 5));
    }
    val
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lowering a poly-set into the interned working set and bridging
    /// back is the identity (term sets, coefficients, measures).
    #[test]
    fn ingest_roundtrip_is_identity(polys in polys()) {
        let ws = WorkingSet::from_polyset(&polys);
        prop_assert_eq!(ws.size_m(), polys.size_m());
        prop_assert_eq!(ws.size_v(), polys.size_v());
        prop_assert_eq!(ws.num_polys(), polys.len());
        assert_eq!(ws.to_polyset().as_slice(), polys.as_slice());
        // The live-variable view equals the poly-set's variable set.
        prop_assert_eq!(ws.live_vars(), polys.var_set());
    }

    /// Freezing a working set evaluates bit-for-bit like compiling its
    /// materialisation, on every evaluation entry point.
    #[test]
    fn freeze_equals_compile_of_materialisation(polys in polys(), offset in 0u32..5) {
        let ws = WorkingSet::from_polyset(&polys);
        let frozen = ws.freeze();
        let compiled = CompiledPolySet::compile(&ws.to_polyset());
        prop_assert_eq!(frozen.num_polys(), compiled.num_polys());
        prop_assert_eq!(frozen.num_monomials(), compiled.num_monomials());
        prop_assert_eq!(frozen.num_vars(), compiled.num_vars());
        let vals = [int_valuation(offset), Valuation::neutral(), int_valuation(offset + 1)];
        for val in &vals {
            let a = frozen.eval_one(val);
            let b = compiled.eval_one(val);
            let c = val.eval_set(&polys);
            for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "freeze vs compile");
                prop_assert_eq!(x.to_bits(), z.to_bits(), "freeze vs hash-map eval");
            }
        }
        // Batch evaluation agrees with single-shot evaluation.
        let batch = frozen.eval_all(&vals);
        for (s, val) in vals.iter().enumerate() {
            prop_assert_eq!(batch[s].clone(), frozen.eval_one(val));
        }
        // And both denote the same poly-set.
        assert_eq!(frozen.to_polyset().as_slice(), compiled.to_polyset().as_slice());
    }

    /// A group substitution in id space equals `map_vars` on the
    /// hash-map representation, and the predicted monomial loss matches
    /// the actual merge count.
    #[test]
    fn apply_group_and_ml_delta_match_map_vars(polys in polys(), pick in prop::collection::vec(0u32..10, 2..4)) {
        let group: Vec<VarId> = {
            let mut g: Vec<VarId> = pick.into_iter().map(VarId).collect();
            g.sort_unstable_by_key(|v| v.0);
            g.dedup();
            g
        };
        prop_assume!(group.len() >= 2);
        prop_assume!(group_is_compatible(&polys, &group));
        let target = VarId(99);
        let affected: Vec<usize> = (0..polys.len()).collect();
        let mut ws = WorkingSet::from_polyset(&polys);
        let predicted = ws.ml_delta_of_group(&group, &affected);
        ws.apply_group(&group, target, &affected);
        let expected = polys.map_vars(|v| if group.contains(&v) { target } else { v });
        prop_assert_eq!(ws.size_m(), expected.size_m());
        prop_assert_eq!(ws.size_v(), expected.size_v());
        prop_assert_eq!(predicted, polys.size_m() - expected.size_m());
        assert_eq!(ws.to_polyset().as_slice(), expected.as_slice());
        // Freezing the rewritten set still matches the hash-map result.
        let frozen = ws.freeze();
        let val = int_valuation(3);
        let a = frozen.eval_one(&val);
        let b = val.eval_set(&expected);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Wholesale substitutions (the `𝒫↓S` application) agree with
    /// `map_vars` for arbitrary variable maps — including collapsing
    /// maps that merge monomials within a polynomial.
    #[test]
    fn apply_var_map_matches_map_vars(polys in polys(), modulus in 1u32..6) {
        let map = |v: VarId| VarId(v.0 % modulus);
        let mut ws = WorkingSet::from_polyset(&polys);
        ws.apply_var_map(map);
        let expected = polys.map_vars(map);
        prop_assert_eq!(ws.size_m(), expected.size_m());
        prop_assert_eq!(ws.size_v(), expected.size_v());
        assert_eq!(ws.to_polyset().as_slice(), expected.as_slice());
    }

    /// Subsetting (the online-sampling primitive) selects exactly the
    /// indexed polynomials, over the shared arena.
    #[test]
    fn subset_matches_index_selection(polys in polys(), mask in prop::collection::vec(any::<bool>(), 0..5)) {
        let indices: Vec<usize> = (0..polys.len())
            .filter(|&i| mask.get(i).copied().unwrap_or(false))
            .collect();
        let ws = WorkingSet::from_polyset(&polys);
        let sub = ws.subset(&indices);
        prop_assert_eq!(sub.num_polys(), indices.len());
        let slice = polys.as_slice();
        let expected = PolySet::from_vec(indices.iter().map(|&i| slice[i].clone()).collect::<Vec<_>>());
        assert_eq!(sub.to_polyset().as_slice(), expected.as_slice());
    }
}

// ---------------------------------------------------------------------
// The arena and the term runs against a model, id for id and bit for bit
// ---------------------------------------------------------------------
//
// `MonoArena` keeps its monomials in one flat factor column behind an
// open-addressed table of ids; `WorkingSet` keeps every term in one flat
// column pair, a polynomial being a sorted run of it that is rewritten in
// place. The model below is the plainest thing that does either: a
// `HashMap<Monomial, u32>` over boxed monomials, with every derived
// monomial built by `Monomial`'s own algebra, and one `BTreeMap<MonoId,
// f64>` per polynomial, rewritten by the accumulation rule as the module
// docs state it. A random interleaving of every operation that can assign
// an id or move a term must leave the two agreeing on every id, every
// posting and every run — order and coefficient bits included — and the
// working set agreeing with `PolySet::map_vars` on what it denotes.
//
// What this suite was checked to catch (by hand, the mutations are not in
// the tree): with `MonoArena::probe` accepting a slot whose stored
// monomial merely hashes to the same table slot as the probe — a slot
// compared by hash only — `interleavings_agree_with_the_model` fails
// on its first cases with two monomials sharing an id; with
// `rebuild_run` taking the term in its slot first whenever a moved
// term has the same target (source order ignored),
// `cancellation_follows_source_order` loses the term that should survive
// (the random walk seldom lands three terms on a live monomial, and
// passes).

use provabs_provenance::intern::MonoId;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// The model: an interning map over owned monomials, and each polynomial
/// as an ordered map from id to coefficient.
#[derive(Clone, Default)]
struct Model {
    ids: HashMap<Monomial, MonoId>,
    monos: Vec<Monomial>,
    terms: Vec<BTreeMap<MonoId, f64>>,
}

impl Model {
    fn intern(&mut self, mono: Monomial) -> MonoId {
        let next = self.monos.len() as MonoId;
        *self.ids.entry(mono.clone()).or_insert_with(|| {
            self.monos.push(mono);
            next
        })
    }

    /// Ids of the monomials containing `v`, ascending.
    fn postings(&self, v: VarId) -> Vec<MonoId> {
        (0..self.monos.len() as MonoId)
            .filter(|&id| self.monos[id as usize].contains(v))
            .collect()
    }

    /// The model whose ids are the working set's: what a rebuilt arena
    /// (subset, compaction) is compared with before the walk goes on.
    fn of(ws: &WorkingSet<f64>) -> Self {
        let mut model = Model::default();
        for id in 0..ws.arena().len() as MonoId {
            assert_eq!(
                model.intern(ws.mono(id).to_monomial()),
                id,
                "a monomial twice"
            );
        }
        model.terms = (0..ws.num_polys())
            .map(|pi| ws.poly_terms(pi).map(|(id, &c)| (id, c)).collect())
            .collect();
        model
    }

    /// The accumulation rule, by the book: every term moves to
    /// `target(id)`; the terms that meet on one monomial are added in
    /// ascending source id — the order a `BTreeMap` is walked in — and a
    /// finished sum of exactly zero goes.
    fn rewrite(&mut self, target: impl Fn(MonoId) -> MonoId) {
        for terms in &mut self.terms {
            let mut rewritten = BTreeMap::new();
            for (&id, &c) in terms.iter() {
                rewritten
                    .entry(target(id))
                    .and_modify(|sum| *sum += c)
                    .or_insert(c);
            }
            rewritten.retain(|_, c| *c != 0.0);
            *terms = rewritten;
        }
    }

    /// A group substitution: the product of each occurrence interned,
    /// variable by variable in posting order (a variable's postings read
    /// when its turn comes), then the rule. Scoring interns nothing, so
    /// the model has no step for it.
    fn apply_group(&mut self, group: &[VarId], target: VarId) {
        let mut remap: HashMap<MonoId, MonoId> = HashMap::new();
        for &v in group {
            for id in self.postings(v) {
                let (rem, exp) = self.monos[id as usize].remove_var(v);
                let product = rem.mul(&Monomial::from_factors([(target, exp)]));
                remap.insert(id, self.intern(product));
            }
        }
        self.rewrite(|id| remap.get(&id).copied().unwrap_or(id));
    }

    fn live(&self) -> Vec<bool> {
        let mut live = vec![false; self.monos.len()];
        for id in self.terms.iter().flat_map(|terms| terms.keys()) {
            live[*id as usize] = true;
        }
        live
    }
}

/// A working set walked beside its model and beside the hash-map
/// poly-set it denotes.
struct Walk {
    ws: WorkingSet<f64>,
    model: Model,
    /// What `ws` denotes, kept by `PolySet`'s own operations.
    shadow: PolySet<f64>,
    /// Whether every coefficient is a small integer (sums are exact and
    /// may cancel) or a positive fraction (sums round and never cancel).
    exact: bool,
}

impl Walk {
    fn new(ws: WorkingSet<f64>, shadow: PolySet<f64>, exact: bool) -> Self {
        let model = Model::of(&ws);
        Walk {
            ws,
            model,
            shadow,
            exact,
        }
    }

    /// This walk with `ws` in place of its set (and the same model).
    fn with_set(&self, ws: WorkingSet<f64>) -> Self {
        Walk {
            ws,
            model: self.model.clone(),
            shadow: self.shadow.clone(),
            exact: self.exact,
        }
    }

    fn spans(&self) -> Vec<Range<usize>> {
        (0..self.ws.num_polys())
            .map(|pi| self.ws.poly_span(pi))
            .collect()
    }

    /// Every id, every posting, every lookup and every run agree; the
    /// runs sit one after another; the set denotes the shadow.
    fn assert_agree(&self) {
        let (ws, model) = (&self.ws, &self.model);
        let arena = ws.arena();
        assert_eq!(arena.len(), model.monos.len(), "arena length");
        for (id, mono) in model.monos.iter().enumerate() {
            assert_eq!(ws.mono(id as MonoId), mono.view(), "monomial {id}");
            assert_eq!(arena.get(mono), Some(id as MonoId), "lookup of {mono:?}");
        }
        for v in (0..16).map(VarId) {
            assert_eq!(postings(ws, v), model.postings(v), "postings of {v:?}");
        }
        assert_eq!(ws.num_polys(), model.terms.len());
        let mut end = 0;
        for (pi, terms) in model.terms.iter().enumerate() {
            // In a `BTreeMap`'s order, i.e. strictly ascending, and to the bit.
            let got: Vec<(MonoId, u64)> =
                ws.poly_terms(pi).map(|(id, c)| (id, c.to_bits())).collect();
            let want: Vec<(MonoId, u64)> = terms.iter().map(|(&id, c)| (id, c.to_bits())).collect();
            assert_eq!(got, want, "run of polynomial {pi}");
            assert_eq!(ws.poly_mono_ids(pi).len(), ws.poly_size_m(pi));
            let span = ws.poly_span(pi);
            assert!(end <= span.start, "run {pi} overlaps the one before it");
            end = span.end;
        }
        let denoted = ws.to_polyset();
        assert_eq!(denoted.len(), self.shadow.len());
        for (pi, (got, want)) in denoted.iter().zip(self.shadow.iter()).enumerate() {
            assert_eq!(got.size_m(), want.size_m(), "term set of polynomial {pi}");
            for (mono, &c) in want.iter() {
                let ours = got.coefficient(mono);
                let close = (ours - c).abs() <= 1e-9 * c.abs();
                assert!(
                    if self.exact { ours == c } else { close },
                    "polynomial {pi}, {mono:?}: {ours} against map_vars' {c}"
                );
            }
        }
    }
}

/// A drawn term: group variable (5 and 6 mean none), context factors,
/// coefficient draw.
type RawTerm = (u32, Vec<(u32, u32)>, i64);
type RawPolys = Vec<Vec<RawTerm>>;

/// Variables 0..4 are the *group* family — a monomial of a polynomial
/// holds at most one of them, as forest compatibility demands of the
/// variables one tree covers; 5..10 are context. Monomials recur within
/// and across polynomials (few variables, few exponents). `exact` makes
/// the coefficients small non-zero integers of either sign; otherwise
/// they are positive multiples of a tenth.
fn compatible_polyset(raw: &RawPolys, exact: bool) -> PolySet<f64> {
    let coeff = |c: i64| match (exact, c) {
        (true, 0) => 10.0,
        (true, c) => c as f64,
        (false, c) => 0.1 * (c.abs() + 1) as f64,
    };
    PolySet::from_vec(
        raw.iter()
            .map(|terms| {
                Polynomial::from_terms(terms.iter().map(|(group_var, context, c)| {
                    let group = (*group_var < 5).then_some((VarId(*group_var), 1));
                    let context = context.iter().map(|&(v, e)| (VarId(5 + v % 5), e));
                    (
                        Monomial::from_factors(group.into_iter().chain(context)),
                        coeff(*c),
                    )
                }))
            })
            .collect(),
    )
}

fn compatible_strategy(polys: std::ops::Range<usize>) -> impl Strategy<Value = RawPolys> {
    let term = (
        0u32..7,
        prop::collection::vec((0u32..5, 1u32..3), 0..3),
        -9i64..10,
    );
    prop::collection::vec(prop::collection::vec(term, 0..7), polys)
}

/// One step of an interleaving: an operation and the draws it reads.
type Step = (u32, u32, u32, Vec<(u32, u32)>, RawPolys);

/// Operations by number: 0 and 1 intern, 2 and 3 score and apply a group,
/// 7 applies a variable map.
const SUBSET: u32 = 4;
const ABSORB: u32 = 5;
const COMPACT: u32 = 6;
/// Appends absent monomials, leaving them past the table's watermark, then
/// interns.
const APPEND: u32 = 8;
/// One writer that appends, then interns.
const WRITE: u32 = 9;
/// The operation that clones a branch of the walk instead of changing one.
const FORK: u32 = 10;

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        0u32..=FORK,
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec((0u32..12, 0u32..3), 0..4),
        compatible_strategy(0..3),
    )
}

/// Applies one step to the working set, the model and the shadow, and
/// checks what the step itself promises about the spans.
fn apply_step(walk: &mut Walk, (op, a, b, factors, other): Step) {
    let before = walk.spans();
    let Walk {
        ws,
        model,
        shadow,
        exact,
    } = walk;
    match op {
        // intern, by value and by slice.
        0 => {
            let mono = Monomial::from_factors(factors.into_iter().map(|(v, e)| (VarId(v), e)));
            assert_eq!(ws.arena_mut().intern(&mono), model.intern(mono));
        }
        1 => {
            let mono = Monomial::from_factors(factors.into_iter().map(|(v, e)| (VarId(v), e)));
            assert_eq!(
                ws.arena_mut().intern_factors(mono.as_factors()),
                model.intern(mono)
            );
        }
        // Appending a monomial the arena does not hold gives it the next
        // id without a probe, and a lookup finds it past the table's
        // watermark; on odd draws interning then finds it too, once a
        // probe has put the appended ids in, and on even ones the step
        // leaves them out of the table.
        APPEND => {
            let mono = Monomial::from_factors(factors.into_iter().map(|(v, e)| (VarId(v), e)));
            let square = mono.mul(&mono);
            for mono in [&mono, &square] {
                if !model.ids.contains_key(mono) {
                    let id = ws.arena_mut().writer().append(mono.as_factors());
                    assert_eq!(id, model.intern(mono.clone()), "an appended id");
                }
            }
            assert_eq!(ws.arena().get(&square), model.ids.get(&square).copied());
            if a % 2 == 1 {
                let grown = square.mul(&Monomial::var(VarId(13 + b % 3)));
                assert_eq!(ws.arena_mut().intern(&grown), model.intern(grown));
                assert_eq!(ws.arena_mut().intern(&mono), model.intern(mono));
            }
        }
        // In one writer: appends, then interns what it appended, a
        // monomial the arena had, and one that is new.
        WRITE => {
            let mono = Monomial::from_factors(factors.into_iter().map(|(v, e)| (VarId(v), e)));
            let fresh = mono.mul(&Monomial::var(VarId(13 + a % 3)));
            let had = model
                .monos
                .get(b as usize % model.monos.len().max(1))
                .cloned();
            let mut writer = ws.arena_mut().writer();
            if !model.ids.contains_key(&mono) {
                assert_eq!(writer.append(mono.as_factors()), model.intern(mono.clone()));
            }
            for mono in had.into_iter().chain([mono, fresh]) {
                assert_eq!(writer.intern_factors(mono.as_factors()), model.intern(mono));
            }
        }
        // Score, then apply, a group substitution: scoring interns
        // nothing, applying interns a product per occurrence, variable by
        // variable in posting order (a variable's postings are read when
        // its turn comes: a dead monomial holding two group variables puts
        // its first product into the other one's).
        2 | 3 => {
            let group: Vec<VarId> = (0..5).filter(|i| a >> i & 1 == 1).map(VarId).collect();
            let target = VarId(5 + b % 8);
            let all: Vec<usize> = (0..ws.num_polys()).collect();
            // The score is the loss of merging into a *fresh* variable
            // (5..10 occur in the polynomials, 10..13 seldom do).
            let (size, fresh) = (ws.size_m(), !ws.live_vars().contains(&target));
            let predicted = ws.ml_delta_of_group(&group, &all);
            assert_eq!(ws.arena().len(), model.monos.len(), "scoring interned");
            ws.apply_group(&group, target, &all);
            model.apply_group(&group, target);
            *shadow = shadow.map_vars(|v| if group.contains(&v) { target } else { v });
            // Merged terms are lost; cancelled ones (integers) are too.
            let lost = size - ws.size_m();
            if group.len() >= 2 && fresh {
                assert!(predicted <= lost, "monomial loss of {group:?}");
                assert!(*exact || predicted == lost, "monomial loss of {group:?}");
            }
        }
        // A subset starts a fresh arena holding what its polynomials
        // hold and nothing else; the walk goes on over it.
        SUBSET => {
            let indices: Vec<usize> = (0..ws.num_polys())
                .filter(|i| a >> (i % 32) & 1 == 1)
                .collect();
            let sub = ws.subset(&indices);
            assert_eq!(
                sub.arena().len(),
                sub.live_monomials().count(),
                "a subset is compact"
            );
            let picked = indices.iter().map(|&i| shadow.as_slice()[i].clone());
            *shadow = PolySet::from_vec(picked.collect());
            *model = Model::of(&sub);
            *ws = sub;
        }
        // Absorbing appends: no id the arena had moves, every new id is
        // a monomial it did not have.
        ABSORB => {
            let other = compatible_polyset(&other, *exact);
            let incoming = WorkingSet::from_polyset(&other);
            ws.absorb(&incoming);
            for id in model.monos.len() as MonoId..ws.arena().len() as MonoId {
                assert_eq!(
                    model.intern(ws.mono(id).to_monomial()),
                    id,
                    "an absorbed id"
                );
            }
            for p in other.iter() {
                model
                    .terms
                    .push(p.iter().map(|(m, &c)| (model.ids[m], c)).collect());
                shadow.push(p.clone());
            }
        }
        // Compaction renumbers the live monomials by rank.
        COMPACT => {
            ws.compact();
            let live = model.live();
            let mut compacted = Model::default();
            let new_ids: Vec<Option<MonoId>> = live
                .iter()
                .zip(&model.monos)
                .map(|(&is_live, mono)| is_live.then(|| compacted.intern(mono.clone())))
                .collect();
            compacted.terms = std::mem::take(&mut model.terms);
            compacted.rewrite(|id| new_ids[id as usize].expect("live"));
            *model = compacted;
        }
        // A wholesale substitution that keeps the families apart: each
        // monomial it changes is interned when a polynomial first holds
        // it, polynomial by polynomial in ascending id.
        _ => {
            let (groups, contexts) = (1 + a % 5, 1 + b % 8);
            let map = |v: VarId| match v.0 {
                g @ 0..5 => VarId(g % groups),
                c => VarId(5 + (c - 5) % contexts),
            };
            ws.apply_var_map(map);
            let mut remap: HashMap<MonoId, MonoId> = HashMap::new();
            for pi in 0..model.terms.len() {
                let ids: Vec<MonoId> = model.terms[pi].keys().copied().collect();
                for id in ids {
                    let mapped = model.monos[id as usize].map_vars(map);
                    remap.entry(id).or_insert_with(|| model.intern(mapped));
                }
            }
            model.rewrite(|id| remap[&id]);
            *shadow = shadow.map_vars(map);
        }
    }
    // No run ever grows or moves: a rewrite leaves it inside the span it
    // had, an absorption leaves it alone, and only what rebuilds the
    // columns (subset, compaction) packs the runs again, from the start.
    let after = walk.spans();
    if op == SUBSET || op == COMPACT {
        let mut end = 0;
        for span in after {
            assert_eq!(span.start, end, "rebuilt columns have no gaps");
            end = span.end;
        }
    } else {
        for (pi, was) in before.iter().enumerate() {
            let now = &after[pi];
            assert!(
                now.start == was.start && now.end <= was.end,
                "run {pi} went from {was:?} to {now:?}"
            );
            assert!(op != ABSORB || now == was, "absorbing moved run {pi}");
        }
    }
}

// ---------------------------------------------------------------------
// Forks: clones share their source's arena and columns until they write
// ---------------------------------------------------------------------
//
// A clone of a working set shares its source's arena prefix, tail, table
// and term columns; whichever side first writes copies what it changes.
// A walk may fork: a branch is cloned, and from then on the steps drive
// one branch at a time. After every step each branch the step did not
// drive must look exactly as it did before, and each branch must look
// exactly like an *unshared twin* — the same set re-interned into a fresh
// arena — driven through the same steps.
//
// What this was checked to catch (by hand, the mutation is not in the
// tree): with promotion renumbering the tail — a shared tail behind a
// prefix copied in reverse id order instead of as it is —
// `interleavings_agree_with_the_model` fails (a written branch's
// `mono(id)` no longer matches its model), and so does
// `a_promoted_clone_forks_through_the_tail_copy`.

/// Everything a consumer sees of a set: the arena's entries in id order,
/// every variable's postings, and every run with its coefficient bits.
type Observed = (Vec<Monomial>, Vec<Vec<MonoId>>, Vec<Vec<(MonoId, u64)>>);

/// `v`'s postings as one list: the arena's prefix ids, then its tail's.
fn postings(ws: &WorkingSet<f64>, v: VarId) -> Vec<MonoId> {
    let (prefix, tail) = ws.arena().postings_of(v);
    prefix.iter().chain(tail).copied().collect()
}

fn observe(ws: &WorkingSet<f64>) -> Observed {
    let monos = (0..ws.arena().len() as MonoId)
        .map(|id| ws.mono(id).to_monomial())
        .collect();
    let lists = (0..16).map(|v| postings(ws, VarId(v))).collect();
    let runs = (0..ws.num_polys())
        .map(|pi| ws.poly_terms(pi).map(|(id, c)| (id, c.to_bits())).collect())
        .collect();
    (monos, lists, runs)
}

/// `ws` re-interned, id for id, into a fresh arena of its own.
fn unshared(ws: &WorkingSet<f64>) -> WorkingSet<f64> {
    let mut arena = provabs_provenance::intern::MonoArena::new();
    for id in 0..ws.arena().len() as MonoId {
        assert_eq!(arena.intern_factors(ws.mono(id).as_factors()), id);
    }
    let runs: Vec<Vec<(MonoId, f64)>> = (0..ws.num_polys())
        .map(|pi| ws.poly_terms(pi).map(|(id, &c)| (id, c)).collect())
        .collect();
    WorkingSet::from_parts(arena, runs)
}

/// One branch of a forked walk and its unshared twin.
struct Branch {
    walk: Walk,
    twin: Walk,
}

impl Branch {
    fn of(walk: Walk) -> Self {
        let twin = walk.with_set(unshared(&walk.ws));
        Branch { walk, twin }
    }

    /// A clone of this branch's set, with a twin of its own.
    fn fork(&self) -> Self {
        let fork = Branch::of(self.walk.with_set(self.walk.ws.clone()));
        assert_eq!(
            observe(&fork.walk.ws),
            observe(&self.walk.ws),
            "a fresh clone"
        );
        fork
    }

    fn step(&mut self, step: Step) {
        apply_step(&mut self.walk, step.clone());
        apply_step(&mut self.twin, step);
        self.walk.assert_agree();
        self.twin.assert_agree();
        assert_eq!(
            observe(&self.walk.ws),
            observe(&self.twin.ws),
            "the branch against its unshared twin"
        );
    }
}

/// Drives `branches` through `steps`, each `(branch draw, step)`: a
/// [`FORK`] clones the drawn branch (up to four branches), any other step
/// drives it alone while every other branch must stay as it was.
fn walk_branches(branches: &mut Vec<Branch>, steps: Vec<(u32, Step)>) {
    for (draw, step) in steps {
        let at = draw as usize % branches.len();
        if step.0 == FORK {
            if branches.len() < 4 {
                let fork = branches[at].fork();
                branches.push(fork);
            }
            continue;
        }
        let snapshots: Vec<Observed> = branches.iter().map(|b| observe(&b.walk.ws)).collect();
        branches[at].step(step);
        for (i, (branch, was)) in branches.iter().zip(&snapshots).enumerate() {
            if i != at {
                assert_eq!(&observe(&branch.walk.ws), was, "untouched branch {i}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random interleavings of every operation that assigns an id or
    /// moves a term leave the working set and the model agreeing id for
    /// id and bit for bit after every step, with every run ascending,
    /// inside the span it had and clear of its neighbours, and the set
    /// denoting what `PolySet::map_vars` makes of the same steps — on
    /// every branch of a walk that forks, each branch also agreeing with
    /// an unshared twin and left alone by the steps that drive another.
    #[test]
    fn interleavings_agree_with_the_model(
        raw in compatible_strategy(0..5),
        exact in any::<bool>(),
        steps in prop::collection::vec((any::<u32>(), step_strategy()), 0..24),
    ) {
        let polys = compatible_polyset(&raw, exact);
        let walk = Walk::new(WorkingSet::from_polyset(&polys), polys, exact);
        walk.assert_agree();
        walk_branches(&mut vec![Branch::of(walk)], steps);
    }

    /// Compaction changes nothing a consumer can see: the same poly-set,
    /// byte-for-byte the same frozen columns, and an arena that holds the
    /// live monomials alone, in the order they had.
    #[test]
    fn compaction_is_invisible_downstream(
        raw in compatible_strategy(0..5),
        groups in prop::collection::vec((0u32..32, 0u32..8), 0..4),
    ) {
        let mut ws = WorkingSet::from_polyset(&compatible_polyset(&raw, true));
        let all: Vec<usize> = (0..ws.num_polys()).collect();
        for (mask, target) in groups {
            let group: Vec<VarId> = (0..5).filter(|i| mask >> i & 1 == 1).map(VarId).collect();
            ws.ml_delta_of_group(&group, &all);
            ws.apply_group(&group, VarId(5 + target), &all);
        }
        let (before, frozen) = (ws.to_polyset(), ws.freeze());
        let order: Vec<Monomial> = ws.live_monomials().map(|m| m.to_monomial()).collect();
        ws.compact();
        assert_eq!(ws.to_polyset().as_slice(), before.as_slice());
        let encoded = provabs_provenance::persist::encode_compiled(frozen.view());
        prop_assert_eq!(
            &provabs_provenance::persist::encode_compiled(ws.freeze().view()),
            &encoded
        );
        // A freeze allocates what it holds and no more: behind the five
        // counts, the encoding is the columns byte for byte.
        prop_assert_eq!(frozen.estimated_bytes(), encoded.len() - 40);
        prop_assert_eq!(ws.freeze().estimated_bytes(), encoded.len() - 40);
        let arena: Vec<Monomial> = (0..ws.arena().len() as MonoId)
            .map(|id| ws.mono(id).to_monomial())
            .collect();
        prop_assert_eq!(arena, order);
    }
}

/// Both promotion paths, each branch written after the other forked: a
/// clone's shared tail over an empty prefix becomes its prefix, and a
/// clone of that clone — whose tail is shared behind a prefix — copies
/// it; the source, whose tail is now a clone's prefix, promotes too.
#[test]
fn a_promoted_clone_forks_through_the_tail_copy() {
    let raw: RawPolys = vec![
        vec![
            (0, vec![(0, 1)], 3),
            (1, vec![(1, 1)], 4),
            (2, vec![(0, 1)], 5),
        ],
        vec![(0, vec![(1, 2)], -2), (3, vec![], 7), (6, vec![(2, 1)], 1)],
    ];
    let polys = compatible_polyset(&raw, true);
    let walk = Walk::new(WorkingSet::from_polyset(&polys), polys, true);
    let intern = |v: u32| (0, 0, 0, vec![(v, 1), (v + 1, 2)], Vec::new());
    let score_and_apply = (3, 0b111, 2, Vec::new(), Vec::new());
    let compact = (COMPACT, 0, 0, Vec::new(), Vec::new());
    let fork = (FORK, 0, 0, Vec::new(), Vec::new());
    let mut branches = vec![Branch::of(walk)];
    walk_branches(
        &mut branches,
        vec![
            (0, fork.clone()),
            (1, intern(9)),
            (1, intern(12)),
            (1, fork),
            (2, intern(10)),
            (1, intern(11)),
            (0, intern(7)),
            (2, score_and_apply.clone()),
            (1, score_and_apply),
            (0, compact),
            (2, intern(9)),
        ],
    );
    assert_eq!(branches.len(), 3);
    let lens: Vec<usize> = branches.iter().map(|b| b.walk.ws.arena().len()).collect();
    assert!(lens[1] > lens[0] && lens[2] > lens[0], "{lens:?}");
}

/// A clone of an arena whose last entries were appended and never probed
/// shares a table that does not hold them; each side then appends,
/// interns and rewrites on its own (the first probe of each copies or
/// rebuilds the table and puts the appended ids in), and both agree with
/// their models and unshared twins throughout.
#[test]
fn a_partly_indexed_clone_is_written_on_both_sides() {
    let raw: RawPolys = vec![
        vec![(0, vec![(0, 1)], 3), (1, vec![(0, 1)], 4), (2, vec![], 5)],
        vec![(0, vec![(1, 1)], -2), (1, vec![(1, 1)], 7)],
    ];
    let polys = compatible_polyset(&raw, true);
    let walk = Walk::new(WorkingSet::from_polyset(&polys), polys, true);
    let append = |v: u32| (APPEND, 0, 0, vec![(v, 1), (v + 1, 2)], Vec::new());
    let intern = |v: u32| (1, 0, 0, vec![(v, 1), (v + 1, 2)], Vec::new());
    let write = |v: u32| (WRITE, 1, 3, vec![(v, 2)], Vec::new());
    let score_and_apply = (3, 0b111, 2, Vec::new(), Vec::new());
    let fork = (FORK, 0, 0, Vec::new(), Vec::new());
    let mut branches = vec![Branch::of(walk)];
    walk_branches(
        &mut branches,
        vec![
            (0, append(9)),
            (0, fork),
            (0, append(7)),
            (1, intern(9)),
            (0, intern(11)),
            (1, write(6)),
            (0, write(8)),
            (1, score_and_apply.clone()),
            (0, score_and_apply),
            (1, append(3)),
            (0, intern(3)),
        ],
    );
    assert_eq!(branches.len(), 2);
    let arenas: Vec<_> = branches.iter().map(|b| b.walk.ws.arena()).collect();
    assert!(arenas.iter().all(|arena| arena.len() > polys_len(&raw)));
    assert!(
        arenas[1].indexed() < arenas[1].len(),
        "the last append is left out"
    );
}

/// How many distinct monomials `raw` holds.
fn polys_len(raw: &RawPolys) -> usize {
    WorkingSet::from_polyset(&compatible_polyset(raw, true))
        .arena()
        .len()
}

/// The accumulation order is a property, not an accident: `1e16`, `1` and
/// `-1e16` meeting on one monomial leave `1` or nothing depending on the
/// order they are added in, and the order is ascending source id —
/// (a) whether the polynomial is smaller or larger than the group's
/// occurrence list, (b) in the set, in its compacted twin and in the
/// twin rebuilt from its frozen columns, (c) as the `BTreeMap` model adds.
#[test]
fn cancellation_follows_source_order() {
    let (a, b, c, t) = (VarId(0), VarId(1), VarId(2), VarId(7));
    let (x, y, z) = (VarId(5), VarId(6), VarId(8));
    let mono = |factors: &[(VarId, u32)]| Monomial::from_factors(factors.iter().copied());
    let mut ws: WorkingSet<f64> = WorkingSet::with_capacity(Default::default(), 0, 0);
    let mut id = |factors: &[(VarId, u32)]| ws.arena_mut().intern(&mono(factors));
    // Ascending ids: −1e16 + 1e16 first, then the 1, which survives; in
    // the group's own order (a, b, c) the 1 would be absorbed and lost.
    let on_x = [
        (id(&[(c, 1), (x, 1)]), -1e16),
        (id(&[(a, 1), (x, 1)]), 1e16),
        (id(&[(b, 1), (x, 1)]), 1.0),
    ];
    let fillers: Vec<(MonoId, f64)> = (1..=9).map(|e| (id(&[(y, e)]), f64::from(e))).collect();
    // The occurrence list: three monomials on x, six on y, two on z.
    let on_y: Vec<(MonoId, f64)> = [a, b, c]
        .iter()
        .flat_map(|&v| [(v, 1), (v, 2)])
        .map(|(v, e)| (id(&[(v, 1), (y, e)]), 3.0))
        .collect();
    // A term already on the target takes part under its own id, here
    // after both terms that move onto it: 1e16 − 1e16, then its 1.
    let on_z = [
        (id(&[(a, 1), (z, 1)]), 1e16),
        (id(&[(c, 1), (z, 1)]), -1e16),
        (id(&[(t, 1), (z, 1)]), 1.0),
    ];
    ws.push_poly(on_x);
    ws.push_poly(on_x.into_iter().chain(fillers));
    ws.push_poly(on_y);
    ws.push_poly(on_z);
    assert!(ws.poly_size_m(0) < 11 && ws.poly_size_m(1) > 11, "(a)");

    let group = [a, b, c];
    let all: Vec<usize> = (0..ws.num_polys()).collect();
    let mut model = Model::of(&ws);
    let mut compacted = ws.clone();
    compacted.compact();
    let mut rebuilt = WorkingSet::from_compiled(ws.freeze().view());
    assert_eq!(runs(&rebuilt), runs(&ws), "the twins start equal");

    model.apply_group(&group, t);
    for set in [&mut ws, &mut compacted, &mut rebuilt] {
        assert_eq!(set.ml_delta_of_group(&group, &all), 2 + 2 + 4 + 1);
        set.apply_group(&group, t, &all);
    }
    let survivor = |context: VarId| (mono(&[(context, 1), (t, 1)]), 1f64.to_bits());
    assert_eq!(runs(&ws)[0], [survivor(x)], "(a) the small polynomial");
    assert_eq!(runs(&ws)[1][9], survivor(x), "(a) the large polynomial");
    assert_eq!(runs(&ws)[3], [survivor(z)], "a term on the target");
    assert_eq!(runs(&compacted), runs(&ws), "(b) compacted twin");
    assert_eq!(
        runs(&rebuilt),
        runs(&ws),
        "(b) twin rebuilt from the columns"
    );
    for (pi, terms) in model.terms.iter().enumerate() {
        let want: Vec<(MonoId, u64)> = terms.iter().map(|(&id, c)| (id, c.to_bits())).collect();
        let got: Vec<(MonoId, u64)> = ws.poly_terms(pi).map(|(id, c)| (id, c.to_bits())).collect();
        assert_eq!(got, want, "(c) the model, polynomial {pi}");
    }
}
