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

/// A random poly-set over variables v0..v9 with small integer-valued
/// `f64` coefficients.
fn polyset_strategy() -> impl Strategy<Value = PolySet<f64>> {
    prop::collection::vec(
        prop::collection::vec(
            (prop::collection::vec((0u32..10, 1u32..3), 0..4), 1i64..50),
            0..6,
        ),
        0..5,
    )
    .prop_map(|polys| {
        PolySet::from_vec(
            polys
                .into_iter()
                .map(|terms| {
                    Polynomial::from_terms(terms.into_iter().map(|(factors, c)| {
                        (
                            Monomial::from_factors(factors.into_iter().map(|(v, e)| (VarId(v), e))),
                            c as f64,
                        )
                    }))
                })
                .collect(),
        )
    })
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

fn assert_polysets_equal(a: &PolySet<f64>, b: &PolySet<f64>) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x, y);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lowering a poly-set into the interned working set and bridging
    /// back is the identity (term sets, coefficients, measures).
    #[test]
    fn ingest_roundtrip_is_identity(polys in polyset_strategy()) {
        let ws = WorkingSet::from_polyset(&polys);
        prop_assert_eq!(ws.size_m(), polys.size_m());
        prop_assert_eq!(ws.size_v(), polys.size_v());
        prop_assert_eq!(ws.num_polys(), polys.len());
        assert_polysets_equal(&ws.to_polyset(), &polys);
        // The live-variable view equals the poly-set's variable set.
        prop_assert_eq!(ws.live_vars(), polys.var_set());
    }

    /// Freezing a working set evaluates bit-for-bit like compiling its
    /// materialisation, on every evaluation entry point.
    #[test]
    fn freeze_equals_compile_of_materialisation(polys in polyset_strategy(), offset in 0u32..5) {
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
        assert_polysets_equal(&frozen.to_polyset(), &compiled.to_polyset());
    }

    /// A group substitution in id space equals `map_vars` on the
    /// hash-map representation, and the predicted monomial loss matches
    /// the actual merge count.
    #[test]
    fn apply_group_and_ml_delta_match_map_vars(polys in polyset_strategy(), pick in prop::collection::vec(0u32..10, 2..4)) {
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
        assert_polysets_equal(&ws.to_polyset(), &expected);
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
    fn apply_var_map_matches_map_vars(polys in polyset_strategy(), modulus in 1u32..6) {
        let map = |v: VarId| VarId(v.0 % modulus);
        let mut ws = WorkingSet::from_polyset(&polys);
        ws.apply_var_map(map);
        let expected = polys.map_vars(map);
        prop_assert_eq!(ws.size_m(), expected.size_m());
        prop_assert_eq!(ws.size_v(), expected.size_v());
        assert_polysets_equal(&ws.to_polyset(), &expected);
    }

    /// Subsetting (the online-sampling primitive) selects exactly the
    /// indexed polynomials, over the shared arena.
    #[test]
    fn subset_matches_index_selection(polys in polyset_strategy(), mask in prop::collection::vec(any::<bool>(), 0..5)) {
        let indices: Vec<usize> = (0..polys.len())
            .filter(|&i| mask.get(i).copied().unwrap_or(false))
            .collect();
        let ws = WorkingSet::from_polyset(&polys);
        let sub = ws.subset(&indices);
        prop_assert_eq!(sub.num_polys(), indices.len());
        let slice = polys.as_slice();
        let expected = PolySet::from_vec(indices.iter().map(|&i| slice[i].clone()).collect::<Vec<_>>());
        assert_polysets_equal(&sub.to_polyset(), &expected);
    }
}

// ---------------------------------------------------------------------
// The arena against a model, id for id
// ---------------------------------------------------------------------
//
// `MonoArena` keeps its monomials in one flat factor column behind an
// open-addressed table of ids. The model below is the plainest thing
// that interns: a `HashMap<Monomial, u32>` over boxed monomials, with
// every derived monomial built by `Monomial`'s own algebra. A random
// interleaving of every operation that can assign an id must leave the
// two agreeing on every id, every posting and every term.
//
// What this suite was checked to catch (by hand, the mutation is not in
// the tree): with `MonoArena::probe` accepting a slot whose stored
// monomial merely hashes to the same table slot as the probe — a slot
// compared by hash only — `interleavings_agree_with_the_model` fails
// on its first cases with two monomials sharing an id.

use provabs_provenance::intern::{accumulate, MonoId};
use std::collections::HashMap;

/// The model: an interning map over owned monomials, and the term maps.
#[derive(Default)]
struct Model {
    ids: HashMap<Monomial, MonoId>,
    monos: Vec<Monomial>,
    terms: Vec<HashMap<MonoId, f64>>,
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

    fn polys(&self) -> PolySet<f64> {
        PolySet::from_vec(
            self.terms
                .iter()
                .map(|terms| {
                    let mut sorted: Vec<(MonoId, f64)> =
                        terms.iter().map(|(&id, &c)| (id, c)).collect();
                    sorted.sort_unstable_by_key(|&(id, _)| id);
                    Polynomial::from_terms(
                        sorted
                            .into_iter()
                            .map(|(id, c)| (self.monos[id as usize].clone(), c)),
                    )
                })
                .collect(),
        )
    }

    fn live(&self) -> Vec<bool> {
        let mut live = vec![false; self.monos.len()];
        for id in self.terms.iter().flat_map(|terms| terms.keys()) {
            live[*id as usize] = true;
        }
        live
    }
}

/// Every id, every posting, every lookup and every term agree.
fn assert_agree(ws: &WorkingSet<f64>, model: &Model) {
    let arena = ws.arena();
    assert_eq!(arena.len(), model.monos.len(), "arena length");
    for (id, mono) in model.monos.iter().enumerate() {
        assert_eq!(ws.mono(id as MonoId), mono.view(), "monomial {id}");
        assert_eq!(arena.get(mono), Some(id as MonoId), "lookup of {mono:?}");
    }
    for v in (0..16).map(VarId) {
        assert_eq!(arena.postings_of(v), model.postings(v), "postings of {v:?}");
    }
    assert_eq!(ws.num_polys(), model.terms.len());
    for (pi, terms) in model.terms.iter().enumerate() {
        let got: HashMap<MonoId, f64> = ws.poly_terms(pi).map(|(id, &c)| (id, c)).collect();
        assert_eq!(&got, terms, "terms of polynomial {pi}");
    }
}

/// A drawn term: group variable (5 and 6 mean none), context factors,
/// coefficient.
type RawTerm = (u32, Vec<(u32, u32)>, i64);

/// Variables 0..4 are the *group* family — a monomial of a polynomial
/// holds at most one of them, as forest compatibility demands of the
/// variables one tree covers; 5..10 are context.
fn compatible_polyset(raw: Vec<Vec<RawTerm>>) -> PolySet<f64> {
    PolySet::from_vec(
        raw.into_iter()
            .map(|terms| {
                Polynomial::from_terms(terms.into_iter().map(|(group_var, context, c)| {
                    let group = (group_var < 5).then_some((VarId(group_var), 1));
                    let context = context.into_iter().map(|(v, e)| (VarId(5 + v % 5), e));
                    (
                        Monomial::from_factors(group.into_iter().chain(context)),
                        c as f64,
                    )
                }))
            })
            .collect(),
    )
}

fn compatible_strategy(polys: std::ops::Range<usize>) -> impl Strategy<Value = PolySet<f64>> {
    let term = (
        0u32..7,
        prop::collection::vec((0u32..5, 1u32..3), 0..3),
        1i64..50,
    );
    prop::collection::vec(prop::collection::vec(term, 0..7), polys).prop_map(compatible_polyset)
}

/// One step of an interleaving: an operation and the draws it reads.
type Step = (u32, u32, u32, Vec<(u32, u32)>, PolySet<f64>);

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        0u32..9,
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec((0u32..12, 0u32..3), 0..4),
        compatible_strategy(0..3),
    )
}

fn apply_step(ws: &mut WorkingSet<f64>, model: &mut Model, (op, a, b, factors, other): Step) {
    let len = ws.arena().len() as u32;
    let pick = |draw: u32| (len > 0).then(|| draw % len.max(1));
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
        // remainder, twice: the second answer comes from the memo.
        2 => {
            let Some(id) = pick(a) else { return };
            let mono = model.monos[id as usize].clone();
            let Some((v, _)) = mono.factors().nth(b as usize % mono.num_vars().max(1)) else {
                return;
            };
            let (rem, exp) = mono.remove_var(v);
            let want = (model.intern(rem), exp);
            assert_eq!(ws.arena_mut().remainder(id, v), want);
            assert_eq!(ws.arena_mut().remainder(id, v), want);
        }
        3 => {
            let Some(id) = pick(a) else { return };
            let (v, e) = (VarId(b % 12), 1 + b % 2);
            let product = model.monos[id as usize].mul(&Monomial::from_factors([(v, e)]));
            assert_eq!(ws.arena_mut().mul_factor(id, v, e), model.intern(product));
        }
        // Score, then apply, a group substitution: the arena interns a
        // remainder per occurrence when scoring, and a remainder and a
        // product per occurrence when applying, variable by variable in
        // posting order (a variable's postings are read when its turn
        // comes: a dead monomial holding two group variables puts its
        // remainder into the other one's).
        4 | 5 => {
            let group: Vec<VarId> = (0..5).filter(|i| a >> i & 1 == 1).map(VarId).collect();
            let target = VarId(5 + b % 8);
            let all: Vec<usize> = (0..ws.num_polys()).collect();
            // The score is the loss of merging into a *fresh* variable.
            let (before, fresh) = (ws.size_m(), !ws.live_vars().contains(&target));
            let predicted = ws.ml_delta_of_group(&group, &all);
            if group.len() >= 2 {
                for &v in &group {
                    for id in model.postings(v) {
                        let rem = model.monos[id as usize].remove_var(v).0;
                        model.intern(rem);
                    }
                }
            }
            ws.apply_group(&group, target, &all);
            let mut remap: HashMap<MonoId, MonoId> = HashMap::new();
            for &v in &group {
                for id in model.postings(v) {
                    let (rem, exp) = model.monos[id as usize].remove_var(v);
                    model.intern(rem.clone());
                    let product = rem.mul(&Monomial::from_factors([(target, exp)]));
                    remap.insert(id, model.intern(product));
                }
            }
            for terms in &mut model.terms {
                let mut rewritten = Default::default();
                for (id, c) in terms.drain() {
                    accumulate(&mut rewritten, remap.get(&id).copied().unwrap_or(id), c);
                }
                *terms = rewritten.into_iter().collect();
            }
            if group.len() >= 2 && fresh {
                assert_eq!(
                    predicted,
                    before - ws.size_m(),
                    "monomial loss of {group:?}"
                );
            }
        }
        // A subset starts a fresh arena holding what its polynomials
        // hold and nothing else; the walk goes on over it.
        6 => {
            let indices: Vec<usize> = (0..ws.num_polys())
                .filter(|i| a >> (i % 32) & 1 == 1)
                .collect();
            let sub = ws.subset(&indices);
            let slice = model.polys();
            let want = PolySet::from_vec(
                indices
                    .iter()
                    .map(|&i| slice.as_slice()[i].clone())
                    .collect(),
            );
            assert_polysets_equal(&sub.to_polyset(), &want);
            assert_eq!(
                sub.arena().len(),
                sub.live_monomials().count(),
                "a subset is compact"
            );
            *model = Model::of(&sub);
            *ws = sub;
        }
        // Absorbing appends: no id the arena had moves, every new id is
        // a monomial it did not have.
        7 => {
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
            }
        }
        // Compaction renumbers the live monomials by rank.
        _ => {
            ws.compact();
            let live = model.live();
            let mut compacted = Model::default();
            let new_ids: Vec<Option<MonoId>> = live
                .iter()
                .zip(&model.monos)
                .map(|(&is_live, mono)| is_live.then(|| compacted.intern(mono.clone())))
                .collect();
            compacted.terms = model
                .terms
                .iter()
                .map(|terms| {
                    terms
                        .iter()
                        .map(|(&id, &c)| (new_ids[id as usize].expect("live"), c))
                        .collect()
                })
                .collect();
            *model = compacted;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random interleavings of every id-assigning operation leave the
    /// arena and the model agreeing id for id after every step.
    #[test]
    fn interleavings_agree_with_the_model(
        polys in compatible_strategy(0..5),
        steps in prop::collection::vec(step_strategy(), 0..24),
    ) {
        let mut ws = WorkingSet::from_polyset(&polys);
        let mut model = Model::of(&ws);
        assert_polysets_equal(&model.polys(), &polys);
        for step in steps {
            apply_step(&mut ws, &mut model, step);
            assert_agree(&ws, &model);
        }
        assert_polysets_equal(&ws.to_polyset(), &model.polys());
    }

    /// Compaction changes nothing a consumer can see: the same poly-set,
    /// byte-for-byte the same frozen columns, and an arena that holds the
    /// live monomials alone, in the order they had.
    #[test]
    fn compaction_is_invisible_downstream(
        polys in compatible_strategy(0..5),
        groups in prop::collection::vec((0u32..32, 0u32..8), 0..4),
    ) {
        let mut ws = WorkingSet::from_polyset(&polys);
        let all: Vec<usize> = (0..ws.num_polys()).collect();
        for (mask, target) in groups {
            let group: Vec<VarId> = (0..5).filter(|i| mask >> i & 1 == 1).map(VarId).collect();
            ws.ml_delta_of_group(&group, &all);
            ws.apply_group(&group, VarId(5 + target), &all);
        }
        let (before, frozen) = (ws.to_polyset(), ws.freeze());
        let order: Vec<Monomial> = ws.live_monomials().map(|m| m.to_monomial()).collect();
        ws.compact();
        assert_polysets_equal(&ws.to_polyset(), &before);
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
