//! Section codecs for the provenance-owned artifact state: the variable
//! table, the frozen compiled columns (the zero-copy payload), and the
//! lazily-decoded working sets.
//!
//! Each codec pairs an `encode_*` function (run at save) with a typed
//! validator that is the *only* entry point at open: after
//! [`SharedCompiled::validate`] / [`WorkingSlot::validate`] /
//! [`decode_var_table`] succeed, every later access — including the
//! unsafe reslices behind [`SharedCompiled::view`] — is checked-free by
//! construction.

use super::artifact::{ArtifactBytes, RawArtifact};
use super::format::{section, Dec, Enc};
use super::PersistError;
use crate::compiled::CompiledView;
use crate::fxhash::FxHashMap;
use crate::intern::{accumulate, MonoArena, MonoId};
use crate::var::{VarId, VarTable};
use crate::working::WorkingSet;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Variable table
// ---------------------------------------------------------------------

/// Encodes the variable table in id order: count, then per variable a
/// length-prefixed UTF-8 name.
pub fn encode_var_table(vars: &VarTable) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(vars.len() as u64);
    for (_, name) in vars.iter() {
        e.u32(name.len() as u32);
        e.bytes(name.as_bytes());
    }
    e.finish()
}

/// Decodes a variable table, re-interning the names in stored order so
/// ids come back identical. Duplicate or non-UTF-8 names are malformed.
pub fn decode_var_table(bytes: &[u8]) -> Result<VarTable, PersistError> {
    let mut d = Dec::new(bytes, "var table");
    let count = d.count("variable count", bytes.len())?;
    let mut vars = VarTable::new();
    for i in 0..count {
        let len = d.u32()? as usize;
        let raw = d.take(len)?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| PersistError::malformed("var table", format!("name {i} is not UTF-8")))?;
        let id = vars.intern(name);
        if id != VarId(i as u32) {
            // `intern` only returns an old id for a repeated name.
            return Err(PersistError::malformed(
                "var table",
                format!("duplicate variable name {name:?} at id {i}"),
            ));
        }
    }
    d.finish()?;
    Ok(vars)
}

// ---------------------------------------------------------------------
// Compiled columns (the zero-copy payload)
// ---------------------------------------------------------------------

/// Encodes the six compiled columns: four `u64` counts, then
/// `coeffs: f64×monos` (8-aligned at section offset 32),
/// `mono_ends: u32×monos`, `poly_ends: u32×polys`,
/// `factor_vars: u32×factors`, `factor_exps: u32×factors`,
/// `vars: u32×vars`. The section length is exactly determined by the
/// counts, which is what lets [`SharedCompiled::validate`] reject any
/// length lie up front.
pub fn encode_compiled(view: CompiledView<'_, f64>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(view.poly_ends.len() as u64);
    e.u64(view.coeffs.len() as u64);
    e.u64(view.factor_vars.len() as u64);
    e.u64(view.vars.len() as u64);
    for &c in view.coeffs {
        e.f64(c);
    }
    e.u32s(view.mono_ends);
    e.u32s(view.poly_ends);
    e.u32s(view.factor_vars);
    e.u32s(view.factor_exps);
    for &v in view.vars {
        e.u32(v.0);
    }
    e.finish()
}

/// Reslices validated bytes as `&[u32]`.
///
/// # Safety
/// `bytes` must be 4-aligned and a multiple of 4 long (both established
/// by the validators before any range is stored).
unsafe fn as_u32s(bytes: &[u8]) -> &[u32] {
    debug_assert_eq!(bytes.as_ptr().align_offset(4), 0);
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: alignment and length are validated; u32 accepts all bit
    // patterns.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
}

/// Reslices validated bytes as `&[f64]`.
///
/// # Safety
/// `bytes` must be 8-aligned and a multiple of 8 long.
unsafe fn as_f64s(bytes: &[u8]) -> &[f64] {
    debug_assert_eq!(bytes.as_ptr().align_offset(8), 0);
    debug_assert_eq!(bytes.len() % 8, 0);
    // SAFETY: alignment and length are validated; f64 accepts all bit
    // patterns (NaN payloads round-trip as stored).
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, bytes.len() / 8) }
}

/// Reslices validated bytes as `&[VarId]` — sound because [`VarId`] is
/// `#[repr(transparent)]` over `u32`.
///
/// # Safety
/// `bytes` must be 4-aligned and a multiple of 4 long.
unsafe fn as_varids(bytes: &[u8]) -> &[VarId] {
    debug_assert_eq!(bytes.as_ptr().align_offset(4), 0);
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: as above, plus VarId's transparent layout over u32.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const VarId, bytes.len() / 4) }
}

/// The compiled columns of an opened artifact, shared with the artifact
/// bytes themselves: six validated ranges into the owned-or-mapped file
/// image, resliced on demand as a [`CompiledView`] without copying a
/// single column. Cloning is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct SharedCompiled {
    bytes: Arc<ArtifactBytes>,
    coeffs: Range<usize>,
    mono_ends: Range<usize>,
    poly_ends: Range<usize>,
    factor_vars: Range<usize>,
    factor_exps: Range<usize>,
    vars: Range<usize>,
}

impl SharedCompiled {
    /// Validates the `COMPILED_ABS` section of `art` and captures the
    /// six column ranges.
    ///
    /// This is the whole validation boundary for the zero-copy path:
    /// counts must reproduce the section length exactly; the prefix-end
    /// columns must be monotone and consistent; every factor must index
    /// a declared local variable with exponent ≥ 1; every local variable
    /// must index the artifact's variable table (`num_table_vars`); and
    /// the `f64` column must be 8-aligned. After this, every access via
    /// [`view`](Self::view) — including the SIMD kernels' raw column
    /// sweeps — is in bounds by construction.
    pub fn validate(art: &RawArtifact, num_table_vars: usize) -> Result<Self, PersistError> {
        const CTX: &str = "compiled columns";
        let file_range =
            art.section_range(section::COMPILED_ABS)
                .ok_or(PersistError::MissingSection {
                    name: "compiled columns",
                })?;
        let bytes = &art.bytes_arc().as_slice()[file_range.clone()];
        let mut d = Dec::new(bytes, CTX);
        let num_polys = d.count("polynomial count", bytes.len())?;
        let num_monos = d.count("monomial count", bytes.len())?;
        let num_factors = d.count("factor count", bytes.len())?;
        let num_vars = d.count("variable count", bytes.len())?;
        let expected = 32usize
            .checked_add(num_monos.checked_mul(12).ok_or_else(overflow)?)
            .and_then(|n| n.checked_add(num_polys.checked_mul(4)?))
            .and_then(|n| n.checked_add(num_factors.checked_mul(8)?))
            .and_then(|n| n.checked_add(num_vars.checked_mul(4)?))
            .ok_or_else(overflow)?;
        if expected != bytes.len() {
            return Err(PersistError::malformed(
                CTX,
                format!(
                    "counts require {expected} bytes, section has {}",
                    bytes.len()
                ),
            ));
        }
        let at = file_range.start + 32;
        let coeffs = at..at + num_monos * 8;
        let mono_ends = coeffs.end..coeffs.end + num_monos * 4;
        let poly_ends = mono_ends.end..mono_ends.end + num_polys * 4;
        let factor_vars = poly_ends.end..poly_ends.end + num_factors * 4;
        let factor_exps = factor_vars.end..factor_vars.end + num_factors * 4;
        let vars = factor_exps.end..factor_exps.end + num_vars * 4;
        debug_assert_eq!(vars.end, file_range.end);
        let data = art.bytes_arc().as_slice();
        if data[coeffs.clone()].as_ptr().align_offset(8) != 0 {
            return Err(PersistError::Misaligned { context: "coeffs" });
        }
        if data[mono_ends.clone()].as_ptr().align_offset(4) != 0 {
            return Err(PersistError::Misaligned {
                context: "compiled index columns",
            });
        }
        // Structural validation over the typed columns.
        // SAFETY: alignment checked just above; lengths are multiples of
        // the element size by construction of the ranges.
        let mono_ends_s = unsafe { as_u32s(&data[mono_ends.clone()]) };
        let poly_ends_s = unsafe { as_u32s(&data[poly_ends.clone()]) };
        let factor_vars_s = unsafe { as_u32s(&data[factor_vars.clone()]) };
        let factor_exps_s = unsafe { as_u32s(&data[factor_exps.clone()]) };
        let vars_s = unsafe { as_u32s(&data[vars.clone()]) };
        check_prefix_ends(CTX, "mono_ends", mono_ends_s, num_factors)?;
        check_prefix_ends(CTX, "poly_ends", poly_ends_s, num_monos)?;
        if num_polys == 0 && num_monos != 0 {
            return Err(PersistError::malformed(
                CTX,
                "monomials without polynomials",
            ));
        }
        if num_monos == 0 && num_factors != 0 {
            return Err(PersistError::malformed(CTX, "factors without monomials"));
        }
        for (i, &v) in factor_vars_s.iter().enumerate() {
            if v as usize >= num_vars {
                return Err(PersistError::malformed(
                    CTX,
                    format!("factor {i} references local variable {v} of {num_vars}"),
                ));
            }
        }
        for (i, &e) in factor_exps_s.iter().enumerate() {
            if e == 0 {
                return Err(PersistError::malformed(
                    CTX,
                    format!("factor {i} has exponent 0"),
                ));
            }
        }
        for (i, &v) in vars_s.iter().enumerate() {
            if v as usize >= num_table_vars {
                return Err(PersistError::malformed(
                    CTX,
                    format!("local variable {i} maps to id {v} outside the variable table"),
                ));
            }
        }
        Ok(Self {
            bytes: Arc::clone(art.bytes_arc()),
            coeffs,
            mono_ends,
            poly_ends,
            factor_vars,
            factor_exps,
            vars,
        })
    }

    /// The columns as the common evaluator currency — indistinguishable
    /// from [`CompiledPolySet::view`](crate::compiled::CompiledPolySet::view)
    /// to every engine.
    pub fn view(&self) -> CompiledView<'_, f64> {
        let data = self.bytes.as_slice();
        // SAFETY: every range was validated (bounds, alignment, element-
        // size multiples) by `validate` before this value existed.
        unsafe {
            CompiledView {
                coeffs: as_f64s(&data[self.coeffs.clone()]),
                mono_ends: as_u32s(&data[self.mono_ends.clone()]),
                poly_ends: as_u32s(&data[self.poly_ends.clone()]),
                factor_vars: as_u32s(&data[self.factor_vars.clone()]),
                factor_exps: as_u32s(&data[self.factor_exps.clone()]),
                vars: as_varids(&data[self.vars.clone()]),
            }
        }
    }
}

fn overflow() -> PersistError {
    PersistError::malformed("compiled columns", "count arithmetic overflows")
}

/// Checks a prefix-end column: non-decreasing, each entry within the
/// target arena, final entry covering it exactly (when non-empty).
fn check_prefix_ends(
    ctx: &'static str,
    what: &str,
    ends: &[u32],
    arena_len: usize,
) -> Result<(), PersistError> {
    let mut prev = 0u32;
    for (i, &e) in ends.iter().enumerate() {
        if e < prev || e as usize > arena_len {
            return Err(PersistError::malformed(
                ctx,
                format!("{what}[{i}] = {e} is not a monotone prefix end within {arena_len}"),
            ));
        }
        prev = e;
    }
    if ends.last().is_some_and(|&e| e as usize != arena_len) {
        return Err(PersistError::malformed(
            ctx,
            format!("{what} ends at {prev}, arena has {arena_len}"),
        ));
    }
    if ends.is_empty() && arena_len != 0 {
        return Err(PersistError::malformed(
            ctx,
            format!("{what} is empty but its arena has {arena_len} entries"),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Working sets (lazy payloads)
// ---------------------------------------------------------------------

/// Encodes a working set: arena length and polynomial count, the arena's
/// monomials in id order, read straight off its factor column (term ids
/// index the arena positionally, so every entry is written — one that no
/// polynomial holds too; a [compacted](WorkingSet::compact) working set
/// has none), then each polynomial's live terms in canonical ascending-id
/// order.
pub fn encode_working(ws: &WorkingSet<f64>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(ws.arena().len() as u64);
    e.u64(ws.num_polys() as u64);
    for id in 0..ws.arena().len() {
        let m = ws.arena().mono(id as MonoId);
        e.u32(m.num_vars() as u32);
        for (v, exp) in m.factors() {
            e.u32(v.0);
            e.u32(exp);
        }
    }
    for pi in 0..ws.num_polys() {
        let terms = ws.sorted_terms(pi);
        e.u32(terms.len() as u32);
        for (id, &coeff) in terms {
            e.u32(id);
            e.f64(coeff);
        }
    }
    e.finish()
}

/// A validated-but-undecoded working-set section: the structural scan ran
/// at open (so decoding cannot fail), but the hash maps and arena are
/// only materialised when [`decode`](Self::decode) is called — a session
/// that never bridges back to `PolySet` form never pays for them.
#[derive(Clone, Debug)]
pub struct WorkingSlot {
    bytes: Arc<ArtifactBytes>,
    range: Range<usize>,
    arena_len: usize,
    num_polys: usize,
}

impl WorkingSlot {
    /// Validates the working-set section `id` of `art` (reported as
    /// `name`): every factor references the variable table and is
    /// strictly increasing by variable with exponent ≥ 1 (the canonical
    /// monomial form), every term id indexes the arena, and the payload
    /// is consumed exactly.
    pub fn validate(
        art: &RawArtifact,
        id: u32,
        name: &'static str,
        num_table_vars: usize,
    ) -> Result<Self, PersistError> {
        let file_range = art
            .section_range(id)
            .ok_or(PersistError::MissingSection { name })?;
        let bytes = &art.bytes_arc().as_slice()[file_range.clone()];
        let mut d = Dec::new(bytes, name);
        let arena_len = d.count("arena length", bytes.len())?;
        let num_polys = d.count("polynomial count", bytes.len())?;
        for i in 0..arena_len {
            let nfac = d.u32()? as usize;
            let mut prev: Option<u32> = None;
            for _ in 0..nfac {
                let v = d.u32()?;
                let exp = d.u32()?;
                if v as usize >= num_table_vars {
                    return Err(PersistError::malformed(
                        name,
                        format!("monomial {i} references variable {v} outside the table"),
                    ));
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(PersistError::malformed(
                        name,
                        format!("monomial {i} factors are not strictly increasing"),
                    ));
                }
                if exp == 0 {
                    return Err(PersistError::malformed(
                        name,
                        format!("monomial {i} has a zero exponent"),
                    ));
                }
                prev = Some(v);
            }
        }
        for pi in 0..num_polys {
            let nterms = d.u32()? as usize;
            for _ in 0..nterms {
                let id = d.u32()?;
                let _coeff = d.f64()?;
                if id as usize >= arena_len {
                    return Err(PersistError::malformed(
                        name,
                        format!("polynomial {pi} references monomial {id} of {arena_len}"),
                    ));
                }
            }
        }
        d.finish()?;
        Ok(Self {
            bytes: Arc::clone(art.bytes_arc()),
            range: file_range,
            arena_len,
            num_polys,
        })
    }

    /// The stored arena length (counting entries that are no longer
    /// live) — cheap observability without decoding.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// The stored polynomial count.
    pub fn num_polys(&self) -> usize {
        self.num_polys
    }

    /// Materialises the working set. Infallible: the structural scan in
    /// [`validate`](Self::validate) already admitted these bytes, and
    /// the rebuild re-interns monomials (so even an adversarial section
    /// with duplicate arena entries merges safely via id indirection and
    /// coefficient accumulation rather than panicking).
    pub fn decode(&self) -> WorkingSet<f64> {
        let bytes = &self.bytes.as_slice()[self.range.clone()];
        let mut d = Dec::new(bytes, "validated working set");
        let ok = "validated at open";
        let arena_len = d.count("arena length", bytes.len()).expect(ok);
        let num_polys = d.count("polynomial count", bytes.len()).expect(ok);
        let mut arena = MonoArena::new();
        // Stored id → interned id. Interning dedups, so positions are
        // remapped rather than assumed fresh.
        let mut ids = Vec::with_capacity(arena_len);
        // Validation admitted only canonical factor lists.
        let mut factors: Vec<(VarId, u32)> = Vec::new();
        for _ in 0..arena_len {
            let nfac = d.u32().expect(ok) as usize;
            factors.clear();
            factors.extend((0..nfac).map(|_| {
                let v = d.u32().expect(ok);
                let exp = d.u32().expect(ok);
                (VarId(v), exp)
            }));
            ids.push(arena.intern_factors(&factors));
        }
        let mut terms = Vec::with_capacity(num_polys);
        for _ in 0..num_polys {
            let nterms = d.u32().expect(ok) as usize;
            let mut map: FxHashMap<MonoId, f64> = FxHashMap::default();
            map.reserve(nterms);
            for _ in 0..nterms {
                let stored = d.u32().expect(ok) as usize;
                let coeff = d.f64().expect(ok);
                accumulate(&mut map, ids[stored], coeff);
            }
            terms.push(map);
        }
        WorkingSet::from_parts(arena, terms)
    }
}

#[cfg(test)]
mod tests {
    use super::super::artifact::ArtifactWriter;
    use super::*;
    use crate::compiled::CompiledPolySet;
    use crate::monomial::Monomial;
    use crate::polynomial::Polynomial;
    use crate::polyset::PolySet;
    use crate::valuation::Valuation;

    fn sample_polys() -> PolySet<f64> {
        let poly = |terms: &[(&[(u32, u32)], f64)]| {
            Polynomial::from_terms(terms.iter().map(|(fs, c)| {
                (
                    Monomial::from_factors(fs.iter().map(|&(i, e)| (VarId(i), e))),
                    *c,
                )
            }))
        };
        PolySet::from_vec(vec![
            poly(&[(&[(1, 1), (2, 1)], 2.0), (&[(1, 2)], 3.0)]),
            poly(&[(&[(3, 1)], 4.0), (&[], 5.0)]),
            poly(&[]),
        ])
    }

    fn artifact_with(id: u32, payload: Vec<u8>) -> RawArtifact {
        let mut w = ArtifactWriter::new();
        w.section(id, payload);
        RawArtifact::open_bytes(w.to_bytes()).expect("well-formed artifact")
    }

    #[test]
    fn var_table_roundtrips_and_rejects_duplicates() {
        let mut vars = VarTable::new();
        vars.intern_all(["p1", "p2", "mσ·τ", ""]);
        let back = decode_var_table(&encode_var_table(&vars)).expect("roundtrip");
        assert_eq!(back.len(), vars.len());
        for (id, name) in vars.iter() {
            assert_eq!(back.name(id), name);
            assert_eq!(back.lookup(name), Some(id));
        }
        // A hand-rolled payload with a repeated name must be rejected.
        let mut e = Enc::new();
        e.u64(2);
        for _ in 0..2 {
            e.u32(1);
            e.bytes(b"x");
        }
        assert!(matches!(
            decode_var_table(&e.finish()).unwrap_err(),
            PersistError::Malformed {
                context: "var table",
                ..
            }
        ));
        // Invalid UTF-8 likewise.
        let mut e = Enc::new();
        e.u64(1);
        e.u32(2);
        e.bytes(&[0xFF, 0xFE]);
        assert!(decode_var_table(&e.finish()).is_err());
    }

    #[test]
    fn compiled_columns_roundtrip_through_an_artifact() {
        let compiled = CompiledPolySet::compile(&sample_polys());
        let art = artifact_with(section::COMPILED_ABS, encode_compiled(compiled.view()));
        let shared = SharedCompiled::validate(&art, 64).expect("valid columns");
        let view = shared.view();
        assert_eq!(view.num_polys(), compiled.num_polys());
        assert_eq!(view.num_monomials(), compiled.num_monomials());
        assert_eq!(view.vars(), compiled.vars());
        let val = Valuation::neutral().set(VarId(1), 3.0).set(VarId(2), -0.5);
        let a = view.eval_one(&val);
        let b = compiled.eval_one(&val);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The reslice really is zero-copy: the columns sit inside the
        // artifact's own byte image.
        let data = art.bytes_arc().as_slice();
        let base = data.as_ptr() as usize;
        let coeffs_at = view.coeffs.as_ptr() as usize;
        assert!((base..base + data.len()).contains(&coeffs_at));
    }

    #[test]
    fn compiled_validation_rejects_structural_lies() {
        let compiled = CompiledPolySet::compile(&sample_polys());
        let good = encode_compiled(compiled.view());
        // Too few variables in the table.
        let art = artifact_with(section::COMPILED_ABS, good.clone());
        assert!(SharedCompiled::validate(&art, 1).is_err());
        // A zero exponent.
        let nm = compiled.num_monomials();
        let np = compiled.num_polys();
        let exps_at = 32 + nm * 8 + nm * 4 + np * 4 + compiled.num_factors() * 4;
        let mut bad = good.clone();
        bad[exps_at..exps_at + 4].copy_from_slice(&0u32.to_le_bytes());
        let art = artifact_with(section::COMPILED_ABS, bad);
        assert!(matches!(
            SharedCompiled::validate(&art, 64).unwrap_err(),
            PersistError::Malformed { .. }
        ));
        // Counts that disagree with the section length.
        let mut bad = good.clone();
        bad[0..8].copy_from_slice(&((np + 1) as u64).to_le_bytes());
        let art = artifact_with(section::COMPILED_ABS, bad);
        assert!(SharedCompiled::validate(&art, 64).is_err());
        // Missing section entirely.
        let art = artifact_with(section::VVS, good);
        assert!(matches!(
            SharedCompiled::validate(&art, 64).unwrap_err(),
            PersistError::MissingSection { .. }
        ));
    }

    #[test]
    fn empty_compiled_set_roundtrips() {
        let compiled = CompiledPolySet::<f64>::compile(&PolySet::new());
        let art = artifact_with(section::COMPILED_ABS, encode_compiled(compiled.view()));
        let shared = SharedCompiled::validate(&art, 0).expect("empty is valid");
        assert!(shared.view().is_empty());
        assert_eq!(
            shared.view().eval_one(&Valuation::neutral()),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn working_set_roundtrips_lazily() {
        let polys = sample_polys();
        let mut ws = WorkingSet::from_polyset(&polys);
        // Rewrite so the arena holds a dead monomial too.
        ws.apply_group(&[VarId(1), VarId(3)], VarId(40), &[0, 1]);
        let art = artifact_with(section::WORKING_ABS, encode_working(&ws));
        let slot = WorkingSlot::validate(&art, section::WORKING_ABS, "working", 64)
            .expect("valid working set");
        assert_eq!(slot.num_polys(), ws.num_polys());
        assert_eq!(slot.arena_len(), ws.arena().len());
        let back = slot.decode();
        for (a, b) in back.to_polyset().iter().zip(ws.to_polyset().iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn working_validation_rejects_bad_ids_and_order() {
        let ws = WorkingSet::from_polyset(&sample_polys());
        let good = encode_working(&ws);
        // Variable outside the table.
        let art = artifact_with(section::WORKING_ABS, good.clone());
        assert!(WorkingSlot::validate(&art, section::WORKING_ABS, "working", 1).is_err());
        // Term id outside the arena: shrink the declared arena length.
        let mut bad = good.clone();
        bad[0..8].copy_from_slice(&1u64.to_le_bytes());
        let art = artifact_with(section::WORKING_ABS, bad);
        assert!(WorkingSlot::validate(&art, section::WORKING_ABS, "working", 64).is_err());
        // Trailing garbage.
        let mut bad = good;
        bad.extend_from_slice(&[0; 4]);
        let art = artifact_with(section::WORKING_ABS, bad);
        assert!(matches!(
            WorkingSlot::validate(&art, section::WORKING_ABS, "working", 64).unwrap_err(),
            PersistError::Malformed { .. }
        ));
    }
}
