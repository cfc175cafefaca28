//! Section codecs for the provenance-owned artifact state: the variable
//! table and the frozen compiled columns — the zero-copy payload both the
//! abstracted and the original provenance are stored as.
//!
//! Each codec pairs an `encode_*` function (run at save) with a typed
//! validator that is the *only* entry point at open: after
//! [`SharedCompiled::validate`] / [`decode_var_table`] succeed, every
//! later access — including the unsafe reslices behind
//! [`SharedCompiled::view`] — is checked-free by construction.

use super::artifact::{ArtifactBytes, RawArtifact};
use super::format::{Dec, Enc};
use super::PersistError;
use crate::compiled::{CompiledView, FactorVarsRef, NARROW_VARS};
use crate::var::{VarId, VarTable};
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

/// Bytes of the five `u64` counts a compiled-columns section opens with.
const COUNTS_LEN: usize = 40;

/// Bytes per factor index in a set of `num_vars` variables — the one
/// width the lowerings produce and the validator admits.
fn index_width(num_vars: usize) -> usize {
    if num_vars <= NARROW_VARS {
        2
    } else {
        4
    }
}

/// The exact length of a section with these counts, if it fits a `usize`.
fn section_len(
    [polys, monos, factors, vars, powers]: [usize; 5],
    index_width: usize,
) -> Option<usize> {
    COUNTS_LEN
        .checked_add(monos.checked_mul(12)?)?
        .checked_add(polys.checked_add(vars)?.checked_mul(4)?)?
        .checked_add(powers.checked_mul(8)?)?
        .checked_add(factors.checked_mul(index_width)?)
}

/// Encodes compiled columns: five `u64` counts (polynomials, monomials,
/// factors, variables, powers), then `coeffs: f64×monos` (8-aligned at
/// section offset 40), `mono_ends: u32×monos`, `poly_ends: u32×polys`,
/// `vars: u32×vars`, `power_at: u32×powers`, `power_exp: u32×powers` and
/// last `factor_vars`, `u16×factors` or `u32×factors` by the variable
/// count. The section length is exactly determined by the counts, which
/// is what lets [`SharedCompiled::validate`] reject any length lie — a
/// factor column of the other width included — up front.
pub fn encode_compiled(view: CompiledView<'_, f64>) -> Vec<u8> {
    let counts = [
        view.poly_ends.len(),
        view.coeffs.len(),
        view.factor_vars.len(),
        view.vars.len(),
        view.power_at.len(),
    ];
    let len = section_len(counts, view.factor_vars.width()).expect("the columns are in memory");
    let mut e = Enc::with_capacity(len);
    for n in counts {
        e.u64(n as u64);
    }
    e.f64s(view.coeffs);
    e.u32s(view.mono_ends);
    e.u32s(view.poly_ends);
    for &v in view.vars {
        e.u32(v.0);
    }
    e.u32s(view.power_at);
    e.u32s(view.power_exp);
    match view.factor_vars {
        FactorVarsRef::Narrow(f) => e.u16s(f),
        FactorVarsRef::Wide(f) => e.u32s(f),
    }
    debug_assert_eq!(e.len(), len);
    e.finish()
}

/// Reslices validated bytes as `&[T]`, for `T` one of `u16`, `u32`,
/// `f64` and [`VarId`] (`#[repr(transparent)]` over `u32`): types every
/// bit pattern is a value of (NaN payloads round-trip as stored).
///
/// # Safety
/// `bytes` must be aligned for `T` and a multiple of its size long (both
/// established by [`SharedCompiled::validate`] before any range is
/// stored).
unsafe fn cast<T>(bytes: &[u8]) -> &[T] {
    debug_assert_eq!(bytes.as_ptr().align_offset(std::mem::align_of::<T>()), 0);
    debug_assert_eq!(bytes.len() % std::mem::size_of::<T>(), 0);
    // SAFETY: alignment and length are the caller's contract; the four
    // element types accept all bit patterns.
    unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr().cast::<T>(),
            bytes.len() / std::mem::size_of::<T>(),
        )
    }
}

/// The compiled columns of an opened artifact, shared with the artifact
/// bytes themselves: validated ranges into the owned-or-mapped file
/// image, resliced on demand as a [`CompiledView`] without copying a
/// single column. Cloning is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct SharedCompiled {
    bytes: Arc<ArtifactBytes>,
    coeffs: Range<usize>,
    mono_ends: Range<usize>,
    poly_ends: Range<usize>,
    vars: Range<usize>,
    power_at: Range<usize>,
    power_exp: Range<usize>,
    factor_vars: Range<usize>,
    /// Whether `factor_vars` holds `u16`s.
    narrow: bool,
}

impl SharedCompiled {
    /// Validates the compiled-columns section `id` of `art` (reported as
    /// `name`) and captures the column ranges.
    ///
    /// This is the whole validation boundary for the zero-copy path:
    /// counts must reproduce the section length exactly, at the one index
    /// width the variable count calls for; the prefix-end columns must be
    /// monotone and consistent; every factor must index a declared local
    /// variable; the power positions must be strictly increasing factor
    /// positions with exponents ≥ 2, and all exponents together must fit
    /// a `u32`; every local variable must index the artifact's variable
    /// table (`num_table_vars`); and the `f64` column must be 8-aligned.
    /// After this, every access via [`view`](Self::view) — including the
    /// SIMD kernels' raw column sweeps — is in bounds by construction.
    ///
    /// What is *not* demanded is that a monomial's factors be sorted or
    /// free of repeats: evaluation multiplies them as they come, and
    /// [`WorkingSet::from_compiled`](crate::working::WorkingSet::from_compiled)
    /// canonicalises.
    pub fn validate(
        art: &RawArtifact,
        id: u32,
        name: &'static str,
        num_table_vars: usize,
    ) -> Result<Self, PersistError> {
        let malformed = |detail: String| PersistError::malformed(name, detail);
        let file_range = art
            .section_range(id)
            .ok_or(PersistError::MissingSection { name })?;
        let data = art.bytes_arc().as_slice();
        let bytes = &data[file_range.clone()];
        let mut d = Dec::new(bytes, name);
        let mut counts = [0usize; 5];
        for (n, what) in counts.iter_mut().zip([
            "polynomial count",
            "monomial count",
            "factor count",
            "variable count",
            "power count",
        ]) {
            *n = d.count(what, bytes.len())?;
        }
        let [num_polys, num_monos, num_factors, num_vars, num_powers] = counts;
        let width = index_width(num_vars);
        if section_len(counts, width) != Some(bytes.len()) {
            let other = if width == 2 { 4 } else { 2 };
            let detail = if section_len(counts, other) == Some(bytes.len()) {
                format!(
                    "factor indices are {other} bytes wide, {num_vars} variables call for {width}"
                )
            } else {
                format!(
                    "counts do not add up to the section's {} bytes",
                    bytes.len()
                )
            };
            return Err(malformed(detail));
        }
        let mut at = file_range.start + COUNTS_LEN;
        let mut column = |elems: usize, size: usize| {
            let range = at..at + elems * size;
            at = range.end;
            range
        };
        let coeffs = column(num_monos, 8);
        let mono_ends = column(num_monos, 4);
        let poly_ends = column(num_polys, 4);
        let vars = column(num_vars, 4);
        let power_at = column(num_powers, 4);
        let power_exp = column(num_powers, 4);
        let factor_vars = column(num_factors, width);
        debug_assert_eq!(factor_vars.end, file_range.end);
        // Every column starts a multiple of 4 past `coeffs`.
        if data[coeffs.clone()].as_ptr().align_offset(8) != 0 {
            return Err(PersistError::Misaligned { context: "coeffs" });
        }
        let shared = Self {
            bytes: Arc::clone(art.bytes_arc()),
            coeffs,
            mono_ends,
            poly_ends,
            vars,
            power_at,
            power_exp,
            factor_vars,
            narrow: width == 2,
        };
        // Structural validation over the typed columns (what `view`
        // reslices is in bounds and aligned as of here; what the kernels
        // index by is what the rest of this function establishes).
        let view = shared.view();
        check_prefix_ends(name, "mono_ends", view.mono_ends, num_factors)?;
        check_prefix_ends(name, "poly_ends", view.poly_ends, num_monos)?;
        let stray = match view.factor_vars {
            FactorVarsRef::Narrow(f) => f.iter().position(|&v| usize::from(v) >= num_vars),
            FactorVarsRef::Wide(f) => f.iter().position(|&v| v as usize >= num_vars),
        };
        if let Some(i) = stray {
            return Err(malformed(format!(
                "factor {i} references a local variable outside the {num_vars} declared"
            )));
        }
        let mut degree = num_factors as u64;
        let mut prev = None;
        for (&at, &exp) in view.power_at.iter().zip(view.power_exp) {
            if prev.is_some_and(|p| p >= at) || at as usize >= num_factors {
                return Err(malformed(format!(
                    "power position {at} is not an increasing factor position below {num_factors}"
                )));
            }
            if exp < 2 {
                return Err(malformed(format!("power {exp} stored for factor {at}")));
            }
            prev = Some(at);
            degree += u64::from(exp) - 1;
        }
        if degree > u64::from(u32::MAX) {
            return Err(malformed(format!("total degree {degree} overflows u32")));
        }
        for (i, v) in view.vars.iter().enumerate() {
            if v.index() >= num_table_vars {
                return Err(malformed(format!(
                    "local variable {i} maps to id {} outside the variable table",
                    v.0
                )));
            }
        }
        Ok(shared)
    }

    /// The columns as the common evaluator currency — indistinguishable
    /// from [`CompiledPolySet::view`](crate::compiled::CompiledPolySet::view)
    /// to every engine.
    pub fn view(&self) -> CompiledView<'_, f64> {
        let data = self.bytes.as_slice();
        // SAFETY: every range was laid out in bounds, on a multiple of its
        // element size from an 8-aligned start, by `validate` before this
        // value existed.
        unsafe {
            CompiledView {
                coeffs: cast(&data[self.coeffs.clone()]),
                mono_ends: cast(&data[self.mono_ends.clone()]),
                poly_ends: cast(&data[self.poly_ends.clone()]),
                factor_vars: if self.narrow {
                    FactorVarsRef::Narrow(cast(&data[self.factor_vars.clone()]))
                } else {
                    FactorVarsRef::Wide(cast(&data[self.factor_vars.clone()]))
                },
                power_at: cast(&data[self.power_at.clone()]),
                power_exp: cast(&data[self.power_exp.clone()]),
                vars: cast::<VarId>(&data[self.vars.clone()]),
            }
        }
    }
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
    if prev as usize != arena_len {
        return Err(PersistError::malformed(
            ctx,
            format!("{what} ends at {prev}, arena has {arena_len}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::artifact::ArtifactWriter;
    use super::super::format::section;
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

    fn validate(payload: Vec<u8>, table_vars: usize) -> Result<SharedCompiled, PersistError> {
        let art = artifact_with(section::COMPILED_ABS, payload);
        SharedCompiled::validate(&art, section::COMPILED_ABS, "columns", table_vars)
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
        let payload = encode_compiled(compiled.view());
        assert_eq!(payload.len(), COUNTS_LEN + compiled.estimated_bytes());
        let art = artifact_with(section::COMPILED_ORIG, payload);
        let shared = SharedCompiled::validate(&art, section::COMPILED_ORIG, "columns", 64)
            .expect("valid columns");
        let view = shared.view();
        assert_eq!(view.num_polys(), compiled.num_polys());
        assert_eq!(view.num_monomials(), compiled.num_monomials());
        assert_eq!(view.vars(), compiled.vars());
        assert_eq!(view.power_at.len(), 1, "v1² is the one power");
        assert_eq!(encode_compiled(view), encode_compiled(compiled.view()));
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
        assert!(validate(good.clone(), 1).is_err());
        // A power of 1 is not an exception, and 0 is no factor at all.
        let (nm, np, nv) = (
            compiled.num_monomials(),
            compiled.num_polys(),
            compiled.num_vars(),
        );
        let power_at = COUNTS_LEN + nm * 12 + np * 4 + nv * 4;
        for exp in [0u32, 1] {
            let mut bad = good.clone();
            bad[power_at + 4..power_at + 8].copy_from_slice(&exp.to_le_bytes());
            assert!(matches!(
                validate(bad, 64).unwrap_err(),
                PersistError::Malformed { .. }
            ));
        }
        // A power position past the last factor.
        let mut bad = good.clone();
        bad[power_at..power_at + 4].copy_from_slice(&(compiled.num_factors() as u32).to_le_bytes());
        assert!(validate(bad, 64).is_err());
        // A factor index past the declared variables.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 2..].copy_from_slice(&(nv as u16).to_le_bytes());
        assert!(validate(bad, 64).is_err());
        // Counts that disagree with the section length.
        let mut bad = good.clone();
        bad[0..8].copy_from_slice(&((np + 1) as u64).to_le_bytes());
        assert!(validate(bad, 64).is_err());
        // Missing section entirely.
        let art = artifact_with(section::VVS, good);
        assert!(matches!(
            SharedCompiled::validate(&art, section::COMPILED_ABS, "columns", 64).unwrap_err(),
            PersistError::MissingSection { name: "columns" }
        ));
    }

    #[test]
    fn empty_compiled_set_roundtrips() {
        let compiled = CompiledPolySet::<f64>::compile(&PolySet::new());
        let shared = validate(encode_compiled(compiled.view()), 0).expect("empty is valid");
        assert!(shared.view().is_empty());
        assert_eq!(
            shared.view().eval_one(&Valuation::neutral()),
            Vec::<f64>::new()
        );
    }
}
