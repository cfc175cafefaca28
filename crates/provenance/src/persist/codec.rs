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
use super::format::{le_bytes, plausible_count, Dec, Enc};
use super::PersistError;
use crate::compiled::{CompiledView, FactorVarsRef, MonoEndsRef, NARROW_VARS};
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

/// Bytes of the five `u64` words a compiled-columns section opens with.
const COUNTS_LEN: usize = 40;

/// The tag of the third word when it holds the degree of a set whose
/// monomials all have that many factors (which then stores no
/// `mono_ends`) rather than the factor count of a set whose monomials
/// differ (which does).
const UNIFORM: u64 = 1 << 63;

/// What a compiled-columns section holds, as its opening words say.
#[derive(Clone, Copy, Debug)]
struct Counts {
    polys: usize,
    monos: usize,
    factors: usize,
    vars: usize,
    powers: usize,
    /// The factor count of every monomial; `None` for a mixed set.
    degree: Option<usize>,
}

impl Counts {
    /// The five words, in file order.
    fn words(&self) -> [u64; 5] {
        let factors = match self.degree {
            Some(d) => UNIFORM | d as u64,
            None => self.factors as u64,
        };
        [
            self.polys as u64,
            self.monos as u64,
            factors,
            self.vars as u64,
            self.powers as u64,
        ]
    }

    fn of(view: CompiledView<'_, f64>) -> Self {
        Self {
            polys: view.poly_ends.len(),
            monos: view.coeffs.len(),
            factors: view.factor_vars.len(),
            vars: view.vars.len(),
            powers: view.power_at.len(),
            degree: view.uniform_degree(),
        }
    }

    /// Bytes per factor index — the one width the lowerings produce and
    /// the validator admits.
    fn index_width(&self) -> usize {
        if self.vars <= NARROW_VARS {
            2
        } else {
            4
        }
    }

    /// The exact length of a section with these counts and factor indices
    /// `index_width` bytes wide, if it fits a `usize`.
    fn section_len(&self, index_width: usize) -> Option<usize> {
        let ends = if self.degree.is_some() { 0 } else { self.monos };
        COUNTS_LEN
            .checked_add(self.monos.checked_mul(8)?)?
            .checked_add(
                ends.checked_add(self.polys)?
                    .checked_add(self.vars)?
                    .checked_mul(4)?,
            )?
            .checked_add(self.powers.checked_mul(8)?)?
            .checked_add(self.factors.checked_mul(index_width)?)
    }
}

/// The payload length of `view`'s section: what
/// [`write_compiled`] writes and [`encode_compiled`] returns.
pub(crate) fn compiled_len(view: CompiledView<'_, f64>) -> usize {
    Counts::of(view)
        .section_len(view.factor_vars.width())
        .expect("the columns are in memory")
}

/// Encodes compiled columns: five `u64` words — polynomials, monomials,
/// then the factor count of a set whose monomials differ in it or, tagged
/// with the top bit, the degree `d` of one whose monomials all have `d`
/// factors (`monos · d` of them), then variables and powers — then
/// `coeffs: f64×monos` (8-aligned at section offset 40), for a mixed set
/// only `mono_ends: u32×monos`, then `poly_ends: u32×polys`,
/// `vars: u32×vars`, `power_at: u32×powers`, `power_exp: u32×powers` and
/// last `factor_vars`, `u16×factors` or `u32×factors` by the variable
/// count. The section length is exactly determined by the words, which is
/// what lets [`SharedCompiled::validate`] reject any length lie — a
/// factor column of the other width, an ends column a uniform set does
/// not have — up front.
pub fn encode_compiled(view: CompiledView<'_, f64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(compiled_len(view));
    write_compiled(view, &mut |bytes| {
        out.extend_from_slice(bytes);
        Ok(())
    })
    .expect("writing to a Vec cannot fail");
    debug_assert_eq!(out.len(), compiled_len(view));
    out
}

/// Writes [`encode_compiled`]'s bytes into `sink`, a column at a time,
/// straight from the view — which is how a save stores both sets without
/// a copy of either.
pub(crate) fn write_compiled(
    view: CompiledView<'_, f64>,
    sink: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    sink(&le_bytes(&Counts::of(view).words()))?;
    sink(&le_bytes(view.coeffs))?;
    if let MonoEndsRef::Ends(ends) = view.mono_ends {
        sink(&le_bytes(ends))?;
    }
    sink(&le_bytes(view.poly_ends))?;
    sink(&le_bytes(view.vars))?;
    sink(&le_bytes(view.power_at))?;
    sink(&le_bytes(view.power_exp))?;
    match view.factor_vars {
        FactorVarsRef::Narrow(f) => sink(&le_bytes(f)),
        FactorVarsRef::Wide(f) => sink(&le_bytes(f)),
    }
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

/// Where a validated section's monomials end: the one degree of a uniform
/// set, or the range of a mixed set's `mono_ends` column.
#[derive(Clone, Debug)]
enum StoredEnds {
    Uniform(u32),
    Ends(Range<usize>),
}

/// The compiled columns of an opened artifact, shared with the artifact
/// bytes themselves: validated ranges into the owned-or-mapped file
/// image, resliced on demand as a [`CompiledView`] without copying a
/// single column. Cloning is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct SharedCompiled {
    bytes: Arc<ArtifactBytes>,
    coeffs: Range<usize>,
    mono_ends: StoredEnds,
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
    /// width the variable count calls for and in the one layout the
    /// monomials call for — a degree that multiplies out to the factor
    /// count when they all have it, an ends column that is not uniform
    /// otherwise; the prefix-end columns must be monotone and consistent;
    /// every factor must index a declared local
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
        let limit = bytes.len();
        let mut d = Dec::new(bytes, name);
        let polys = d.count("polynomial count", limit)?;
        let monos = d.count("monomial count", limit)?;
        let factor_word = d.u64()?;
        let vars = d.count("variable count", limit)?;
        let powers = d.count("power count", limit)?;
        let (factors, degree) = if factor_word & UNIFORM == 0 {
            (
                plausible_count(name, "factor count", factor_word, limit)?,
                None,
            )
        } else {
            let d = plausible_count(name, "degree", factor_word & !UNIFORM, limit)?;
            if monos == 0 && d != 0 {
                return Err(malformed(format!(
                    "a set without monomials has degree 0, not {d}"
                )));
            }
            let factors = monos
                .checked_mul(d)
                .filter(|&f| f <= limit)
                .ok_or_else(|| {
                    malformed(format!(
                        "counts do not add up: {monos} monomials of degree {d} outgrow the section"
                    ))
                })?;
            (factors, Some(d))
        };
        let c = Counts {
            polys,
            monos,
            factors,
            vars,
            powers,
            degree,
        };
        let width = c.index_width();
        if c.section_len(width) != Some(bytes.len()) {
            let other = if width == 2 { 4 } else { 2 };
            // A uniform set's factor count is its degree's product, so
            // there a wrong degree is as likely a story as a wrong width.
            let detail = if degree.is_none() && c.section_len(other) == Some(bytes.len()) {
                format!("factor indices are {other} bytes wide, {vars} variables call for {width}")
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
        let coeffs = column(monos, 8);
        let mono_ends =
            match degree {
                Some(d) => StoredEnds::Uniform(u32::try_from(d).map_err(|_| {
                    PersistError::malformed(name, format!("degree {d} overflows u32"))
                })?),
                None => StoredEnds::Ends(column(monos, 4)),
            };
        let poly_ends = column(polys, 4);
        let vars_range = column(vars, 4);
        let power_at = column(powers, 4);
        let power_exp = column(powers, 4);
        let factor_vars = column(factors, width);
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
            vars: vars_range,
            power_at,
            power_exp,
            factor_vars,
            narrow: width == 2,
        };
        // Structural validation over the typed columns (what `view`
        // reslices is in bounds and aligned as of here; what the kernels
        // index by is what the rest of this function establishes).
        let view = shared.view();
        if let MonoEndsRef::Ends(ends) = view.mono_ends {
            check_prefix_ends(name, "mono_ends", ends, factors)?;
            if let Some(d) = common_degree(ends) {
                return Err(malformed(format!(
                    "every monomial has {d} factors: a uniform set stores its degree, not mono_ends"
                )));
            }
        }
        check_prefix_ends(name, "poly_ends", view.poly_ends, monos)?;
        let stray = match view.factor_vars {
            FactorVarsRef::Narrow(f) => f.iter().position(|&v| usize::from(v) >= vars),
            FactorVarsRef::Wide(f) => f.iter().position(|&v| v as usize >= vars),
        };
        if let Some(i) = stray {
            return Err(malformed(format!(
                "factor {i} references a local variable outside the {vars} declared"
            )));
        }
        let mut total_degree = factors as u64;
        let mut prev = None;
        for (&at, &exp) in view.power_at.iter().zip(view.power_exp) {
            if prev.is_some_and(|p| p >= at) || at as usize >= factors {
                return Err(malformed(format!(
                    "power position {at} is not an increasing factor position below {factors}"
                )));
            }
            if exp < 2 {
                return Err(malformed(format!("power {exp} stored for factor {at}")));
            }
            prev = Some(at);
            total_degree += u64::from(exp) - 1;
        }
        if total_degree > u64::from(u32::MAX) {
            return Err(malformed(format!(
                "total degree {total_degree} overflows u32"
            )));
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
                mono_ends: match &self.mono_ends {
                    StoredEnds::Uniform(d) => MonoEndsRef::Uniform(*d),
                    StoredEnds::Ends(ends) => MonoEndsRef::Ends(cast(&data[ends.clone()])),
                },
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

/// The factor count every monomial of a valid ends column has, if they
/// all have the same (`0` for no monomial at all).
fn common_degree(ends: &[u32]) -> Option<u32> {
    let mut start = 0;
    let mut degree = None;
    for &end in ends {
        let d = end - start;
        if *degree.get_or_insert(d) != d {
            return None;
        }
        start = end;
    }
    Some(degree.unwrap_or(0))
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

    /// Every monomial of these has two factors.
    fn uniform_polys() -> PolySet<f64> {
        let m = |a: u32, b: u32| Monomial::from_factors([(VarId(a), 1), (VarId(b), 1)]);
        PolySet::from_vec(vec![
            Polynomial::from_terms([(m(1, 2), 2.0), (m(1, 3), -0.5)]),
            Polynomial::zero(),
            Polynomial::from_terms([(Monomial::from_factors([(VarId(3), 2), (VarId(4), 1)]), 4.0)]),
        ])
    }

    #[test]
    fn uniform_columns_store_their_degree_not_their_ends() {
        let compiled = CompiledPolySet::compile(&uniform_polys());
        let payload = encode_compiled(compiled.view());
        assert_eq!(payload.len(), COUNTS_LEN + compiled.estimated_bytes());
        assert_eq!(payload[16..24], (UNIFORM | 2).to_le_bytes(), "the degree");
        let shared = validate(payload.clone(), 64).expect("valid columns");
        let view = shared.view();
        assert_eq!(view.uniform_degree(), Some(2));
        assert_eq!(view.num_factors(), 6);
        assert_eq!(encode_compiled(view), payload);
        let val = Valuation::neutral().set(VarId(1), 3.0).set(VarId(3), -0.5);
        for (x, y) in view.eval_one(&val).iter().zip(&compiled.eval_one(&val)) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A mixed set's third word is its plain factor count.
        let mixed = CompiledPolySet::compile(&sample_polys());
        let payload = encode_compiled(mixed.view());
        assert_eq!(payload[16..24], (mixed.num_factors() as u64).to_le_bytes());
    }

    #[test]
    fn compiled_validation_rejects_layout_lies() {
        let compiled = CompiledPolySet::compile(&uniform_polys());
        let good = encode_compiled(compiled.view());
        let detail = |bytes: Vec<u8>| match validate(bytes, 64).unwrap_err() {
            PersistError::Malformed { detail, .. } => detail,
            other => panic!("expected Malformed, got {other:?}"),
        };
        let (nm, nf) = (compiled.num_monomials(), compiled.num_factors());
        // A degree that does not multiply out to the stored factors.
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&(UNIFORM | 3).to_le_bytes());
        assert!(detail(bad).contains("do not add up"));
        // An absurd one.
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&(UNIFORM | u64::MAX >> 2).to_le_bytes());
        assert!(detail(bad).contains("plausible bound"));
        // The same monomials with their ends spelled out: not canonical.
        let ends_at = COUNTS_LEN + 8 * nm;
        let mut spelled = good.clone();
        spelled[16..24].copy_from_slice(&(nf as u64).to_le_bytes());
        let ends: Vec<u8> = (1..=nm as u32)
            .flat_map(|m| (2 * m).to_le_bytes())
            .collect();
        spelled.splice(ends_at..ends_at, ends);
        assert!(detail(spelled).contains("uniform set"));
        // Ends claimed, none stored.
        let mut bad = good;
        bad[16..24].copy_from_slice(&(nf as u64).to_le_bytes());
        assert!(detail(bad).contains("do not add up"));
    }

    #[test]
    fn empty_compiled_set_roundtrips() {
        let compiled = CompiledPolySet::<f64>::compile(&PolySet::new());
        let payload = encode_compiled(compiled.view());
        assert_eq!(payload.len(), COUNTS_LEN, "no column");
        assert_eq!(payload[16..24], UNIFORM.to_le_bytes(), "degree 0");
        let shared = validate(payload.clone(), 0).expect("empty is valid");
        assert!(shared.view().is_empty());
        // An empty set of any other degree is not the canonical one.
        let mut bad = payload;
        bad[16..24].copy_from_slice(&(UNIFORM | 1).to_le_bytes());
        assert!(validate(bad, 0).is_err());
        assert_eq!(
            shared.view().eval_one(&Valuation::neutral()),
            Vec::<f64>::new()
        );
    }
}
