//! The AVX2 lane kernel: `__m256d` intrinsics from `std::arch::x86_64`.
//!
//! Four scenarios per register, `REGS` independent accumulators per pass.
//! The loop body mirrors [`super::generic`] operation for operation —
//! broadcast coefficient, multiply by each factor's power in column
//! order, accumulate in monomial order — using
//! only `vmulpd`/`vaddpd` (deliberately **no FMA**: a fused
//! multiply-add rounds once where the scalar engine rounds twice, which
//! would break the bit-for-bit contract of [`crate::simd`]).
//!
//! Compiled with `#[target_feature(enable = "avx2")]` and only ever
//! called after `is_x86_feature_detected!("avx2")` (see
//! [`Kernel::resolve`](super::Kernel::resolve)), so the binary stays
//! runnable on machines without AVX2.

use super::REG;
use crate::compiled::{CompiledView, FactorRanges, LocalIdx, PowerCursor, Sweep};
use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
    _mm256_storeu_pd,
};

/// Evaluates every polynomial over one packed `[vars × REGS·4]` block
/// table; `out[p·REGS·4 + l]` is polynomial `p`'s value in lane `l`.
/// Bit-for-bit identical to the scalar engine per lane (see the module
/// docs).
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")` on
/// this CPU (the dispatcher's [`Kernel::resolve`](super::Kernel::resolve)
/// guarantees it).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn eval_block_table<const REGS: usize>(
    c: CompiledView<'_, f64>,
    block: &[f64],
    out: &mut [f64],
) {
    // The unchecked loads and stores of the body rest on these two.
    assert!(block.len() >= c.vars.len() * REGS * REG);
    assert_eq!(out.len(), c.poly_ends.len() * REGS * REG);
    c.dispatch(Lanes::<REGS> { c, block, out });
}

/// The arguments of [`sweep`]. Only [`eval_block_table`] builds one, after
/// its caller established AVX2 and it checked both buffers' sizes.
struct Lanes<'a, 'o, const REGS: usize> {
    c: CompiledView<'a, f64>,
    block: &'a [f64],
    out: &'o mut [f64],
}

impl<const REGS: usize> Sweep for Lanes<'_, '_, REGS> {
    fn sweep<I: LocalIdx, R: FactorRanges, const POWERS: bool>(self, factor_vars: &[I], ranges: R) {
        // SAFETY: a `Lanes` exists only inside `eval_block_table`, whose
        // contract is AVX2 and which checked `block` and `out`.
        unsafe { sweep::<I, R, POWERS, REGS>(self.c, factor_vars, ranges, self.block, self.out) }
    }
}

/// The kernel body, instantiated per register count, per index width, per
/// factor-range layout and per whether the set has any factor that is not
/// `^1` (without one, a factor is one `vmulpd` per register and the power
/// columns are never read).
///
/// # Safety
///
/// AVX2 must be available, `block` must hold `REGS·4` values per local
/// variable of `c` and `out` `REGS·4` per polynomial (all three checked
/// by [`eval_block_table`]).
#[target_feature(enable = "avx2")]
unsafe fn sweep<I: LocalIdx, R: FactorRanges, const POWERS: bool, const REGS: usize>(
    c: CompiledView<'_, f64>,
    factor_vars: &[I],
    ranges: R,
    block: &[f64],
    out: &mut [f64],
) {
    let width = REGS * REG;
    let mut powers = PowerCursor::new(c.power_at, c.power_exp);
    let mut mono = 0usize;
    let mut fac = 0usize;
    for (p, &poly_end) in c.poly_ends.iter().enumerate() {
        let mut acc = [_mm256_setzero_pd(); REGS];
        while mono < poly_end as usize {
            let mut term = [_mm256_set1_pd(c.coeffs[mono]); REGS];
            let fac_end = ranges.end(mono, fac);
            while fac < fac_end {
                let at = factor_vars[fac].at() * width;
                let exp = if POWERS { powers.exp_at(fac) } else { 1 };
                for (r, t) in term.iter_mut().enumerate() {
                    // SAFETY: `block` holds `width` values per local
                    // variable (checked by the caller), and every factor
                    // index of a view is below `c.vars.len()`.
                    let mut base = unsafe { _mm256_loadu_pd(block.as_ptr().add(at + r * REG)) };
                    if POWERS {
                        base = pow_pd(base, exp);
                    }
                    *t = _mm256_mul_pd(*t, base);
                }
                fac += 1;
            }
            for (a, &t) in acc.iter_mut().zip(&term) {
                *a = _mm256_add_pd(*a, t);
            }
            mono += 1;
        }
        for (r, &a) in acc.iter().enumerate() {
            // SAFETY: `out` is `poly_ends.len() * width` long (checked by
            // the caller), so every register's slot is in bounds.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(p * width + r * REG), a) };
        }
    }
}

/// `base^e` per lane with the exact multiply tree of
/// [`pow_f64`](crate::coeff::pow_f64) — small exponents unrolled,
/// right-to-left binary exponentiation-by-squaring above.
#[target_feature(enable = "avx2")]
#[inline]
fn pow_pd(base: __m256d, e: u32) -> __m256d {
    match e {
        0 => _mm256_set1_pd(1.0),
        1 => base,
        2 => _mm256_mul_pd(base, base),
        3 => _mm256_mul_pd(_mm256_mul_pd(base, base), base),
        _ => {
            let mut e = e;
            let mut base = base;
            let mut acc = _mm256_set1_pd(1.0);
            while e > 1 {
                if e & 1 == 1 {
                    acc = _mm256_mul_pd(acc, base);
                }
                base = _mm256_mul_pd(base, base);
                e >>= 1;
            }
            _mm256_mul_pd(acc, base)
        }
    }
}
