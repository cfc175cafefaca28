//! The portable lane kernel: arrays of `[f64; 4]`, no intrinsics.
//!
//! This is the guaranteed-correct fallback every target can run (and the
//! kernel every `eval_matrix` row also runs by name). It is written as
//! straight-line lane arithmetic over fixed-size arrays so the compiler
//! can autovectorize it where the target allows; even fully scalarised
//! it must not regress the one-scenario-at-a-time sweep by more than a
//! few percent, because the block table amortises the valuation lookups
//! exactly the same way.

use super::{pow_lanes, REG};
use crate::compiled::{CompiledView, FactorRanges, LocalIdx, PowerCursor, Sweep};

/// Evaluates every polynomial over one packed `[vars × REGS·4]` block
/// table. `out[p·REGS·4 + l]` receives polynomial `p`'s value in lane `l`
/// (poly-major; the caller scatters back to scenario-major rows).
///
/// Per lane this performs exactly the operation sequence of
/// [`CompiledView::eval_into`]: term = coefficient, multiplied by each
/// factor's power in column order, accumulated in monomial order — so
/// the results are bit-for-bit identical to the scalar engine.
pub(super) fn eval_block_table<const REGS: usize>(
    c: CompiledView<'_, f64>,
    block: &[f64],
    out: &mut [f64],
) {
    debug_assert!(block.len() >= c.vars.len() * REGS * REG);
    debug_assert_eq!(out.len(), c.poly_ends.len() * REGS * REG);
    c.dispatch(Lanes::<REGS> { c, block, out });
}

/// The kernel over one block table, `REGS` independent four-lane
/// accumulators wide. Its body is instantiated per `REGS`, index width,
/// factor-range layout and whether the set has any factor that is not
/// `^1` (without one, the power columns are never read).
struct Lanes<'a, 'o, const REGS: usize> {
    c: CompiledView<'a, f64>,
    block: &'a [f64],
    out: &'o mut [f64],
}

impl<const REGS: usize> Sweep for Lanes<'_, '_, REGS> {
    fn sweep<I: LocalIdx, R: FactorRanges, const POWERS: bool>(self, factor_vars: &[I], ranges: R) {
        let Self { c, block, out } = self;
        let width = REGS * REG;
        let mut powers = PowerCursor::new(c.power_at, c.power_exp);
        let mut mono = 0usize;
        let mut fac = 0usize;
        for (&poly_end, slot) in c.poly_ends.iter().zip(out.chunks_exact_mut(width)) {
            let mut acc = [[0.0f64; REG]; REGS];
            while mono < poly_end as usize {
                let mut term = [[c.coeffs[mono]; REG]; REGS];
                let fac_end = ranges.end(mono, fac);
                while fac < fac_end {
                    let at = factor_vars[fac].at() * width;
                    let exp = if POWERS { powers.exp_at(fac) } else { 1 };
                    for (t, base) in term.iter_mut().zip(block[at..at + width].chunks_exact(REG)) {
                        let mut base: [f64; REG] = base.try_into().expect("a register is REG wide");
                        if POWERS {
                            base = pow_lanes(base, exp);
                        }
                        for l in 0..REG {
                            t[l] *= base[l];
                        }
                    }
                    fac += 1;
                }
                for (a, t) in acc.as_flattened_mut().iter_mut().zip(term.as_flattened()) {
                    *a += t;
                }
                mono += 1;
            }
            slot.copy_from_slice(acc.as_flattened());
        }
    }
}
