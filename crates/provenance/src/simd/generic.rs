//! The portable lane kernel: `[f64; LANES]` arrays, no intrinsics.
//!
//! This is the guaranteed-correct fallback every target can run (and the
//! path `PROVABS_FORCE_GENERIC_KERNEL=1` pins CI to). It is written as
//! straight-line lane arithmetic over fixed-size arrays so the compiler
//! can autovectorize it where the target allows; even fully scalarised
//! it must not regress the one-scenario-at-a-time sweep by more than a
//! few percent, because the block table amortises the valuation lookups
//! exactly the same way.

use super::{pow_lanes, LANES};
use crate::compiled::{CompiledView, FactorRanges, LocalIdx, PowerCursor, Sweep};

/// Evaluates every polynomial over one packed `[vars × LANES]` block
/// table. `out[p·LANES + l]` receives polynomial `p`'s value in lane `l`
/// (poly-major; the caller scatters back to scenario-major rows).
///
/// Per lane this performs exactly the operation sequence of
/// [`CompiledView::eval_into`]: term = coefficient, multiplied by each
/// factor's power in column order, accumulated in monomial order — so
/// the results are bit-for-bit identical to the scalar engine.
pub(super) fn eval_block_table(c: CompiledView<'_, f64>, block: &[f64], out: &mut [f64]) {
    debug_assert!(block.len() >= c.vars.len() * LANES);
    debug_assert_eq!(out.len(), c.poly_ends.len() * LANES);
    c.dispatch(Lanes { c, block, out });
}

/// The kernel over one block table. Its body is instantiated per index
/// width, per factor-range layout and per whether the set has any factor
/// that is not `^1` (without one, a factor is one lane multiply and the
/// power columns are never read).
struct Lanes<'a, 'o> {
    c: CompiledView<'a, f64>,
    block: &'a [f64],
    out: &'o mut [f64],
}

impl Sweep for Lanes<'_, '_> {
    fn sweep<I: LocalIdx, R: FactorRanges, const POWERS: bool>(self, factor_vars: &[I], ranges: R) {
        let Self { c, block, out } = self;
        let mut powers = PowerCursor::new(c.power_at, c.power_exp);
        let mut mono = 0usize;
        let mut fac = 0usize;
        for (p, &poly_end) in c.poly_ends.iter().enumerate() {
            let mut acc = [0.0f64; LANES];
            while mono < poly_end as usize {
                let mut term = [c.coeffs[mono]; LANES];
                let fac_end = ranges.end(mono, fac);
                while fac < fac_end {
                    let at = factor_vars[fac].at() * LANES;
                    let mut base: [f64; LANES] = block[at..at + LANES]
                        .try_into()
                        .expect("block table slot is LANES wide");
                    if POWERS {
                        base = pow_lanes(base, powers.exp_at(fac));
                    }
                    for l in 0..LANES {
                        term[l] *= base[l];
                    }
                    fac += 1;
                }
                for l in 0..LANES {
                    acc[l] += term[l];
                }
                mono += 1;
            }
            out[p * LANES..(p + 1) * LANES].copy_from_slice(&acc);
        }
    }
}
