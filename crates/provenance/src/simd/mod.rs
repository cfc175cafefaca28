//! Runtime-dispatched SIMD evaluation kernels over the frozen arena.
//!
//! [`CompiledPolySet`] is already struct-of-arrays (coefficient,
//! prefix-end and variable-index columns, a short list of the factors
//! raised to a power, dense lookup-table valuations) — exactly the
//! layout vector units want. This module adds
//! the last step: **scenario-major lane batching**. Instead of walking
//! the columns once per scenario, [`CompiledPolySet::eval_block`]
//! evaluates up to [`LANES`] scenarios per pass:
//!
//! 1. the per-scenario valuation tables are packed (transposed) into one
//!    `[vars × width]` *block table* — `block[v·width + l]` is the value
//!    of local variable `v` in lane (scenario) `l`, so a variable's
//!    values for all lanes sit in contiguous, vector-width loads;
//! 2. the per-monomial multiply/accumulate loop is fused over the factor
//!    column: a monomial's contribution to all lanes is computed in one
//!    sweep, one lane multiply per factor, four lanes (one `__m256d`) per
//!    independent accumulator. Each kernel body is compiled per register
//!    count, index width (`u16` / `u32`), factor-range layout and whether
//!    the set has any power at all, picked once per call; only the
//!    with-powers one walks the `power_at` / `power_exp` columns (small
//!    exponents unrolled — 2/3 — exponentiation-by-squaring above,
//!    mirroring [`pow_f64`](crate::coeff::pow_f64) per lane);
//! 3. each polynomial's lane accumulators are scattered back into the
//!    per-scenario result rows.
//!
//! A batch runs [`LANES`]-wide passes, then four-wide ones, then the
//! scalar sweep for the last zero to three scenarios ([`lane_passes`]).
//!
//! Two kernels implement that loop: a portable `generic` one written
//! over `[f64; 4]` arrays (autovectorizes on any target and is the
//! guaranteed-correct fallback) and an `avx2` one over `__m256d`
//! intrinsics (`std::arch::x86_64`), guarded by
//! `is_x86_feature_detected!` so **one binary runs correctly on machines
//! with and without AVX2**. The choice sits behind the [`Kernel`] enum —
//! resolved once per batch, observable (e.g. through
//! `Session::kernel_info`) and forceable by naming a kernel in the
//! options; the `eval_matrix` suite runs [`Kernel::Generic`] on every
//! row, which is how the fallback path stays checked on any runner.
//!
//! # Equivalence contract
//!
//! Lane batching does **not** reorder floating-point sums: each lane
//! accumulates its scenario's monomials in exactly the order
//! [`CompiledPolySet::eval_into`] visits them (which register holds a
//! lane changes nothing about its arithmetic), the kernels use plain IEEE
//! multiplies and adds (deliberately no FMA — fusing would change
//! rounding), and every engine raises variables through the one shared
//! multiply tree of [`pow_f64`](crate::coeff::pow_f64). Every kernel is
//! therefore **bit-for-bit identical** to the scalar engine — a stronger
//! guarantee than the documented 1e-12 cross-currency tolerance, and the
//! `eval_matrix` suite asserts the bits.

use crate::compiled::{CompiledPolySet, CompiledView};
use crate::fxhash::FxHashMap;
use crate::valuation::Valuation;
use crate::var::VarId;

mod generic;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Scenarios per widest lane-batched pass: four `__m256d` registers of
/// four `f64`s, four independent add chains (the generic kernel uses the
/// same widths so both kernels split batches identically).
pub const LANES: usize = 4 * REG;

/// Scenarios per register (one `__m256d`), and so per narrow pass.
const REG: usize = 4;

/// How a lane kernel splits a batch of `scenarios`: `[wide, narrow,
/// scalar]` — [`LANES`]-wide passes, then four-wide ones, then the
/// scalar sweep for the last zero to three.
pub fn lane_passes(scenarios: usize) -> [usize; 3] {
    let rest = scenarios % LANES;
    [scenarios / LANES, rest / REG, rest % REG]
}

/// Rounds a work-queue chunk of `chunk` scenarios, out of `jobs` shared
/// by `threads` workers, up to a multiple of the four-wide pass, so only
/// a batch's final chunk can end in scalar scenarios, and further to a
/// multiple of [`LANES`] wherever every worker still gets a *full* chunk
/// (ADR 022: a ragged last chunk would fall to narrow and scalar passes).
pub fn lane_chunk(chunk: usize, jobs: usize, threads: usize) -> usize {
    let wide = chunk.next_multiple_of(LANES);
    if jobs / wide >= threads {
        wide
    } else {
        chunk.next_multiple_of(REG)
    }
}

/// Which evaluation kernel a batch runs on.
///
/// The default, [`Kernel::Auto`], resolves once per batch to the fastest
/// available kernel ([`Kernel::Avx2`] where the CPU supports it,
/// [`Kernel::Generic`] otherwise). The other variants force a specific
/// engine — how the ablation benches and the equivalence suites pin each
/// path down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernel {
    /// Resolve at runtime: AVX2 where detected, the generic lane kernel
    /// otherwise.
    #[default]
    Auto,
    /// The one-scenario-at-a-time columnar sweep
    /// ([`CompiledPolySet::eval_into`]) — the PR 5 baseline the ablation
    /// benches compare against.
    Scalar,
    /// The portable lane kernel over arrays of `[f64; 4]` — correct on
    /// every target, autovectorized where the compiler can.
    Generic,
    /// The `std::arch::x86_64` AVX2 kernel. Forcing it on a machine
    /// without AVX2 resolves to [`Kernel::Generic`] instead (runtime
    /// dispatch never executes an unsupported instruction);
    /// [`Kernel::is_available`] tells the two cases apart.
    Avx2,
}

/// Whether this process' CPU supports the AVX2 kernel.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl Kernel {
    /// Resolves this request to the kernel a batch will actually run on
    /// — the runtime-dispatch step, performed once per batch:
    ///
    /// * [`Kernel::Auto`] and [`Kernel::Avx2`] → [`Kernel::Avx2`] where
    ///   [`avx2_available`], else [`Kernel::Generic`];
    /// * [`Kernel::Scalar`] / [`Kernel::Generic`] → themselves (the
    ///   scalar reference is never overridden — it is the baseline).
    pub fn resolve(self) -> Kernel {
        self.resolve_on(avx2_available())
    }

    /// [`resolve`](Self::resolve) on a CPU with or without AVX2.
    fn resolve_on(self, avx2: bool) -> Kernel {
        match self {
            Kernel::Scalar => Kernel::Scalar,
            Kernel::Generic => Kernel::Generic,
            Kernel::Auto | Kernel::Avx2 if avx2 => Kernel::Avx2,
            Kernel::Auto | Kernel::Avx2 => Kernel::Generic,
        }
    }

    /// Whether this kernel can run as named on this machine (`Auto` is
    /// always available — it is the request to pick one that is).
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Avx2 => avx2_available(),
            Kernel::Auto | Kernel::Scalar | Kernel::Generic => true,
        }
    }

    /// A short stable name for logs and bench ids.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Auto => "auto",
            Kernel::Scalar => "scalar",
            Kernel::Generic => "generic",
            Kernel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The kernel-dispatch observability snapshot — sibling of the session's
/// `intern_stats()` hook, returned by [`kernel_info`] (and re-exported as
/// `Session::kernel_info`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelInfo {
    /// The kernel the options asked for (possibly [`Kernel::Auto`]).
    pub requested: Kernel,
    /// The kernel batches actually run on — [`Kernel::resolve`] of
    /// `requested`; never `Auto`.
    pub selected: Kernel,
    /// Whether this CPU supports the AVX2 kernel at all.
    pub avx2_available: bool,
    /// Scenarios in the widest pass ([`LANES`]; `1` for the scalar
    /// kernel).
    pub lanes: usize,
}

/// Resolves `requested` and reports the full dispatch picture.
pub fn kernel_info(requested: Kernel) -> KernelInfo {
    let selected = requested.resolve();
    KernelInfo {
        requested,
        selected,
        avx2_available: avx2_available(),
        lanes: if selected == Kernel::Scalar { 1 } else { LANES },
    }
}

impl CompiledPolySet<f64> {
    /// The multi-scenario evaluation entry point: evaluates the whole
    /// batch on the requested [`Kernel`] — `result[s][p]` is the value
    /// of polynomial `p` under valuation `s`, bit-for-bit identical to
    /// [`eval_all`](Self::eval_all) on every kernel (see the
    /// [module docs](self) for why).
    ///
    /// The kernel is resolved once; the batch runs [`LANES`]-wide lane
    /// passes, then four-wide ones, then the scalar sweep
    /// ([`lane_passes`]). All scratch buffers are reused across blocks,
    /// so the loop performs no per-scenario allocation beyond the result
    /// rows themselves.
    pub fn eval_block(&self, vals: &[Valuation<f64>], kernel: Kernel) -> Vec<Vec<f64>> {
        self.view().eval_block(vals, kernel)
    }

    /// [`eval_block`](Self::eval_block) appending into a caller-owned
    /// vector of rows — the executor's chunk workers use this to fill
    /// their output slices without intermediate collections.
    pub fn eval_block_into(
        &self,
        vals: &[Valuation<f64>],
        kernel: Kernel,
        out: &mut Vec<Vec<f64>>,
    ) {
        self.view().eval_block_into(vals, kernel, out)
    }
}

impl CompiledView<'_, f64> {
    /// [`CompiledPolySet::eval_block`] off borrowed columns — identical
    /// semantics, and the entry point a memory-mapped artifact's view
    /// evaluates through without an owned `CompiledPolySet` existing.
    pub fn eval_block(&self, vals: &[Valuation<f64>], kernel: Kernel) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(vals.len());
        self.eval_block_into(vals, kernel, &mut out);
        out
    }

    /// [`eval_block`](Self::eval_block) appending into a caller-owned
    /// vector of rows.
    pub fn eval_block_into(
        &self,
        vals: &[Valuation<f64>],
        kernel: Kernel,
        out: &mut Vec<Vec<f64>>,
    ) {
        let kernel = kernel.resolve();
        out.reserve(vals.len());
        let [wide, narrow, _] = match kernel {
            Kernel::Scalar => [0; 3], // the whole batch takes the scalar loop
            _ => lane_passes(vals.len()),
        };
        let (wide_vals, rest) = vals.split_at(wide * LANES);
        let (narrow_vals, tail) = rest.split_at(narrow * REG);
        if wide + narrow > 0 {
            // Variable → local index; none if a variable repeats (an
            // admitted artifact may say so), and then packing is dense.
            let index: FxHashMap<VarId, u32> = self.vars.iter().copied().zip(0..).collect();
            let index = (index.len() == self.vars.len()).then_some(&index);
            self.run_passes::<{ LANES / REG }>(wide_vals, kernel, index, out);
            self.run_passes::<1>(narrow_vals, kernel, index, out);
        }
        // The last scenarios (and the whole batch for the scalar kernel):
        // the reference columnar sweep, one reused valuation table.
        let mut table = Vec::with_capacity(self.num_vars());
        for val in tail {
            self.valuation_table_into(val, &mut table);
            let mut row = Vec::with_capacity(self.num_polys());
            self.eval_into(&table, &mut row);
            out.push(row);
        }
    }

    /// Runs `vals` in passes `REGS` registers wide on `kernel`, appending
    /// one row per scenario, off one block table and one buffer of
    /// poly-major lane sums.
    fn run_passes<const REGS: usize>(
        &self,
        vals: &[Valuation<f64>],
        kernel: Kernel,
        index: Option<&FxHashMap<VarId, u32>>,
        out: &mut Vec<Vec<f64>>,
    ) {
        let width = REGS * REG;
        let polys = self.num_polys();
        let mut block = vec![0.0; self.num_vars() * width];
        let mut sums = vec![0.0; polys * width];
        for pass in vals.chunks_exact(width) {
            self.pack_block_table(pass, index, &mut block);
            match kernel {
                Kernel::Generic => generic::eval_block_table::<REGS>(*self, &block, &mut sums),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `resolve()` returns `Avx2` only when
                // `is_x86_feature_detected!("avx2")` holds on this CPU.
                Kernel::Avx2 => unsafe { avx2::eval_block_table::<REGS>(*self, &block, &mut sums) },
                _ => unreachable!("resolve() returns a concrete lane kernel"),
            }
            // Scatter the poly-major lane results back into
            // scenario-major rows.
            for lane in 0..width {
                out.push((0..polys).map(|p| sums[p * width + lane]).collect());
            }
        }
    }

    /// Packs (transposes) one pass of valuation tables into the block
    /// table: `block[v·width + l]` is local variable `v` under `vals[l]`.
    /// A lane is its default plus its assignments found in `index`; with
    /// no index (the view repeats a variable) each variable is looked up.
    fn pack_block_table(
        &self,
        vals: &[Valuation<f64>],
        index: Option<&FxHashMap<VarId, u32>>,
        block: &mut [f64],
    ) {
        let width = vals.len();
        for (lane, val) in vals.iter().enumerate() {
            let default = index.is_some().then(|| *val.default_value());
            for (slot, &v) in block.chunks_exact_mut(width).zip(self.vars) {
                slot[lane] = default.unwrap_or_else(|| val.get(v));
            }
            let Some(index) = index else { continue };
            for (v, &x) in val.iter() {
                if let Some(&i) = index.get(&v) {
                    block[i as usize * width + lane] = x;
                }
            }
        }
    }
}

/// Raises one register's lanes to `e` with the same multiply tree as
/// [`pow_f64`](crate::coeff::pow_f64) in every lane — shared by the
/// generic kernel (the AVX2 kernel mirrors it over `__m256d`).
#[inline]
fn pow_lanes(base: [f64; REG], e: u32) -> [f64; REG] {
    let mul = |a: [f64; REG], b: [f64; REG]| {
        let mut r = [0.0; REG];
        for l in 0..REG {
            r[l] = a[l] * b[l];
        }
        r
    };
    match e {
        0 => [1.0; REG],
        1 => base,
        2 => mul(base, base),
        3 => mul(mul(base, base), base),
        _ => {
            let mut e = e;
            let mut base = base;
            let mut acc = [1.0; REG];
            while e > 1 {
                if e & 1 == 1 {
                    acc = mul(acc, base);
                }
                base = mul(base, base);
                e >>= 1;
            }
            mul(acc, base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeff::pow_f64;
    use crate::parse::parse_polyset;
    use crate::var::VarTable;

    #[test]
    fn resolve_never_returns_auto_and_respects_forcing() {
        for k in [Kernel::Auto, Kernel::Scalar, Kernel::Generic, Kernel::Avx2] {
            let r = k.resolve();
            assert_ne!(r, Kernel::Auto);
            assert!(r.is_available(), "resolve() picked an unrunnable kernel");
            assert_eq!(r, k.resolve_on(avx2_available()));
        }
        // Both capabilities, whatever this host has: forcing Scalar or
        // Generic always holds, and AVX2 is demoted exactly where the
        // CPU lacks it.
        for avx2 in [false, true] {
            assert_eq!(Kernel::Scalar.resolve_on(avx2), Kernel::Scalar);
            assert_eq!(Kernel::Generic.resolve_on(avx2), Kernel::Generic);
            let fastest = if avx2 { Kernel::Avx2 } else { Kernel::Generic };
            assert_eq!(Kernel::Auto.resolve_on(avx2), fastest);
            assert_eq!(Kernel::Avx2.resolve_on(avx2), fastest);
        }
    }

    #[test]
    fn kernel_info_reports_the_dispatch() {
        let info = kernel_info(Kernel::Auto);
        assert_eq!(info.requested, Kernel::Auto);
        assert_eq!(info.selected, Kernel::Auto.resolve());
        assert_eq!(info.avx2_available, avx2_available());
        assert_eq!(info.lanes, LANES);
        let scalar = kernel_info(Kernel::Scalar);
        assert_eq!(scalar.selected, Kernel::Scalar);
        assert_eq!(scalar.lanes, 1);
        assert_eq!(format!("{}", Kernel::Avx2), "avx2");
    }

    #[test]
    fn pow_lanes_matches_pow_f64_per_lane() {
        let base = [1.5, -0.75, 0.0, 1e3];
        for e in 0..12 {
            let lanes = pow_lanes(base, e);
            for l in 0..REG {
                assert_eq!(
                    lanes[l].to_bits(),
                    pow_f64(base[l], e).to_bits(),
                    "lane {l} exp {e}"
                );
            }
        }
    }

    #[test]
    fn eval_block_matches_eval_all_on_every_kernel() {
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1\n75.9·y1·m1 + 72.5·y1·m3\n42·v·m1",
            &mut vars,
        )
        .expect("parse");
        let compiled = CompiledPolySet::compile(&polys);
        let ids: Vec<_> = vars.iter().map(|(id, _)| id).collect();
        // 23 scenarios: one LANES-wide pass, one four-wide pass and a
        // scalar tail of 3.
        assert_eq!(lane_passes(23), [1, 1, 3]);
        let vals: Vec<Valuation<f64>> = (0..23)
            .map(|s| {
                let mut v = Valuation::neutral();
                for (i, &id) in ids.iter().enumerate() {
                    v.assign(id, 0.25 + (s * ids.len() + i) as f64 * 0.125);
                }
                v
            })
            .collect();
        let reference = compiled.eval_all(&vals);
        for kernel in [Kernel::Auto, Kernel::Scalar, Kernel::Generic, Kernel::Avx2] {
            let got = compiled.eval_block(&vals, kernel);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                for (a, b) in g.iter().zip(r) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b} on {kernel}");
                }
            }
        }
    }

    #[test]
    fn lane_passes_cascade_from_wide_to_scalar() {
        assert_eq!(lane_passes(0), [0, 0, 0]);
        assert_eq!(lane_passes(3), [0, 0, 3]);
        assert_eq!(lane_passes(4), [0, 1, 0]);
        assert_eq!(lane_passes(15), [0, 3, 3]);
        assert_eq!(lane_passes(16), [1, 0, 0]);
        assert_eq!(lane_passes(17), [1, 0, 1]);
        assert_eq!(lane_passes(37), [2, 1, 1]);
    }

    /// The sparse packing writes exactly the dense valuation tables: a
    /// non-1 default, assignments to variables the view lacks (few, then
    /// more than the view has variables), an empty valuation and lanes
    /// whose defaults differ, on a wide and on a narrow pass, with and
    /// without the local index.
    #[test]
    fn packed_blocks_equal_the_dense_valuation_tables() {
        let mut vars = VarTable::new();
        let polys = parse_polyset("2·a·b + 3·c\n5·b·d", &mut vars).expect("parse");
        let compiled = CompiledPolySet::compile(&polys);
        let view = compiled.view();
        let [a, b, d] = ["a", "b", "d"].map(|n| vars.lookup(n).expect("parsed"));
        let absent: Vec<VarId> = (0..9).map(|i| vars.intern(&format!("x{i}"))).collect();
        let kinds = [
            Valuation::with_default(0.5).set(a, 3.0),
            Valuation::neutral().set(absent[0], 7.0).set(b, -1.0),
            absent
                .iter()
                .fold(Valuation::with_default(2.0).set(d, 0.25), |v, &x| {
                    v.set(x, 9.0)
                }),
            Valuation::neutral(),
            Valuation::with_default(-4.0),
        ];
        let index: FxHashMap<VarId, u32> = view.vars().iter().copied().zip(0..).collect();
        for width in [LANES, REG] {
            let vals: Vec<Valuation<f64>> = kinds.iter().cycle().take(width).cloned().collect();
            for index in [Some(&index), None] {
                let mut block = vec![f64::NAN; view.num_vars() * width];
                view.pack_block_table(&vals, index, &mut block);
                for (lane, val) in vals.iter().enumerate() {
                    let table = view.valuation_table(val);
                    for (v, want) in table.iter().enumerate() {
                        let got = block[v * width + lane];
                        assert_eq!(got.to_bits(), want.to_bits(), "lane {lane} var {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_polyset() {
        let compiled = CompiledPolySet::compile(&crate::polyset::PolySet::<f64>::new());
        assert!(compiled.eval_block(&[], Kernel::Auto).is_empty());
        let rows = compiled.eval_block(&[Valuation::neutral()], Kernel::Generic);
        assert_eq!(rows, vec![Vec::<f64>::new()]);
    }
}
