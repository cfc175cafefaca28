//! The batch evaluation engine: compiled poly-sets on a scoped thread pool.
//!
//! Applying a batch of scenarios to a poly-set is an embarrassingly
//! parallel scenario×polynomial grid — each cell is independent — and the
//! quantity the whole system exists to make fast (Figure 10's inner
//! loop). This module partitions the grid by scenario into chunks, hands
//! the chunks to `std::thread::scope` workers through an atomic cursor
//! (work stealing without a dependency: whichever worker finishes first
//! claims the next chunk), and evaluates each chunk either through the
//! columnar [`CompiledPolySet`] fast path or the hash-map reference path.
//!
//! Entry points: [`apply_batch_parallel`] plus the [`EvalOptions`]
//! builder. `EvalOptions::serial_reference()` reproduces the exact
//! serial hash-map loop of [`crate::apply::apply_batch`], so everything
//! can be routed through one engine without changing results — all three
//! paths agree bit for bit (enforced by the `parallel_equivalence`
//! property suite).

use crate::apply::TimedRun;
use provabs_provenance::compiled::{CompiledPolySet, CompiledView};
use provabs_provenance::guard::{self, Guard, Interrupt};
use provabs_provenance::polyset::PolySet;
pub use provabs_provenance::simd::Kernel;
use provabs_provenance::simd::LANES;
use provabs_provenance::valuation::Valuation;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning knobs for [`apply_batch_parallel`].
///
/// The default (`threads: 0`, `compiled: true`, `chunk: 0`,
/// `kernel: Auto`) auto-sizes the pool from
/// [`std::thread::available_parallelism`] and evaluates through the
/// columnar fast path on the fastest evaluation kernel the CPU supports
/// (AVX2 where detected, the portable lane kernel otherwise — see
/// [`provabs_provenance::simd`]).
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Worker threads; `0` = one per available core. `1` runs inline on
    /// the calling thread (no pool is spun up).
    pub threads: usize,
    /// Whether to lower the poly-set into a [`CompiledPolySet`] first.
    /// Compilation is one extra pass over the provenance, amortised over
    /// the batch; disable it for single-scenario calls on huge sets.
    pub compiled: bool,
    /// Scenarios per work-queue chunk; `0` = auto (about four chunks per
    /// worker, so the atomic cursor can balance uneven scenario costs).
    /// On the compiled path with a lane kernel, the resolved chunk is
    /// rounded up to a multiple of [`LANES`] so workers receive
    /// lane-aligned scenario blocks.
    pub chunk: usize,
    /// Which evaluation kernel compiled-path batches run on.
    /// [`Kernel::Auto`] (the default) resolves once per batch to the
    /// fastest available one; forcing [`Kernel::Scalar`] /
    /// [`Kernel::Generic`] / [`Kernel::Avx2`] pins a specific engine
    /// (ablations, equivalence suites). Ignored on the hash-map path
    /// (`compiled: false`). All kernels produce bit-identical results.
    pub kernel: Kernel,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            compiled: true,
            chunk: 0,
            kernel: Kernel::Auto,
        }
    }
}

impl EvalOptions {
    /// The auto-tuned default (compiled, one worker per core).
    pub fn new() -> Self {
        Self::default()
    }

    /// The configuration that reproduces [`crate::apply::apply_batch`]
    /// exactly: single-threaded, hash-map evaluation. Used as the paper-
    /// faithful baseline in speedup measurements.
    pub fn serial_reference() -> Self {
        Self {
            threads: 1,
            compiled: false,
            chunk: 0,
            kernel: Kernel::Scalar,
        }
    }

    /// Sets the worker count (`0` = auto), returning `self` for chaining.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Enables or disables the compiled fast path (chainable).
    #[must_use]
    pub fn compiled(mut self, yes: bool) -> Self {
        self.compiled = yes;
        self
    }

    /// Sets the chunk size (`0` = auto), returning `self` for chaining.
    #[must_use]
    pub fn chunk(mut self, scenarios_per_chunk: usize) -> Self {
        self.chunk = scenarios_per_chunk;
        self
    }

    /// Pins the compiled-path evaluation kernel (chainable). The default
    /// is [`Kernel::Auto`] — runtime dispatch to the fastest available
    /// kernel; see [`provabs_provenance::simd`] for the dispatch rules
    /// and the bit-for-bit equivalence contract.
    #[must_use]
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The worker count to actually use for `jobs` scenarios.
    fn resolved_threads(&self, jobs: usize) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let t = if self.threads == 0 {
            hw()
        } else {
            self.threads
        };
        t.clamp(1, jobs.max(1))
    }

    /// The chunk size to actually use.
    fn resolved_chunk(&self, jobs: usize, threads: usize) -> usize {
        if self.chunk > 0 {
            return self.chunk;
        }
        // ~4 chunks per worker: enough slack for the cursor to rebalance,
        // few enough that per-chunk overhead stays negligible.
        jobs.div_ceil(threads * 4).max(1)
    }
}

/// Evaluates every valuation against every polynomial on the configured
/// engine, timing the whole batch (compilation included — the one-shot
/// cost of answering the analyst's question from scratch; use
/// [`PreparedBatch`] to compile once across many batches).
///
/// `values[s][p]` is the value of polynomial `p` under scenario `s`,
/// bit-identical to [`crate::apply::apply_batch`] for every
/// configuration.
pub fn apply_batch_parallel(
    polys: &PolySet<f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
) -> TimedRun {
    let start = Instant::now();
    let values = PreparedBatch::new(polys, opts).eval(valuations);
    TimedRun {
        values,
        elapsed: start.elapsed(),
    }
}

/// Evaluates a batch against an *externally owned* prepared form, timing
/// only the evaluation: when `compiled` is `Some`, the columnar fast path
/// runs off that lowering (no compilation happens here); when `None`, the
/// hash-map path runs directly on `polys`. Thread-pool and chunking knobs
/// of `opts` are honoured either way.
///
/// This is the evaluation core behind [`PreparedBatch`] and the hook by
/// which long-lived handles (e.g. `provabs_session::Session`) that cache a
/// [`CompiledPolySet`] across many batches route every batch through the
/// one compilation they paid up front.
pub fn eval_prepared(
    polys: &PolySet<f64>,
    compiled: Option<&CompiledPolySet<f64>>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
) -> TimedRun {
    let start = Instant::now();
    let values = eval_grid(polys, compiled, valuations, opts);
    TimedRun {
        values,
        elapsed: start.elapsed(),
    }
}

/// Evaluates a batch against a compiled poly-set alone — the entry point
/// for callers whose provenance lives entirely in the interned currency
/// (e.g. a `provabs_session::Session` that froze a working set's arena
/// into this lowering and holds no [`PolySet`] at all). Thread-pool and
/// chunking knobs of `opts` are honoured; the `compiled` flag is ignored
/// (the lowering already exists).
pub fn eval_compiled(
    compiled: &CompiledPolySet<f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
) -> TimedRun {
    eval_compiled_view(compiled.view(), valuations, opts)
}

/// [`eval_compiled`] over borrowed compiled columns: the entry point for
/// callers whose lowering is not an owned [`CompiledPolySet`] at all but
/// a [`CompiledView`] resliced from elsewhere — in particular a durable
/// artifact's memory-mapped arenas
/// ([`provabs_provenance::persist`]), which evaluate through this
/// function without a single column ever being copied.
pub fn eval_compiled_view(
    compiled: CompiledView<'_, f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
) -> TimedRun {
    let start = Instant::now();
    let values = eval_grid_compiled(compiled, valuations, opts);
    TimedRun {
        values,
        elapsed: start.elapsed(),
    }
}

/// One worker panic, isolated to the scenario that raised it. The rest
/// of the batch is unaffected: sibling scenarios in the same chunk are
/// replayed individually, other chunks complete normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicReport {
    /// The batch index of the scenario whose evaluation panicked.
    pub scenario_index: usize,
    /// The rendered panic payload.
    pub payload: String,
}

/// Why a guarded batch evaluation did not complete cleanly.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// A scenario's evaluation panicked; the panic was caught at the
    /// chunk boundary and pinned to the offending scenario.
    WorkerPanic {
        /// The batch index of the poisoned scenario.
        scenario_index: usize,
        /// The rendered panic payload.
        payload: String,
    },
    /// The guard tripped (cancellation or deadline) before the batch
    /// drained; workers stopped within one chunk each.
    Interrupted(Interrupt),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanic {
                scenario_index,
                payload,
            } => write!(
                f,
                "worker panicked evaluating scenario {scenario_index}: {payload}"
            ),
            ExecError::Interrupted(reason) => write!(f, "batch evaluation interrupted: {reason}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The full outcome of a guarded batch evaluation: every row the engine
/// managed to produce, plus everything that went wrong. Rows belonging
/// to panicked scenarios — and to chunks never claimed after an
/// interrupt — are left empty.
#[derive(Clone, Debug)]
pub struct GuardedRun {
    /// `values[s][p]`, bit-identical to the serial reference for every
    /// scenario that evaluated cleanly.
    pub values: Vec<Vec<f64>>,
    /// Wall-clock time of the evaluation.
    pub elapsed: Duration,
    /// Per-scenario panics, sorted by scenario index. Empty on a clean
    /// run.
    pub panics: Vec<PanicReport>,
    /// Set when the guard tripped before the batch drained.
    pub interrupted: Option<Interrupt>,
}

impl GuardedRun {
    /// Collapses the outcome into the all-or-nothing form: the timed
    /// values if the batch drained cleanly, the first panic (by scenario
    /// index) or the interrupt otherwise.
    pub fn into_result(self) -> Result<TimedRun, ExecError> {
        if let Some(first) = self.panics.into_iter().next() {
            return Err(ExecError::WorkerPanic {
                scenario_index: first.scenario_index,
                payload: first.payload,
            });
        }
        if let Some(reason) = self.interrupted {
            return Err(ExecError::Interrupted(reason));
        }
        Ok(TimedRun {
            values: self.values,
            elapsed: self.elapsed,
        })
    }
}

/// [`eval_prepared`] under an execution [`Guard`]: workers poll the
/// guard at every chunk claim (a cancelled batch stops within one chunk
/// per worker) and every chunk runs behind a panic isolation boundary —
/// a poisoned scenario loses its own row only, pinned in
/// [`GuardedRun::panics`], while the rest of the batch completes.
pub fn eval_prepared_guarded(
    polys: &PolySet<f64>,
    compiled: Option<&CompiledPolySet<f64>>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
    guard: &Guard,
) -> GuardedRun {
    let start = Instant::now();
    let (values, panics, interrupted) = if let Some(compiled) = compiled {
        eval_grid_compiled_guarded(compiled.view(), valuations, opts, guard)
    } else {
        eval_grid_serial_guarded(polys, valuations, opts, guard)
    };
    GuardedRun {
        values,
        elapsed: start.elapsed(),
        panics,
        interrupted,
    }
}

/// [`eval_compiled_view`] under an execution [`Guard`] — same isolation
/// and cancellation contract as [`eval_prepared_guarded`].
pub fn eval_compiled_view_guarded(
    compiled: CompiledView<'_, f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
    guard: &Guard,
) -> GuardedRun {
    let start = Instant::now();
    let (values, panics, interrupted) =
        eval_grid_compiled_guarded(compiled, valuations, opts, guard);
    GuardedRun {
        values,
        elapsed: start.elapsed(),
        panics,
        interrupted,
    }
}

/// Guarded compiled-path grid: the chunk evaluator runs the columnar
/// kernel block-wise; the per-scenario evaluator replays single rows
/// when a chunk trips the isolation boundary.
fn eval_grid_compiled_guarded(
    compiled: CompiledView<'_, f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
    guard: &Guard,
) -> GridOutcome {
    if valuations.is_empty() {
        return (Vec::new(), Vec::new(), None);
    }
    let kernel = opts.kernel.resolve();
    let threads = opts.resolved_threads(valuations.len());
    let mut chunk = opts.resolved_chunk(valuations.len(), threads);
    if kernel != Kernel::Scalar {
        chunk = chunk.next_multiple_of(LANES);
    }
    run_chunked_guarded(
        valuations.len(),
        threads,
        chunk,
        guard,
        |start, out| {
            let end = start + out.len();
            let mut rows = Vec::with_capacity(out.len());
            compiled.eval_block_into(&valuations[start..end], kernel, &mut rows);
            for (slot, row) in out.iter_mut().zip(rows) {
                *slot = row;
            }
        },
        |s, out| {
            let mut rows = Vec::with_capacity(1);
            compiled.eval_block_into(&valuations[s..s + 1], kernel, &mut rows);
            *out = rows.pop().unwrap_or_default();
        },
    )
}

/// Guarded hash-map-path grid (the `compiled: false` configuration).
fn eval_grid_serial_guarded(
    polys: &PolySet<f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
    guard: &Guard,
) -> GridOutcome {
    if valuations.is_empty() {
        return (Vec::new(), Vec::new(), None);
    }
    let threads = opts.resolved_threads(valuations.len());
    let chunk = opts.resolved_chunk(valuations.len(), threads);
    run_chunked_guarded(
        valuations.len(),
        threads,
        chunk,
        guard,
        |start, out| {
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = valuations[start + k].eval_set(polys);
            }
        },
        |s, out| *out = valuations[s].eval_set(polys),
    )
}

/// The untimed compiled-path grid (single-thread or pool). The kernel is
/// resolved once per batch — every chunk worker runs the same engine.
fn eval_grid_compiled(
    compiled: CompiledView<'_, f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
) -> Vec<Vec<f64>> {
    if valuations.is_empty() {
        return Vec::new();
    }
    let kernel = opts.kernel.resolve();
    let threads = opts.resolved_threads(valuations.len());
    if threads <= 1 {
        compiled.eval_block(valuations, kernel)
    } else {
        let mut chunk = opts.resolved_chunk(valuations.len(), threads);
        if kernel != Kernel::Scalar {
            // Lane-aligned scenario blocks: only the batch's final chunk
            // can be ragged, every other worker runs full lane passes.
            chunk = chunk.next_multiple_of(LANES);
        }
        run_chunked(valuations.len(), threads, chunk, |start, out| {
            let end = start + out.len();
            let mut rows = Vec::with_capacity(out.len());
            compiled.eval_block_into(&valuations[start..end], kernel, &mut rows);
            for (slot, row) in out.iter_mut().zip(rows) {
                *slot = row;
            }
        })
    }
}

/// The untimed scenario×polynomial grid: dispatches on compiled/serial
/// and single-thread/pool off already-prepared inputs.
fn eval_grid(
    polys: &PolySet<f64>,
    compiled: Option<&CompiledPolySet<f64>>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
) -> Vec<Vec<f64>> {
    if valuations.is_empty() {
        return Vec::new();
    }
    let threads = opts.resolved_threads(valuations.len());
    if let Some(compiled) = compiled {
        eval_grid_compiled(compiled.view(), valuations, opts)
    } else if threads <= 1 {
        valuations.iter().map(|v| v.eval_set(polys)).collect()
    } else {
        let chunk = opts.resolved_chunk(valuations.len(), threads);
        run_chunked(valuations.len(), threads, chunk, |start, out| {
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = valuations[start + k].eval_set(polys);
            }
        })
    }
}

/// A poly-set prepared for repeated batch evaluation: the columnar
/// lowering happens once in [`PreparedBatch::new`], then every
/// [`apply`](PreparedBatch::apply) call measures pure evaluation — the
/// steady state of an analyst session posing batch after batch against
/// the same provenance.
pub struct PreparedBatch<'p> {
    polys: &'p PolySet<f64>,
    compiled: Option<CompiledPolySet<f64>>,
    opts: EvalOptions,
}

impl<'p> PreparedBatch<'p> {
    /// Prepares `polys` under `opts`, compiling now if the options ask
    /// for the columnar path.
    pub fn new(polys: &'p PolySet<f64>, opts: &EvalOptions) -> Self {
        let compiled = opts.compiled.then(|| CompiledPolySet::compile(polys));
        Self {
            polys,
            compiled,
            opts: opts.clone(),
        }
    }

    /// Evaluates a batch, timing only the evaluation (compilation was
    /// paid in [`new`](Self::new)).
    pub fn apply(&self, valuations: &[Valuation<f64>]) -> TimedRun {
        let start = Instant::now();
        let values = self.eval(valuations);
        TimedRun {
            values,
            elapsed: start.elapsed(),
        }
    }

    /// The untimed core: delegates to the shared grid evaluator.
    fn eval(&self, valuations: &[Valuation<f64>]) -> Vec<Vec<f64>> {
        eval_grid(self.polys, self.compiled.as_ref(), valuations, &self.opts)
    }
}

/// The scoped thread-pool work queue: splits `jobs` output slots into
/// `chunk`-sized pieces, spawns `threads` workers, and lets each worker
/// claim pieces through an atomic cursor until the queue drains.
/// `eval_chunk` receives the chunk's starting scenario index and its
/// output slice.
fn run_chunked(
    jobs: usize,
    threads: usize,
    chunk: usize,
    eval_chunk: impl Fn(usize, &mut [Vec<f64>]) + Sync,
) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    out.resize_with(jobs, Vec::new);
    {
        // Each chunk is claimed by exactly one worker (the cursor hands
        // out each index once), so the mutexes are uncontended — they
        // exist to hand `&mut` slices across the scope safely.
        let slots: Vec<Mutex<&mut [Vec<f64>]>> = out.chunks_mut(chunk).map(Mutex::new).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    let mut guard = slot.lock().expect("chunk mutex poisoned");
                    eval_chunk(i * chunk, &mut guard);
                });
            }
        });
    }
    out
}

/// `(values, panics, interrupted)` of one guarded grid run.
type GridOutcome = (Vec<Vec<f64>>, Vec<PanicReport>, Option<Interrupt>);

/// [`run_chunked`] with the robustness contract: workers poll the guard
/// before every chunk claim and stop claiming once it trips (in-flight
/// chunks finish — cancellation latency is bounded by one chunk per
/// worker), and each chunk runs inside [`guard::run_isolated_mut`]. A
/// chunk that panics is replayed one scenario at a time through
/// `eval_one`, so only the scenario that actually panicked loses its row
/// — its index and payload land in the returned reports.
fn run_chunked_guarded(
    jobs: usize,
    threads: usize,
    chunk: usize,
    guard: &Guard,
    eval_chunk: impl Fn(usize, &mut [Vec<f64>]) + Sync,
    eval_one: impl Fn(usize, &mut Vec<f64>) + Sync,
) -> GridOutcome {
    let mut out: Vec<Vec<f64>> = Vec::new();
    out.resize_with(jobs, Vec::new);
    let panics: Mutex<Vec<PanicReport>> = Mutex::new(Vec::new());
    let interrupted: Mutex<Option<Interrupt>> = Mutex::new(None);
    {
        let slots: Vec<Mutex<&mut [Vec<f64>]>> = out.chunks_mut(chunk).map(Mutex::new).collect();
        let cursor = AtomicUsize::new(0);
        let worker = || loop {
            if let Err(reason) = guard.probe() {
                interrupted
                    .lock()
                    .expect("interrupt slot poisoned")
                    .get_or_insert(reason);
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let mut rows = slot.lock().expect("chunk mutex poisoned");
            let start = i * chunk;
            if guard::run_isolated_mut(|| eval_chunk(start, &mut rows)).is_ok() {
                continue;
            }
            // The chunk poisoned mid-write: replay it one scenario at a
            // time so only the culprit's row is lost.
            for (k, row) in rows.iter_mut().enumerate() {
                row.clear();
                if let Err(payload) = guard::run_isolated_mut(|| eval_one(start + k, row)) {
                    row.clear();
                    panics
                        .lock()
                        .expect("panic list poisoned")
                        .push(PanicReport {
                            scenario_index: start + k,
                            payload,
                        });
                }
            }
        };
        if threads <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            });
        }
    }
    let mut panics = panics.into_inner().expect("panic list poisoned");
    panics.sort_by_key(|p| p.scenario_index);
    let interrupted = interrupted.into_inner().expect("interrupt slot poisoned");
    (out, panics, interrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_batch;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::var::VarTable;

    fn setup(n_scenarios: usize) -> (PolySet<f64>, Vec<Valuation<f64>>) {
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1\n75.9·y1·m1 + 72.5·y1·m3\n42·v·m1",
            &mut vars,
        )
        .expect("parse");
        let names: Vec<String> = vars.iter().map(|(_, n)| n.to_string()).collect();
        let vals = (0..n_scenarios)
            .map(|i| crate::scenario::Scenario::random(&names, 0.6, i as u64).valuation(&mut vars))
            .collect();
        (polys, vals)
    }

    /// Every engine configuration must agree with the serial hash-map
    /// reference bit for bit.
    fn assert_matches_reference(polys: &PolySet<f64>, vals: &[Valuation<f64>], opts: &EvalOptions) {
        let reference = apply_batch(polys, vals).values;
        let got = apply_batch_parallel(polys, vals, opts).values;
        assert_eq!(reference.len(), got.len());
        for (r, g) in reference.iter().zip(&got) {
            assert_eq!(r.len(), g.len());
            for (a, b) in r.iter().zip(g) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b} under {opts:?}");
            }
        }
    }

    #[test]
    fn all_configurations_match_the_serial_reference() {
        let (polys, vals) = setup(13);
        for opts in [
            EvalOptions::serial_reference(),
            EvalOptions::new().threads(1),
            EvalOptions::new().threads(4),
            EvalOptions::new().threads(4).compiled(false),
            EvalOptions::new().threads(3).chunk(2),
            EvalOptions::new(), // auto everything
        ] {
            assert_matches_reference(&polys, &vals, &opts);
        }
    }

    /// Every forced kernel — scalar sweep, portable lanes, AVX2 (where
    /// this machine has it; `resolve()` demotes it to the generic lanes
    /// otherwise, which must *still* match) — agrees with the serial
    /// hash-map reference bit for bit, single-threaded and pooled.
    #[test]
    fn all_kernels_match_the_serial_reference() {
        let (polys, vals) = setup(13);
        for kernel in [Kernel::Auto, Kernel::Scalar, Kernel::Generic, Kernel::Avx2] {
            for opts in [
                EvalOptions::new().threads(1).kernel(kernel),
                EvalOptions::new().threads(4).kernel(kernel),
                EvalOptions::new().threads(3).chunk(2).kernel(kernel),
            ] {
                assert_matches_reference(&polys, &vals, &opts);
            }
        }
    }

    /// Lane kernels hand workers lane-aligned scenario blocks: a chunk
    /// size that is not a multiple of LANES still yields bit-identical
    /// results (the alignment is an executor concern, not a caller one).
    #[test]
    fn lane_misaligned_chunks_are_realigned() {
        let (polys, vals) = setup(11);
        for chunk in [1, 2, 3, 5, 7] {
            let opts = EvalOptions::new()
                .threads(2)
                .chunk(chunk)
                .kernel(Kernel::Generic);
            assert_matches_reference(&polys, &vals, &opts);
        }
    }

    /// The batch loop's valuation table is a reused buffer: after the
    /// first scenario warms the capacity up, re-densifying further
    /// scenarios performs no allocation (same backing pointer, same
    /// capacity).
    #[test]
    fn valuation_table_reuse_is_allocation_free() {
        let (polys, vals) = setup(6);
        let compiled = provabs_provenance::compiled::CompiledPolySet::compile(&polys);
        let mut table = Vec::new();
        compiled.valuation_table_into(&vals[0], &mut table);
        assert_eq!(table, compiled.valuation_table(&vals[0]));
        let (warm_ptr, warm_cap) = (table.as_ptr(), table.capacity());
        for val in &vals {
            compiled.valuation_table_into(val, &mut table);
            assert_eq!(table.as_ptr(), warm_ptr, "table buffer was reallocated");
            assert_eq!(table.capacity(), warm_cap, "table capacity changed");
            assert_eq!(table.len(), compiled.num_vars());
        }
    }

    #[test]
    fn empty_batch_and_empty_polyset() {
        let (polys, _) = setup(0);
        let run = apply_batch_parallel(&polys, &[], &EvalOptions::new());
        assert!(run.values.is_empty());
        let empty: PolySet<f64> = PolySet::new();
        let run = apply_batch_parallel(&empty, &[Valuation::neutral()], &EvalOptions::new());
        assert_eq!(run.values, vec![Vec::<f64>::new()]);
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let (polys, vals) = setup(2);
        assert_matches_reference(&polys, &vals, &EvalOptions::new().threads(16));
    }

    #[test]
    fn chunk_of_one_exercises_the_cursor() {
        let (polys, vals) = setup(9);
        assert_matches_reference(&polys, &vals, &EvalOptions::new().threads(2).chunk(1));
    }

    #[test]
    fn eval_prepared_matches_reference_with_and_without_compiled() {
        let (polys, vals) = setup(7);
        let reference = apply_batch(&polys, &vals).values;
        let compiled = provabs_provenance::compiled::CompiledPolySet::compile(&polys);
        for opts in [
            EvalOptions::new(),
            EvalOptions::new().threads(3).chunk(2),
            EvalOptions::serial_reference(),
        ] {
            let with = eval_prepared(&polys, Some(&compiled), &vals, &opts);
            assert_eq!(with.values, reference);
            let without = eval_prepared(&polys, None, &vals, &opts);
            assert_eq!(without.values, reference);
        }
        assert!(eval_prepared(&polys, None, &[], &EvalOptions::new())
            .values
            .is_empty());
    }

    #[test]
    fn eval_compiled_matches_eval_prepared() {
        let (polys, vals) = setup(7);
        let compiled = provabs_provenance::compiled::CompiledPolySet::compile(&polys);
        for opts in [
            EvalOptions::new(),
            EvalOptions::new().threads(3).chunk(2),
            EvalOptions::new().threads(1),
        ] {
            let via_prepared = eval_prepared(&polys, Some(&compiled), &vals, &opts).values;
            let direct = eval_compiled(&compiled, &vals, &opts).values;
            assert_eq!(via_prepared, direct);
        }
        assert!(eval_compiled(&compiled, &[], &EvalOptions::new())
            .values
            .is_empty());
    }

    #[test]
    fn prepared_batch_reuses_the_compiled_form() {
        let (polys, vals) = setup(6);
        let reference = apply_batch(&polys, &vals).values;
        let engine = PreparedBatch::new(&polys, &EvalOptions::new().threads(2));
        // Two batches through one compilation; both match the reference.
        for _ in 0..2 {
            let run = engine.apply(&vals);
            assert_eq!(run.values, reference);
        }
        let serial = PreparedBatch::new(&polys, &EvalOptions::serial_reference());
        assert_eq!(serial.apply(&vals).values, reference);
    }

    /// The acceptance scenario for panic isolation: a 16-scenario batch
    /// in which exactly one scenario's evaluation panics. The poisoned
    /// scenario is reported — by exact index, with its payload — and the
    /// other 15 rows are bit-identical to the serial reference.
    #[test]
    fn one_poisoned_scenario_loses_only_its_own_row() {
        let (polys, vals) = setup(16);
        let reference = apply_batch(&polys, &vals).values;
        let poison = 11usize;
        // The injected panics are caught and reported; keep them off the
        // test harness's stderr.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 2, 4] {
            for chunk in [1, 3, 4, 16] {
                let guard = Guard::unlimited();
                let (values, panics, interrupted) = run_chunked_guarded(
                    vals.len(),
                    threads,
                    chunk,
                    &guard,
                    |start, out| {
                        for (k, slot) in out.iter_mut().enumerate() {
                            assert_ne!(start + k, poison, "scenario {poison} is poisoned");
                            *slot = vals[start + k].eval_set(&polys);
                        }
                    },
                    |s, out| {
                        assert_ne!(s, poison, "scenario {poison} is poisoned");
                        *out = vals[s].eval_set(&polys);
                    },
                );
                assert_eq!(interrupted, None);
                assert_eq!(panics.len(), 1, "threads {threads} chunk {chunk}");
                assert_eq!(panics[0].scenario_index, poison);
                assert!(
                    panics[0].payload.contains("poisoned"),
                    "{}",
                    panics[0].payload
                );
                for (s, row) in values.iter().enumerate() {
                    if s == poison {
                        assert!(row.is_empty(), "poisoned row must stay empty");
                    } else {
                        assert_eq!(
                            row, &reference[s],
                            "row {s} diverged (threads {threads} chunk {chunk})"
                        );
                    }
                }
            }
        }
        std::panic::set_hook(prev);
    }

    /// `GuardedRun::into_result` surfaces the lowest-indexed panic as the
    /// typed error, and a clean run round-trips into a `TimedRun`.
    #[test]
    fn guarded_run_collapses_to_typed_errors() {
        let run = GuardedRun {
            values: vec![vec![1.0]],
            elapsed: Duration::from_millis(1),
            panics: vec![
                PanicReport {
                    scenario_index: 3,
                    payload: "boom".into(),
                },
                PanicReport {
                    scenario_index: 9,
                    payload: "later".into(),
                },
            ],
            interrupted: Some(Interrupt::Cancelled),
        };
        match run.into_result() {
            Err(ExecError::WorkerPanic {
                scenario_index,
                payload,
            }) => {
                assert_eq!(scenario_index, 3);
                assert_eq!(payload, "boom");
            }
            other => panic!("expected the first panic, got {other:?}"),
        }
        let cancelled = GuardedRun {
            values: Vec::new(),
            elapsed: Duration::ZERO,
            panics: Vec::new(),
            interrupted: Some(Interrupt::Cancelled),
        };
        assert_eq!(
            cancelled.into_result().unwrap_err(),
            ExecError::Interrupted(Interrupt::Cancelled)
        );
        let clean = GuardedRun {
            values: vec![vec![2.0]],
            elapsed: Duration::ZERO,
            panics: Vec::new(),
            interrupted: None,
        };
        assert_eq!(clean.into_result().unwrap().values, vec![vec![2.0]]);
    }

    /// A guarded run with an unlimited guard matches the serial reference
    /// bit for bit across engine configurations — the guarded path is the
    /// same engine, not a different one.
    #[test]
    fn guarded_paths_match_reference_when_unlimited() {
        let (polys, vals) = setup(13);
        let reference = apply_batch(&polys, &vals).values;
        let compiled = provabs_provenance::compiled::CompiledPolySet::compile(&polys);
        let guard = Guard::unlimited();
        for opts in [
            EvalOptions::new(),
            EvalOptions::new().threads(1),
            EvalOptions::new().threads(3).chunk(2),
            EvalOptions::serial_reference(),
        ] {
            let with = eval_prepared_guarded(&polys, Some(&compiled), &vals, &opts, &guard);
            assert!(with.panics.is_empty() && with.interrupted.is_none());
            assert_eq!(with.values, reference, "{opts:?}");
            let without = eval_prepared_guarded(&polys, None, &vals, &opts, &guard);
            assert_eq!(without.values, reference, "{opts:?}");
            let view = eval_compiled_view_guarded(compiled.view(), &vals, &opts, &guard);
            assert_eq!(view.values, reference, "{opts:?}");
        }
    }

    /// A token cancelled before the batch starts stops every worker at
    /// its first claim: no rows are produced and the run reports
    /// `Interrupt::Cancelled`.
    #[test]
    fn cancelled_token_stops_workers_at_the_claim() {
        let (polys, vals) = setup(12);
        let token = provabs_provenance::guard::CancelToken::new();
        token.cancel();
        let guard = Guard::unlimited().with_cancel(token);
        let run = eval_prepared_guarded(
            &polys,
            None,
            &vals,
            &EvalOptions::new().threads(3).chunk(1),
            &guard,
        );
        assert_eq!(run.interrupted, Some(Interrupt::Cancelled));
        assert!(run.values.iter().all(Vec::is_empty), "no chunk may run");
        assert!(matches!(
            run.into_result(),
            Err(ExecError::Interrupted(Interrupt::Cancelled))
        ));
    }

    /// A cancellation raised mid-batch stops within one chunk per worker:
    /// with single-scenario chunks and a token tripped by the first
    /// evaluation, strictly fewer rows complete than the batch holds.
    #[test]
    fn mid_batch_cancellation_stops_within_a_chunk() {
        let (polys, vals) = setup(64);
        let token = provabs_provenance::guard::CancelToken::new();
        let guard = Guard::unlimited().with_cancel(token.clone());
        let (values, panics, interrupted) = run_chunked_guarded(
            vals.len(),
            2,
            1,
            &guard,
            |start, out| {
                token.cancel();
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = vals[start + k].eval_set(&polys);
                }
            },
            |s, out| *out = vals[s].eval_set(&polys),
        );
        assert!(panics.is_empty());
        assert_eq!(interrupted, Some(Interrupt::Cancelled));
        let done = values.iter().filter(|r| !r.is_empty()).count();
        assert!(done <= 2, "workers kept claiming after the cancel: {done}");
    }

    #[test]
    fn exec_error_display_names_the_failure() {
        let e = ExecError::WorkerPanic {
            scenario_index: 7,
            payload: "boom".into(),
        };
        assert!(format!("{e}").contains("scenario 7"));
        assert!(format!("{e}").contains("boom"));
        let e = ExecError::Interrupted(Interrupt::DeadlineExpired);
        assert!(format!("{e}").contains("interrupted"));
    }

    #[test]
    fn options_resolve_sanely() {
        let opts = EvalOptions::new();
        assert!(opts.resolved_threads(100) >= 1);
        assert_eq!(opts.resolved_threads(0), 1);
        assert_eq!(EvalOptions::new().threads(8).resolved_threads(3), 3);
        assert_eq!(opts.resolved_chunk(100, 4), 7); // ceil(100/16)
        assert_eq!(EvalOptions::new().chunk(5).resolved_chunk(100, 4), 5);
        let timed = apply_batch_parallel(&PolySet::new(), &[], &opts);
        assert!(timed.values.is_empty());
    }
}
