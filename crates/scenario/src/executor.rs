//! The batch evaluation engine: compiled columns, one chunked path.
//!
//! Applying a batch of scenarios to a poly-set is an embarrassingly
//! parallel scenario×polynomial grid — each cell is independent — and the
//! quantity the whole system exists to make fast (Figure 10's inner
//! loop). [`eval`] is the one way to run it: the grid is partitioned by
//! scenario into lane-aligned chunks, workers claim chunks through an
//! atomic cursor (work stealing without a dependency: whichever worker
//! finishes first claims the next chunk), probe the [`Guard`] at every
//! claim and run each chunk behind a panic isolation boundary. A library
//! `ask()` under [`Guard::unlimited`] and a server request under a
//! deadline and a cancel token execute the same code; an unlimited guard
//! is the free case (its probe is two `Option` checks), not a second
//! path.
//!
//! The hash-map loop of [`crate::apply::apply_batch`] is the serial
//! *reference* this engine must agree with bit for bit (the
//! `eval_matrix` suite); [`eval_reference`] is that loop
//! behind one guard probe, selected by
//! [`EvalOptions::serial_reference`].

use crate::apply::{apply_batch, TimedRun};
use provabs_provenance::compiled::{CompiledPolySet, CompiledView};
use provabs_provenance::guard::{self, Guard, Interrupt};
use provabs_provenance::polyset::PolySet;
use provabs_provenance::simd::lane_chunk;
pub use provabs_provenance::simd::Kernel;
use provabs_provenance::valuation::Valuation;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Engine selection and tuning for one batch.
///
/// The default (`threads: 0`, `compiled: true`, `kernel: Auto`)
/// auto-sizes the pool from [`std::thread::available_parallelism`] and
/// evaluates the compiled columns on the fastest evaluation kernel the
/// CPU supports (AVX2 where detected, the portable lane kernel otherwise
/// — see [`provabs_provenance::simd`]).
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Worker threads of the compiled path; `0` = one per available
    /// core. A batch that resolves to one worker runs inline on the
    /// calling thread (no thread is spawned).
    pub threads: usize,
    /// Which engine answers: `true` (the default) is [`eval`] over the
    /// compiled columns; `false` — set only by
    /// [`serial_reference`](Self::serial_reference) — is the serial
    /// hash-map loop ([`eval_reference`]), which ignores `threads` and
    /// `kernel`.
    pub compiled: bool,
    /// Which evaluation kernel compiled-path batches run on.
    /// [`Kernel::Auto`] (the default) resolves once per batch to the
    /// fastest available one; forcing [`Kernel::Scalar`] /
    /// [`Kernel::Generic`] / [`Kernel::Avx2`] pins a specific engine
    /// (ablations, equivalence suites). All kernels produce bit-identical
    /// results.
    pub kernel: Kernel,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            compiled: true,
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
            kernel: Kernel::Scalar,
        }
    }

    /// Sets the worker count (`0` = auto), returning `self` for chaining.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
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

    /// The worker count requested for `jobs` scenarios.
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
}

/// Scenarios per work-queue chunk: about four chunks per worker — enough
/// slack for the cursor to rebalance uneven scenario costs, few enough
/// that per-chunk overhead stays negligible — rounded up to the lane
/// passes on a lane kernel ([`lane_chunk`]), so only the batch's final
/// chunk can end in scalar scenarios.
fn resolved_chunk(jobs: usize, threads: usize, kernel: Kernel) -> usize {
    let chunk = jobs.div_ceil(threads * 4).max(1);
    if kernel == Kernel::Scalar {
        chunk
    } else {
        lane_chunk(chunk, jobs, threads)
    }
}

/// Workers worth starting: lane alignment can leave fewer chunks than
/// requested threads, and a worker with no chunk to claim is a spawn paid
/// for nothing.
fn worker_count(jobs: usize, threads: usize, chunk: usize) -> usize {
    threads.min(jobs.div_ceil(chunk))
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

/// Why a batch evaluation did not complete cleanly.
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

/// The full outcome of a batch evaluation: every row the engine
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

/// Evaluates every valuation against the compiled columns, under
/// `guard`: `values[s][p]` is the value of polynomial `p` under scenario
/// `s`, bit-identical to [`crate::apply::apply_batch`] on every kernel
/// and worker count. The view may be an owned lowering's
/// ([`CompiledPolySet::view`]) or resliced from a memory-mapped
/// artifact ([`provabs_provenance::persist`]) — no column is copied.
///
/// Workers poll the guard at every chunk claim (a cancelled batch stops
/// within one chunk per worker) and every chunk runs behind a panic
/// isolation boundary — a poisoned scenario loses its own row only,
/// pinned in [`GuardedRun::panics`], while the rest of the batch
/// completes. [`GuardedRun::into_result`] is the all-or-nothing form.
pub fn eval(
    compiled: CompiledView<'_, f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
    guard: &Guard,
) -> GuardedRun {
    let begin = Instant::now();
    // Resolved once per batch: every chunk worker runs the same kernel.
    let kernel = opts.kernel.resolve();
    let threads = opts.resolved_threads(valuations.len());
    let chunk = resolved_chunk(valuations.len(), threads, kernel);
    let (values, panics, interrupted) = run_chunked(
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
    );
    GuardedRun {
        values,
        elapsed: begin.elapsed(),
        panics,
        interrupted,
    }
}

/// The serial hash-map reference under `guard`: one probe, then
/// [`apply_batch`] — what `opts.compiled == false` selects. The loop
/// itself is the oracle and is not interruptible mid-batch.
pub fn eval_reference(
    polys: &PolySet<f64>,
    valuations: &[Valuation<f64>],
    guard: &Guard,
) -> Result<TimedRun, ExecError> {
    guard.probe().map_err(ExecError::Interrupted)?;
    Ok(apply_batch(polys, valuations))
}

/// Pinned by `benchmark/`; use [`eval`]. A contained panic is re-raised.
#[doc(hidden)]
pub fn eval_compiled_view(
    compiled: CompiledView<'_, f64>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
) -> TimedRun {
    eval(compiled, valuations, opts, &Guard::unlimited())
        .into_result()
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Pinned by `benchmark/`; use [`eval`] or [`apply_batch`].
#[doc(hidden)]
pub fn eval_prepared(
    polys: &PolySet<f64>,
    compiled: Option<&CompiledPolySet<f64>>,
    valuations: &[Valuation<f64>],
    opts: &EvalOptions,
) -> TimedRun {
    match compiled {
        Some(compiled) => eval_compiled_view(compiled.view(), valuations, opts),
        None => apply_batch(polys, valuations),
    }
}

/// `(values, panics, interrupted)` of one grid run.
type GridOutcome = (Vec<Vec<f64>>, Vec<PanicReport>, Option<Interrupt>);

/// The work queue: splits `jobs` output slots into `chunk`-sized pieces
/// and lets [`worker_count`] workers claim pieces through an atomic
/// cursor until the queue drains (one worker runs inline, on the calling
/// thread; an empty batch runs none, so it never trips the guard).
/// `eval_chunk` receives the chunk's starting scenario index and its
/// output slice.
///
/// Workers poll the guard before every chunk claim and stop claiming
/// once it trips (in-flight chunks finish — cancellation latency is
/// bounded by one chunk per worker), and each chunk runs inside
/// [`guard::run_isolated_mut`]. A chunk that panics is replayed one
/// scenario at a time through `eval_one`, so only the scenario that
/// actually panicked loses its row — its index and payload land in the
/// returned reports.
fn run_chunked(
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
        // Each chunk is claimed by exactly one worker (the cursor hands
        // out each index once), so the mutexes are uncontended — they
        // exist to hand `&mut` slices across the scope safely.
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
        match worker_count(jobs, threads, chunk) {
            0 => {}
            1 => worker(),
            workers => std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            }),
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
    use provabs_provenance::guard::{Budget, CancelToken};
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::simd::{lane_passes, LANES};
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

    /// A clean run of [`eval`] under an unlimited guard.
    fn eval_clean(
        compiled: &CompiledPolySet<f64>,
        vals: &[Valuation<f64>],
        opts: &EvalOptions,
    ) -> Vec<Vec<f64>> {
        let run = eval(compiled.view(), vals, opts, &Guard::unlimited());
        assert!(run.panics.is_empty() && run.interrupted.is_none());
        run.values
    }

    /// Every engine configuration must agree with the serial hash-map
    /// reference bit for bit.
    fn assert_matches_reference(polys: &PolySet<f64>, vals: &[Valuation<f64>], opts: &EvalOptions) {
        let reference = apply_batch(polys, vals).values;
        let got = eval_clean(&CompiledPolySet::compile(polys), vals, opts);
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
            EvalOptions::new().threads(1),
            EvalOptions::new().threads(3),
            EvalOptions::new().threads(4),
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
            for threads in [1, 3, 4] {
                let opts = EvalOptions::new().threads(threads).kernel(kernel);
                assert_matches_reference(&polys, &vals, &opts);
            }
        }
    }

    /// Lane kernels hand workers lane-aligned scenario blocks: wherever
    /// four-chunks-per-worker is not a multiple of the narrow pass the
    /// executor rounds it up, and up to a multiple of LANES where every
    /// worker still gets a full chunk (the alignment is an executor
    /// concern, not a caller one), and the results stay bit-identical.
    #[test]
    fn lane_misaligned_chunks_are_realigned() {
        for jobs in [1usize, 5, 8, 9, 11, 23, 32, 40, 64] {
            let base = jobs.div_ceil(8);
            assert_eq!(resolved_chunk(jobs, 2, Kernel::Scalar), base);
            for kernel in [Kernel::Generic, Kernel::Avx2] {
                let chunk = resolved_chunk(jobs, 2, kernel);
                let context = format!("{jobs} jobs on {kernel:?}");
                assert!(chunk >= base && chunk < base + LANES, "{context}");
                // No scalar scenario before the final chunk, and widened
                // past the smallest such chunk only where both workers
                // still get a full one.
                assert_eq!(lane_passes(chunk)[2], 0, "{context}");
                let smallest = lane_passes(chunk - base)[..2] == [0, 0];
                assert!(smallest || jobs / chunk >= 2, "{context}");
            }
            let (polys, vals) = setup(jobs);
            let opts = EvalOptions::new().threads(2).kernel(Kernel::Generic);
            assert_matches_reference(&polys, &vals, &opts);
        }
        // (jobs, threads) → chunk: a 32-scenario request on two threads
        // runs two wide chunks; eight on two stay two narrow chunks; 256
        // on one thread are four chunks of 64; 30 on two would leave the
        // second worker a ragged rest, so they stay narrow.
        for (jobs, threads, chunk) in [
            (32, 2, 16),
            (8, 2, 4),
            (256, 1, 64),
            (64, 2, 16),
            (30, 2, 4),
            (17, 1, 16),
        ] {
            assert_eq!(
                resolved_chunk(jobs, threads, Kernel::Generic),
                chunk,
                "{jobs} jobs on {threads} threads"
            );
        }
    }

    /// The passes a batch runs, read off its chunk plan: each chunk is one
    /// `eval_block_into` call and cascades wide → narrow → scalar.
    fn planned_passes(jobs: usize, threads: usize) -> [usize; 3] {
        let chunk = resolved_chunk(jobs, threads, Kernel::Generic);
        (0..jobs).step_by(chunk).fold([0; 3], |mut sum, start| {
            let passes = lane_passes(chunk.min(jobs - start));
            for (s, p) in sum.iter_mut().zip(passes) {
                *s += p;
            }
            sum
        })
    }

    /// A 17-scenario batch on one thread runs exactly one 16-lane pass
    /// and one scalar scenario — no narrow pass, no padding.
    #[test]
    fn a_17_scenario_batch_runs_one_wide_pass_and_one_scalar_scenario() {
        assert_eq!(LANES, 16);
        assert_eq!(resolved_chunk(17, 1, Kernel::Generic), 16);
        assert_eq!(planned_passes(17, 1), [1, 0, 1]);
        assert_eq!(planned_passes(32, 2), [2, 0, 0]);
        assert_eq!(planned_passes(8, 2), [0, 2, 0]);
        assert_eq!(planned_passes(256, 1), [16, 0, 0]);
        let (polys, vals) = setup(17);
        let opts = EvalOptions::new().threads(1).kernel(Kernel::Generic);
        assert_matches_reference(&polys, &vals, &opts);
    }

    /// The batch loop's valuation table is a reused buffer: after the
    /// first scenario warms the capacity up, re-densifying further
    /// scenarios performs no allocation (same backing pointer, same
    /// capacity).
    #[test]
    fn valuation_table_reuse_is_allocation_free() {
        let (polys, vals) = setup(6);
        let compiled = CompiledPolySet::compile(&polys);
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
        let compiled = CompiledPolySet::compile(&polys);
        assert!(eval_clean(&compiled, &[], &EvalOptions::new()).is_empty());
        // No worker runs on an empty batch, so nothing probes the guard:
        // even a cancelled one reports a clean, empty run.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Guard::unlimited().with_cancel(token);
        let run = eval(compiled.view(), &[], &EvalOptions::new(), &cancelled);
        assert!(run.into_result().expect("nothing ran").values.is_empty());
        let empty = CompiledPolySet::compile(&PolySet::<f64>::new());
        let rows = eval_clean(&empty, &[Valuation::neutral()], &EvalOptions::new());
        assert_eq!(rows, vec![Vec::<f64>::new()]);
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let (polys, vals) = setup(2);
        assert_matches_reference(&polys, &vals, &EvalOptions::new().threads(16));
    }

    /// Lane alignment can leave fewer chunks than requested threads; only
    /// as many workers as there are chunks are started (the first row
    /// spawned 8 before the clamp).
    #[test]
    fn no_more_workers_than_chunks() {
        for (jobs, requested, workers) in [
            (8, 8, 2),
            (1, 16, 1),
            (64, 2, 2),
            (0, 4, 0),
            (32, 2, 2),
            (8, 2, 2),
            (256, 1, 1),
        ] {
            let threads = EvalOptions::new().threads(requested).resolved_threads(jobs);
            let chunk = resolved_chunk(jobs, threads, Kernel::Generic);
            assert_eq!(
                worker_count(jobs, threads, chunk),
                workers,
                "{jobs} jobs on {requested} threads"
            );
        }
    }

    /// A batch that resolves to one worker — here three scenarios in one
    /// lane-aligned chunk, whatever the thread count asked for — runs on
    /// the calling thread: nothing is spawned.
    #[test]
    fn a_single_worker_runs_inline() {
        let (polys, vals) = setup(3);
        let ran_on = Mutex::new(Vec::new());
        let (values, panics, _) = run_chunked(
            vals.len(),
            8,
            LANES,
            &Guard::unlimited(),
            |start, out| {
                ran_on
                    .lock()
                    .expect("no holder panics")
                    .push(std::thread::current().id());
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = vals[start + k].eval_set(&polys);
                }
            },
            |_, _| unreachable!("no chunk panics"),
        );
        assert!(panics.is_empty());
        assert_eq!(values, apply_batch(&polys, &vals).values);
        let ran_on = ran_on.into_inner().expect("no holder panics");
        assert_eq!(ran_on, vec![std::thread::current().id()]);
    }

    #[test]
    fn chunk_of_one_exercises_the_cursor() {
        let (polys, vals) = setup(9);
        let (values, panics, interrupted) = run_chunked(
            vals.len(),
            2,
            1,
            &Guard::unlimited(),
            |start, out| {
                assert_eq!(out.len(), 1);
                out[0] = vals[start].eval_set(&polys);
            },
            |_, _| unreachable!("no chunk panics"),
        );
        assert!(panics.is_empty() && interrupted.is_none());
        assert_eq!(values, apply_batch(&polys, &vals).values);
    }

    /// The two forwards `benchmark/` pins answer exactly as what they
    /// forward to.
    #[test]
    fn eval_prepared_matches_reference_with_and_without_compiled() {
        let (polys, vals) = setup(7);
        let reference = apply_batch(&polys, &vals).values;
        let compiled = CompiledPolySet::compile(&polys);
        for opts in [
            EvalOptions::new(),
            EvalOptions::new().threads(3),
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
        let compiled = CompiledPolySet::compile(&polys);
        for opts in [
            EvalOptions::new(),
            EvalOptions::new().threads(3),
            EvalOptions::new().threads(1),
        ] {
            let via_prepared = eval_prepared(&polys, Some(&compiled), &vals, &opts).values;
            let direct = eval_compiled_view(compiled.view(), &vals, &opts).values;
            assert_eq!(via_prepared, direct);
            assert_eq!(direct, eval_clean(&compiled, &vals, &opts));
        }
        assert!(
            eval_compiled_view(compiled.view(), &[], &EvalOptions::new())
                .values
                .is_empty()
        );
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
                let (values, panics, interrupted) = run_chunked(
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

    /// A run under an armed guard that never trips matches the run under
    /// an unlimited one and the serial reference bit for bit — one path,
    /// so a guard cannot change an answer.
    #[test]
    fn guarded_paths_match_reference_when_unlimited() {
        let (polys, vals) = setup(13);
        let reference = apply_batch(&polys, &vals).values;
        let compiled = CompiledPolySet::compile(&polys);
        let armed = Guard::new(Budget::with_deadline(Duration::from_secs(3600)))
            .with_cancel(CancelToken::new());
        for guard in [Guard::unlimited(), armed] {
            for opts in [
                EvalOptions::new(),
                EvalOptions::new().threads(1),
                EvalOptions::new().threads(3),
            ] {
                let run = eval(compiled.view(), &vals, &opts, &guard);
                assert!(run.panics.is_empty() && run.interrupted.is_none());
                assert_eq!(run.values, reference, "{opts:?}");
            }
            let serial = eval_reference(&polys, &vals, &guard).expect("never trips");
            assert_eq!(serial.values, reference);
        }
    }

    /// A token cancelled before the batch starts stops every worker at
    /// its first claim — no row is evaluated — and the reference path at
    /// its one probe: both report `Interrupt::Cancelled`.
    #[test]
    fn cancelled_token_stops_workers_at_the_claim() {
        let (polys, vals) = setup(12);
        let compiled = CompiledPolySet::compile(&polys);
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::unlimited().with_cancel(token);
        for threads in [1, 3] {
            let run = eval(
                compiled.view(),
                &vals,
                &EvalOptions::new().threads(threads),
                &guard,
            );
            assert_eq!(run.interrupted, Some(Interrupt::Cancelled));
            assert_eq!(run.values.len(), vals.len());
            assert!(run.values.iter().all(Vec::is_empty), "no chunk may run");
            assert!(matches!(
                run.into_result(),
                Err(ExecError::Interrupted(Interrupt::Cancelled))
            ));
        }
        assert_eq!(
            eval_reference(&polys, &vals, &guard).unwrap_err(),
            ExecError::Interrupted(Interrupt::Cancelled)
        );
    }

    /// A cancellation raised mid-batch stops within one chunk per worker:
    /// with single-scenario chunks and a token tripped by the first
    /// evaluation, strictly fewer rows complete than the batch holds.
    #[test]
    fn mid_batch_cancellation_stops_within_a_chunk() {
        let (polys, vals) = setup(64);
        let token = CancelToken::new();
        let guard = Guard::unlimited().with_cancel(token.clone());
        let (values, panics, interrupted) = run_chunked(
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
        assert_eq!(resolved_chunk(100, 4, Kernel::Scalar), 7); // ceil(100/16)
        assert_eq!(resolved_chunk(100, 4, Kernel::Generic), 16); // 7 chunks for 4 workers
        assert_eq!(resolved_chunk(0, 1, Kernel::Scalar), 1);
        assert_eq!(resolved_chunk(32, 2, Kernel::Avx2), 16);
        assert_eq!(resolved_chunk(8, 2, Kernel::Avx2), 4);
        assert_eq!(resolved_chunk(256, 1, Kernel::Avx2), 64);
        assert_eq!(resolved_chunk(64, 2, Kernel::Avx2), 16);
        let reference = EvalOptions::serial_reference();
        assert!(!reference.compiled && opts.compiled);
    }
}
