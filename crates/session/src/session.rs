//! The compress-once / ask-many session.
//!
//! [`Session`] owns the whole pipeline state an analyst loop needs: the
//! original provenance, the abstraction forest, the chosen strategy and
//! size target, and — after [`Session::compress`] — the selection outcome
//! ([`AbstractionResult`]) together with the abstracted provenance `𝒫↓S`
//! in the pipeline's *interned currency*: a
//! [`WorkingSet`] over the
//! shared monomial arena, produced directly by the compression algorithms
//! (no hash-map poly-set is ever materialised on this path). The columnar
//! [`CompiledPolySet`] the evaluator runs on is *frozen* out of that
//! arena lazily, by the first evaluation that wants it. Every subsequent
//! [`ask`](Session::ask) / [`ask_prepared`](Session::ask_prepared) /
//! [`speedup_report`](Session::speedup_report) /
//! [`accuracy_report`](Session::accuracy_report) serves off those caches:
//! compression runs once, freezing runs at most once per side
//! (abstracted + original), and the steady state is pure evaluation —
//! observable through [`Session::compile_count`] and
//! [`Session::intern_stats`].
//!
//! A session is *shared, not locked*: every method takes `&self`, the
//! session is `Send + Sync`, and any number of threads may ask one
//! session at once. The compress-once state and both lazy lowerings live
//! in once-cells (whoever gets there first builds, everyone else waits
//! for that one build and then reads), the counters are atomics, and a
//! [`Guard`] is something a call is *given*: the argument-free spellings
//! run unlimited, and a bounded call passes its own.
//!
//! A session holds its provenance in one form, the interned one. A
//! hash-map [`PolySet`] is an *input* format, lowered into the arena once
//! by [`SessionBuilder::new`](crate::SessionBuilder::new) and dropped, and
//! an explicit *bridge* out for interop and the hash-map diagnostics
//! ([`Session::original`], [`Session::abstracted`],
//! [`Session::equivalence_error`], the `EvalOptions::serial_reference`
//! path). Every bridge materialisation is counted in
//! [`InternStats::polyset_materializations`] — a full query → compress →
//! ask run on the default engine performs zero of them.

pub use crate::artifact::ArtifactOrigin;
use crate::artifact::{decode_live_vars, decode_meta, encode_live_vars, encode_meta, SessionMeta};
use crate::error::Error;
use crate::strategy::Strategy;
use provabs_core::competitor::pairwise_summarize;
use provabs_core::greedy::{greedy_frontier, greedy_vvs};
use provabs_core::online::{online_compress, Solver};
use provabs_core::optimal::{optimal_frontier, optimal_vvs};
use provabs_core::problem::{evaluate_vvs, prepare, AbstractionResult, InternedAbstraction};
use provabs_provenance::compiled::{CompiledPolySet, CompiledView};
use provabs_provenance::fxhash::FxHashSet;
use provabs_provenance::guard::{Completion, Guard};
use provabs_provenance::persist::{
    decode_var_table, encode_var_table, section, ArtifactWriter, FaultFs, RawArtifact,
    SharedCompiled,
};
use provabs_provenance::polyset::PolySet;
use provabs_provenance::simd::KernelInfo;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use provabs_scenario::accuracy::{coarse_valuation, error_stats, ErrorReport};
use provabs_scenario::apply::TimedRun;
use provabs_scenario::executor::{eval, eval_reference, EvalOptions};
use provabs_scenario::scenario::Scenario;
use provabs_scenario::speedup::{
    max_equivalence_error_prepared, measure_alternating, SpeedupReport,
};
use provabs_trees::cut::Vvs;
use provabs_trees::forest::Forest;
use provabs_trees::persist::{decode_forest, decode_vvs, encode_forest, encode_vvs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The interning observability snapshot — sibling of
/// [`Session::compile_count`], returned by [`Session::intern_stats`].
///
/// The tentpole invariant of the interned pipeline: a full
/// query → compress → ask run on the default (compiled) engine keeps
/// `polyset_materializations == 0` — provenance is interned exactly once,
/// at emission or ingest, and flows as dense ids from compression into
/// evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternStats {
    /// Hash-map [`PolySet`] materialisations the session performed — each
    /// one a deliberate bridge out of the interned currency
    /// ([`Session::original`] / [`Session::abstracted`] accessors,
    /// hash-map evaluation paths). Zero on the hot path.
    pub polyset_materializations: usize,
    /// Distinct monomials in the abstracted working set's arena (0 before
    /// [`Session::compress`]). The session compacts that arena once,
    /// straight after compression, so this is the count of distinct
    /// monomials live in `𝒫↓S` — the monomials a run rewrote away are
    /// gone. A session opened from an artifact
    /// reports the count its saver stored (`SESSION_META`), without
    /// rebuilding the working set.
    pub arena_monomials: usize,
    /// Whether the provenance was supplied already interned (engine
    /// emission) rather than as a poly-set lowered at ingest.
    pub interned_source: bool,
}

/// The guarded-execution observability snapshot — fifth sibling of
/// [`Session::compile_count`], [`Session::intern_stats`],
/// [`Session::kernel_info`] and [`Session::artifact_info`], returned by
/// [`Session::run_stats`].
///
/// The robustness invariant it observes: guarded work always ends in a
/// *typed* state — [`Completion::Complete`] when the guard never
/// tripped, [`Completion::Interrupted`] (with the best-so-far
/// abstraction still installed and answering) when it did. Never a hang,
/// never an abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Guard checkpoints the session's one compression ticked (its
    /// selection steps), whichever guard it ran under; 0 before
    /// [`Session::compress`] and for a session opened from an artifact.
    pub checkpoints_hit: u64,
    /// Cumulative wall-clock time spent inside compression and the
    /// `ask*` evaluation batches.
    pub elapsed: Duration,
    /// How compression ended: [`Completion::Complete`], or
    /// [`Completion::Interrupted`] with the reason, the selection steps
    /// done, and the size the anytime prefix reached.
    /// [`Completion::Complete`] before [`Session::compress`] runs.
    pub completion: Completion,
}

/// A compiled lowering the evaluator can run on: either owned columns
/// frozen in this process, or validated ranges into an opened artifact's
/// byte image ([`SharedCompiled`] — zero columns copied). Both present
/// the same [`CompiledView`] to every engine, which is what makes opened
/// sessions answer bit-for-bit identically with `compile_count() == 0`.
enum CompiledHandle {
    /// Frozen / compiled in this process.
    Owned(CompiledPolySet<f64>),
    /// Resliced from an opened artifact (owned buffer or memory map).
    Shared(SharedCompiled),
}

impl CompiledHandle {
    fn view(&self) -> CompiledView<'_, f64> {
        match self {
            CompiledHandle::Owned(c) => c.view(),
            CompiledHandle::Shared(s) => s.view(),
        }
    }
}

/// Everything [`Session::compress`] caches — written once, read-only
/// afterwards (the lazy members are once-cells of their own).
struct CompressedState {
    /// The selection outcome: chosen VVS, cleaned forest, size measures.
    result: AbstractionResult,
    /// How the run ended (see [`RunStats`]).
    completion: Completion,
    /// Checkpoints the run ticked on its guard (see [`RunStats`]).
    checkpoints_hit: u64,
    /// The abstracted provenance `𝒫↓S` in interned form: what
    /// [`Session::compress`] produced, or — in a session opened from an
    /// artifact — rebuilt from the stored columns by the first path that
    /// needs it (bridges, re-freezing; never the ask path).
    working: OnceLock<WorkingSet<f64>>,
    /// Distinct monomials of `working`, known without rebuilding it.
    arena_monomials: usize,
    /// The variables that actually occur in `working` — the space coarse
    /// scenarios are validated against.
    live_vars: FxHashSet<VarId>,
    /// Columnar lowering, built lazily by the first evaluation whose
    /// options ask for the compiled path — or installed directly (and
    /// zero-copy) when the session was opened from an artifact.
    compiled: OnceLock<CompiledHandle>,
    /// Bridge: the hash-map materialisation of `working`, built lazily
    /// (and counted) only when a caller explicitly needs a [`PolySet`].
    abstracted: OnceLock<PolySet<f64>>,
}

impl CompressedState {
    fn working(&self) -> &WorkingSet<f64> {
        self.working.get_or_init(|| {
            let columns = self.compiled.get().expect("opened with its columns");
            WorkingSet::from_compiled(columns.view())
        })
    }
}

/// A stateful compress-once / ask-many handle over the pipeline.
///
/// Built by [`SessionBuilder`](crate::SessionBuilder); see the
/// [crate docs](crate) for the full workflow and the mapping to the
/// low-level API.
pub struct Session {
    /// Original provenance, hash-map form: a bridge, built lazily (and
    /// counted) only when a caller explicitly needs a [`PolySet`].
    polys: OnceLock<PolySet<f64>>,
    /// Original provenance, interned form: present from construction, or
    /// — in a session opened from an artifact — rebuilt from the stored
    /// columns by the first path that needs it.
    source: OnceLock<WorkingSet<f64>>,
    vars: VarTable,
    forest: Forest,
    strategy: Strategy,
    bound: usize,
    opts: EvalOptions,
    /// The unlimited guard the argument-free spellings run under, built
    /// once: its counters are where their compression's ticks land.
    unlimited: Guard,
    /// Filled by the one compression that runs (or at open).
    compressed: OnceLock<CompressedState>,
    /// Serialises the fallible fill of `compressed` (the stable
    /// `OnceLock` has no `get_or_try_init`): a failed or panicked
    /// compression leaves the cell empty and the next call retries.
    compressing: Mutex<()>,
    /// Columnar lowering of the *original* provenance: built lazily by
    /// the first measurement that evaluates the uncompressed side, or the
    /// artifact's own columns when the session was opened from one.
    original_compiled: OnceLock<CompiledHandle>,
    /// Bumped inside the two lowering cells' init closures, so each side
    /// counts exactly once under any interleaving.
    compile_count: AtomicUsize,
    /// Bridge materialisations, counted inside their cells' closures too.
    materializations: AtomicUsize,
    interned_source: bool,
    /// Where the compiled state came from (computed here vs opened from
    /// a saved artifact) — see [`Session::artifact_info`].
    origin: ArtifactOrigin,
    /// Nanoseconds accumulated by compression and asks (see [`RunStats`]).
    run_elapsed_ns: AtomicU64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("num_trees", &self.forest.num_trees())
            .field("strategy", self.strategy())
            .field("bound", &self.bound)
            .field("opts", &self.opts)
            .field("compressed", &self.compressed.get().is_some())
            .field("compile_count", &self.compile_count())
            .field("intern_stats", &self.intern_stats())
            .field("kernel_info", &self.kernel_info())
            .field("artifact", &self.origin)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Assembles a validated session (builder-internal).
    pub(crate) fn from_parts(
        source: WorkingSet<f64>,
        interned_source: bool,
        vars: VarTable,
        forest: Forest,
        strategy: Strategy,
        bound: usize,
        opts: EvalOptions,
    ) -> Self {
        Self {
            polys: OnceLock::new(),
            source: OnceLock::from(source),
            vars,
            forest,
            strategy,
            bound,
            opts,
            unlimited: Guard::unlimited(),
            compressed: OnceLock::new(),
            compressing: Mutex::new(()),
            original_compiled: OnceLock::new(),
            compile_count: AtomicUsize::new(0),
            materializations: AtomicUsize::new(0),
            interned_source,
            origin: ArtifactOrigin::Computed,
            run_elapsed_ns: AtomicU64::new(0),
        }
    }

    /// The original provenance in interned form: the builder's, or
    /// rebuilt from an opened artifact's columns on first use.
    fn source_ws(&self) -> &WorkingSet<f64> {
        self.source.get_or_init(|| {
            let stored = self.original_compiled.get().expect("opened");
            WorkingSet::from_compiled(stored.view())
        })
    }

    /// Runs the configured selection algorithm once and caches the
    /// outcome together with the abstracted provenance in interned form;
    /// subsequent calls return the cached result without recomputing
    /// anything — the façade's "compress once". The columnar freeze is
    /// *not* built here but lazily by the first evaluation that wants it,
    /// so timing this call measures compression (selection + the id-space
    /// substitution producing `𝒫↓S`), not the evaluation engine's setup.
    ///
    /// Results are bit-for-bit identical to the corresponding low-level
    /// call (see [`Strategy`]); every strategy runs end-to-end in id
    /// space.
    ///
    /// This spelling runs unlimited; [`compress_with`](Self::compress_with)
    /// takes a guard per call.
    pub fn compress(&self) -> Result<&AbstractionResult, Error> {
        self.state(&self.unlimited).map(|state| &state.result)
    }

    /// [`compress`](Self::compress) under the caller's `guard` — how a
    /// server bounds one request with a fresh deadline and a cancellation
    /// token wired to its client. Also returns how the run ended: when
    /// the guard trips mid-run, the anytime engines (Greedy, Online,
    /// Competitor) install their best-so-far prefix — a sound, just
    /// larger, abstraction — and Optimal falls back to the identity
    /// abstraction, tagged [`Completion::Interrupted`] (and kept in
    /// [`run_stats`](Self::run_stats)).
    ///
    /// Compression runs once per session: concurrent first calls wait
    /// for the one that got there first, and every later call returns
    /// that run's result and completion whatever guard it passes.
    pub fn compress_with(&self, guard: &Guard) -> Result<(&AbstractionResult, Completion), Error> {
        let state = self.state(guard)?;
        Ok((&state.result, state.completion))
    }

    /// The compressed state, compressing first if no call has yet. The
    /// fill is serialised by `compressing`; a poisoned lock only means an
    /// earlier compression panicked and left the cell empty, which is the
    /// state a retry starts from.
    fn state(&self, guard: &Guard) -> Result<&CompressedState, Error> {
        if let Some(state) = self.compressed.get() {
            return Ok(state);
        }
        let _one_at_a_time = self
            .compressing
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = self.compressed.get() {
            return Ok(state);
        }
        let started = Instant::now();
        let ticked_before = guard.checkpoints_hit();
        let (mut interned, completion) = self.select(guard)?;
        // What is kept, frozen and saved from here on is `𝒫↓S` alone:
        // not the monomials the run rewrote away, nor its rewrite buffers.
        interned.working.compact();
        let state = CompressedState {
            result: interned.result,
            completion,
            checkpoints_hit: guard.checkpoints_hit() - ticked_before,
            arena_monomials: interned.working.arena().len(),
            live_vars: interned.live_vars,
            working: OnceLock::from(interned.working),
            compiled: OnceLock::new(),
            abstracted: OnceLock::new(),
        };
        self.add_elapsed(started.elapsed());
        Ok(self.compressed.get_or_init(|| state))
    }

    /// Dispatches the configured strategy to its one low-level entry
    /// point.
    fn select(&self, guard: &Guard) -> Result<(InternedAbstraction<f64>, Completion), Error> {
        Ok(match self.strategy {
            Strategy::Optimal => optimal_vvs(self.source_ws(), &self.forest, self.bound, guard)?,
            Strategy::Greedy => greedy_vvs(self.source_ws(), &self.forest, self.bound, guard)?,
            Strategy::Online { fraction, seed } => {
                let (outcome, completion) = online_compress(
                    self.source_ws(),
                    &self.forest,
                    self.bound,
                    fraction,
                    seed,
                    Solver::Greedy,
                    guard,
                )?;
                (outcome.full, completion)
            }
            Strategy::Competitor => {
                let (interned, _, completion) =
                    pairwise_summarize(self.source_ws(), &self.forest, self.bound, guard)?;
                (interned, completion)
            }
            Strategy::None => {
                let (cleaned, live) = prepare(self.source_ws(), &self.forest)?;
                let vvs = Vvs::identity(&cleaned);
                (
                    evaluate_vvs(self.source_ws().clone(), &cleaned, vvs, live.len()),
                    Completion::Complete,
                )
            }
        })
    }

    /// Answers a batch of named scenarios against the compressed
    /// provenance (compressing first if [`compress`](Self::compress) has
    /// not run yet). `values[s][p]` is the value of polynomial `p` under
    /// scenario `s`. On the default engine the whole path stays in the
    /// interned currency: the cached working set is frozen into its
    /// columnar form once (on the first call) and every batch is pure
    /// evaluation — zero recompilation, zero [`PolySet`]
    /// materialisations (see [`intern_stats`](Self::intern_stats)).
    ///
    /// Runs unlimited on the session's
    /// [`eval_options`](Self::eval_options); [`ask_with`](Self::ask_with)
    /// takes both per call.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownVariable`] if a scenario names a variable the
    /// session has never seen; [`Error::VariableNotInAbstraction`] if it
    /// names one that compression merged away (valuating it would
    /// silently change nothing — use the
    /// [`abstracted_labels`](Self::abstracted_labels), or
    /// [`accuracy_report`](Self::accuracy_report) for fine-grained
    /// questions); any compression error from the first call.
    pub fn ask(&self, scenarios: &[Scenario]) -> Result<TimedRun, Error> {
        self.ask_with(scenarios, &self.opts, &self.unlimited)
    }

    /// [`ask`](Self::ask) for already-built valuations: skips name
    /// validation and interning entirely — the zero-overhead steady state
    /// for callers that keep their own valuation cache.
    pub fn ask_prepared(&self, valuations: &[Valuation<f64>]) -> Result<TimedRun, Error> {
        let state = self.state(&self.unlimited)?;
        self.eval_compressed(state, valuations, &self.opts, &self.unlimited)
            .inspect(|run| self.add_elapsed(run.elapsed))
    }

    /// [`ask`](Self::ask) under a one-off engine configuration and the
    /// caller's guard. `opts` may be e.g.
    /// [`EvalOptions::serial_reference`], to time the paper-faithful
    /// hash-map loop against the session's default engine (that loop
    /// needs the hash-map bridge, which is then built once and cached);
    /// when `opts` asks for the compiled path and the session has not
    /// frozen yet, the freeze happens once and is cached for every
    /// future call. Whatever the guard, the batch runs on the one
    /// executor: cancellation and deadlines stop it within one chunk
    /// claim per worker ([`Error::Cancelled`]) and a panicking scenario
    /// is isolated and pinned ([`Error::WorkerPanic`]) while the rest of
    /// the batch completes; an unlimited guard never trips and costs two
    /// `Option` checks per chunk.
    pub fn ask_with(
        &self,
        scenarios: &[Scenario],
        opts: &EvalOptions,
        guard: &Guard,
    ) -> Result<TimedRun, Error> {
        let state = self.state(guard)?;
        let valuations = self.valuations(scenarios, Some(&state.live_vars))?;
        self.eval_compressed(state, &valuations, opts, guard)
            .inspect(|run| self.add_elapsed(run.elapsed))
    }

    /// Pinned by `benchmark/`; use [`ask_with`](Self::ask_with).
    #[doc(hidden)]
    pub fn ask_with_options(
        &self,
        scenarios: &[Scenario],
        opts: &EvalOptions,
    ) -> Result<TimedRun, Error> {
        self.ask_with(scenarios, opts, &self.unlimited)
    }

    /// Measures the assignment-time speedup of the session's abstraction
    /// (Figure 10's quantity) on the engine configuration `opts` — pass
    /// [`eval_options`](Self::eval_options) for the session's own, or a
    /// one-off like [`EvalOptions::serial_reference`], which is how
    /// Figure 10 compares the paper-faithful serial loop with the
    /// production engine off one shared compression. The scenario batch
    /// is posed on the compressed provenance directly and on the original
    /// through [`Vvs::lift_valuation`], alternating measurement order
    /// across `repeat` repetitions (the shared [`measure_alternating`]
    /// core). Both sides run under an unlimited guard off the cached
    /// lowerings (each side is frozen / compiled lazily on first use,
    /// then cached) — repeated reports never recompile. A scenario that
    /// panics still comes back typed; the report stops at the first one.
    pub fn speedup_report(
        &self,
        scenarios: &[Scenario],
        repeat: usize,
        opts: &EvalOptions,
    ) -> Result<SpeedupReport, Error> {
        let state = self.state(&self.unlimited)?;
        let coarse = self.valuations(scenarios, Some(&state.live_vars))?;
        let lifted: Vec<Valuation<f64>> = coarse
            .iter()
            .map(|v| state.result.vvs.lift_valuation(&state.result.forest, v))
            .collect();
        measure_alternating(
            repeat,
            || Ok(self.eval_original(&lifted, opts)?.elapsed),
            || {
                Ok(self
                    .eval_compressed(state, &coarse, opts, &self.unlimited)?
                    .elapsed)
            },
        )
    }

    /// Pinned by `benchmark/`; use [`speedup_report`](Self::speedup_report).
    #[doc(hidden)]
    pub fn speedup_report_with(
        &self,
        scenarios: &[Scenario],
        repeat: usize,
        opts: &EvalOptions,
    ) -> Result<SpeedupReport, Error> {
        self.speedup_report(scenarios, repeat, opts)
    }

    /// Quantifies the accuracy cost of answering a *fine* scenario (over
    /// original variables) through the compressed provenance: each chosen
    /// meta-variable is set to the mean of its group's fine values (the
    /// low-level [`coarse_valuation`] construction), and the approximate
    /// answers are compared with the exact ones ([`error_stats`]), both
    /// sides served off the session's cached lowerings.
    pub fn accuracy_report(&self, fine: &Scenario) -> Result<ErrorReport, Error> {
        let state = self.state(&self.unlimited)?;
        let fine_val = self
            .valuations(std::slice::from_ref(fine), None)?
            .pop()
            .expect("one scenario in, one valuation out");
        let coarse = [coarse_valuation(&state.result, &fine_val)];
        let exact = self
            .eval_original(std::slice::from_ref(&fine_val), &self.opts)?
            .values
            .pop()
            .unwrap_or_default();
        let approx = self
            .eval_compressed(state, &coarse, &self.opts, &self.unlimited)?
            .values
            .pop()
            .unwrap_or_default();
        Ok(error_stats(&exact, &approx))
    }

    /// The semantic sanity check behind every speedup comparison: the
    /// maximal relative deviation between evaluating the compressed
    /// provenance under the given coarse scenarios and evaluating the
    /// original under their liftings (should be float noise). Delegates
    /// to [`max_equivalence_error_prepared`], which runs the hash-map
    /// reference evaluator on both sides — the session bridges its cached
    /// interned `𝒫↓S` once for it (a deliberate, counted
    /// materialisation; this is a diagnostic, not the ask hot path).
    pub fn equivalence_error(&self, scenarios: &[Scenario]) -> Result<f64, Error> {
        let state = self.state(&self.unlimited)?;
        let coarse = self.valuations(scenarios, Some(&state.live_vars))?;
        Ok(max_equivalence_error_prepared(
            self.original(),
            self.abstracted_bridge(state),
            &state.result,
            &coarse,
        ))
    }

    /// The size/granularity trade-off frontier of the session's forest:
    /// `(|𝒫↓S|_M, |𝒫↓S|_V)` points from the identity abstraction down to
    /// full compression. Dispatches on the strategy —
    /// [`Strategy::Optimal`] runs the exact single-tree
    /// [`optimal_frontier`], everything else traces the greedy run
    /// ([`greedy_frontier`]).
    ///
    /// The trace runs under `guard`, and a frontier is only meaningful
    /// whole: a tripped guard is [`Error::Cancelled`], not a truncated
    /// trace.
    pub fn frontier(&self, guard: &Guard) -> Result<Vec<(usize, usize)>, Error> {
        let (points, completion) = match self.strategy {
            Strategy::Optimal => optimal_frontier(self.source_ws(), &self.forest, guard)?,
            _ => greedy_frontier(self.source_ws(), &self.forest, guard)?,
        };
        match completion {
            Completion::Complete => Ok(points),
            Completion::Interrupted { reason, .. } => Err(Error::Cancelled(reason)),
        }
    }

    /// The hash-map bridge for the abstracted side, built at most once
    /// per session and counted.
    fn abstracted_bridge<'a>(&self, state: &'a CompressedState) -> &'a PolySet<f64> {
        state.abstracted.get_or_init(|| {
            self.materializations.fetch_add(1, Ordering::Relaxed);
            state.working().to_polyset()
        })
    }

    /// The columnar lowering of the abstracted side: frozen out of the
    /// working set by the first caller, counted once.
    fn compressed_columns<'a>(&self, state: &'a CompressedState) -> &'a CompiledHandle {
        state.compiled.get_or_init(|| {
            self.compile_count.fetch_add(1, Ordering::Relaxed);
            CompiledHandle::Owned(state.working().freeze())
        })
    }

    /// The columnar lowering of the original side: frozen out of the
    /// interned source by the first caller, counted once (a session
    /// opened from an artifact holds the stored columns and never builds
    /// one).
    fn original_columns(&self) -> &CompiledHandle {
        self.original_compiled.get_or_init(|| {
            self.compile_count.fetch_add(1, Ordering::Relaxed);
            CompiledHandle::Owned(self.source_ws().freeze())
        })
    }

    /// One evaluation batch on the compressed side: the executor over the
    /// frozen columns, or — when `opts` asks for the serial reference —
    /// the hash-map loop over the bridge. Only the lowering the batch
    /// runs on is ever built.
    fn eval_compressed(
        &self,
        state: &CompressedState,
        valuations: &[Valuation<f64>],
        opts: &EvalOptions,
        guard: &Guard,
    ) -> Result<TimedRun, Error> {
        Ok(if opts.compiled {
            let columns = self.compressed_columns(state).view();
            eval(columns, valuations, opts, guard).into_result()?
        } else {
            eval_reference(self.abstracted_bridge(state), valuations, guard)?
        })
    }

    /// [`eval_compressed`](Self::eval_compressed) for the original
    /// (uncompressed) side, under an unlimited guard: the two reports are
    /// its only callers (ADR 014).
    fn eval_original(
        &self,
        valuations: &[Valuation<f64>],
        opts: &EvalOptions,
    ) -> Result<TimedRun, Error> {
        let guard = &self.unlimited;
        Ok(if opts.compiled {
            let columns = self.original_columns().view();
            eval(columns, valuations, opts, guard).into_result()?
        } else {
            eval_reference(self.original(), valuations, guard)?
        })
    }

    /// Accounts `took` to [`RunStats::elapsed`].
    fn add_elapsed(&self, took: Duration) {
        self.run_elapsed_ns
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Resolves named scenarios into valuations over any variable this
    /// session has interned — provenance variables and forest labels
    /// alike. A *coarse* scenario is additionally held to `live`, the
    /// variables that occur in the compressed provenance: valuating any
    /// other would silently change nothing (both the compressed
    /// evaluation and the lifted original drop it).
    fn valuations(
        &self,
        scenarios: &[Scenario],
        live: Option<&FxHashSet<VarId>>,
    ) -> Result<Vec<Valuation<f64>>, Error> {
        scenarios
            .iter()
            .map(|s| {
                let mut val = Valuation::neutral();
                for (name, factor) in s.iter() {
                    let id = self
                        .vars
                        .lookup(name)
                        .ok_or_else(|| Error::UnknownVariable(name.to_string()))?;
                    if live.is_some_and(|live| !live.contains(&id)) {
                        return Err(Error::VariableNotInAbstraction(name.to_string()));
                    }
                    val.assign(id, factor);
                }
                Ok(val)
            })
            .collect()
    }

    /// The original provenance `𝒫` as a hash-map poly-set — the interop
    /// bridge, like [`abstracted`](Self::abstracted): built at most once,
    /// counted in [`intern_stats`](Self::intern_stats).
    /// [`original_size`](Self::original_size) answers "how big" without.
    pub fn original(&self) -> &PolySet<f64> {
        self.polys.get_or_init(|| {
            self.materializations.fetch_add(1, Ordering::Relaxed);
            self.source_ws().to_polyset()
        })
    }

    /// `(polynomials, |𝒫|_M, |𝒫|_V)` of the original provenance, read off
    /// whichever form the session already holds — the interned source or
    /// an opened artifact's columns — never through a bridge.
    pub fn original_size(&self) -> (usize, usize, usize) {
        match self.source.get() {
            Some(source) => (source.num_polys(), source.size_m(), source.size_v()),
            None => {
                let view = self.original_columns().view();
                (view.num_polys(), view.num_monomials(), view.num_vars())
            }
        }
    }

    /// The abstraction forest as configured (the *cleaned* forest the
    /// chosen VVS refers to lives in [`AbstractionResult::forest`]).
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The session's variable table.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// The configured strategy — the one compression runs (or ran) with.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The resolved size bound `B`.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The default engine configuration: what [`ask`](Self::ask) and the
    /// other argument-free spellings evaluate with.
    pub fn eval_options(&self) -> &EvalOptions {
        &self.opts
    }

    /// The cached selection outcome, if [`compress`](Self::compress) has
    /// run.
    pub fn result(&self) -> Option<&AbstractionResult> {
        self.compressed.get().map(|s| &s.result)
    }

    /// The cached abstracted provenance `𝒫↓S` in interned form, if
    /// [`compress`](Self::compress) has run — the representation every
    /// evaluation is derived from.
    pub fn working(&self) -> Option<&WorkingSet<f64>> {
        self.compressed.get().map(CompressedState::working)
    }

    /// The abstracted poly-set `𝒫↓S` as a hash-map materialisation, if
    /// [`compress`](Self::compress) has run. This is the interop bridge —
    /// built at most once, counted in
    /// [`intern_stats`](Self::intern_stats); evaluation paths never use
    /// it on the default engine.
    pub fn abstracted(&self) -> Option<&PolySet<f64>> {
        self.compressed.get().map(|s| self.abstracted_bridge(s))
    }

    /// Sorted labels of the abstracted variable space — the names
    /// scenarios are posed over after compression. `None` before
    /// [`compress`](Self::compress).
    pub fn abstracted_labels(&self) -> Option<Vec<String>> {
        self.compressed
            .get()
            .map(|s| s.result.vvs.labels(&s.result.forest))
    }

    /// How many times this session lowered provenance into a
    /// [`CompiledPolySet`] — the recompilation observability hook.
    /// Lowerings happen lazily, at most once per side: the first
    /// compiled-path evaluation freezes the abstracted arena (one), the
    /// first measurement touching the original side lowers that (one
    /// more), and repeated batches leave the count constant (zero
    /// throughout when the options disable the compiled path).
    pub fn compile_count(&self) -> usize {
        self.compile_count.load(Ordering::Relaxed)
    }

    /// The kernel-dispatch observability hook — sibling of
    /// [`compile_count`](Self::compile_count) and
    /// [`intern_stats`](Self::intern_stats): which evaluation kernel the
    /// session's [`EvalOptions`] request and which one batches actually
    /// run on after runtime dispatch (AVX2 where the CPU supports it,
    /// the portable lane kernel otherwise — see
    /// [`provabs_provenance::simd`]). One binary serves both kinds of
    /// machine; this is how a deployment observes which path it got.
    pub fn kernel_info(&self) -> KernelInfo {
        provabs_provenance::simd::kernel_info(self.opts.kernel)
    }

    /// The artifact-provenance observability hook — sibling of
    /// [`compile_count`](Self::compile_count) and
    /// [`intern_stats`](Self::intern_stats): whether this session's
    /// compiled state was computed in this process or opened from a
    /// saved artifact (and if so from which path, at which format
    /// version, over which load path). Also part of the session's
    /// `Debug` output.
    pub fn artifact_info(&self) -> &ArtifactOrigin {
        &self.origin
    }

    /// Saves the session's compiled state as a durable artifact at
    /// `path` (compressing first if [`compress`](Self::compress) has not
    /// run): a versioned, checksummed, little-endian container holding
    /// the variable table, both forests, the chosen VVS, the live
    /// variables and the frozen compiled columns of `𝒫↓S` and of `𝒫` —
    /// everything [`open`](Self::open) / [`open_mapped`](Self::open_mapped)
    /// need to answer scenarios bit-for-bit identically without ever
    /// recompressing or recompiling.
    ///
    /// The write is atomic (temp file + rename), so a crashed save never
    /// leaves a half-written artifact behind, and repeated saves of the
    /// same state write byte-identical files (all payloads are
    /// canonically ordered).
    ///
    /// # Errors
    ///
    /// Any compression error from the first call;
    /// [`Error::Persist`] for I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        self.save_with_faults(path, &FaultFs::disabled())
    }

    /// [`save`](Self::save) through an explicit fault-injection plan —
    /// the deterministic seam the durability proofs drive. Under *any*
    /// injected create/write/fsync/rename failure the artifact already
    /// at `path` survives bit-for-bit (the write goes to a temp file and
    /// publishes by atomic rename) and the failure surfaces as typed
    /// [`Error::Persist`] — never a torn file, never a panic; transient
    /// failures are retried with backoff. [`FaultFs::disabled`] makes
    /// this [`save`](Self::save).
    pub fn save_with_faults(&self, path: impl AsRef<Path>, faults: &FaultFs) -> Result<(), Error> {
        let state = self.state(&self.unlimited)?;
        let meta = SessionMeta {
            interned_source: self.interned_source,
            strategy: self.strategy,
            bound: self.bound,
            original_size_m: state.result.original_size_m,
            original_size_v: state.result.original_size_v,
            compressed_size_m: state.result.compressed_size_m,
            compressed_size_v: state.result.compressed_size_v,
            arena_monomials: state.arena_monomials,
        };
        // Each side is stored as the freeze of its working set, written
        // straight from its columns. Freezing is deterministic, so where
        // no cached lowering is that freeze an ad-hoc one writes the same
        // bytes — without counting as a session compilation or warming
        // the evaluation cache.
        let frozen_abstracted;
        let abstracted = match state.compiled.get() {
            Some(handle) => handle.view(),
            None => {
                frozen_abstracted = state.working().freeze();
                frozen_abstracted.view()
            }
        };
        let frozen_original;
        let original = match self.original_compiled.get() {
            Some(handle) => handle.view(),
            None => {
                frozen_original = self.source_ws().freeze();
                frozen_original.view()
            }
        };
        let mut w = ArtifactWriter::new();
        w.section(section::SESSION_META, encode_meta(&meta));
        w.section(section::VAR_TABLE, encode_var_table(&self.vars));
        w.section(section::FOREST_CONFIG, encode_forest(&self.forest));
        w.section(section::FOREST_CLEAN, encode_forest(&state.result.forest));
        w.section(
            section::VVS,
            encode_vvs(&state.result.vvs, state.result.forest.num_trees()),
        );
        w.section(section::LIVE_VARS, encode_live_vars(&state.live_vars));
        w.compiled_section(section::COMPILED_ABS, abstracted);
        w.compiled_section(section::COMPILED_ORIG, original);
        w.write_atomic_with(path.as_ref(), faults)?;
        Ok(())
    }

    /// Opens a session from an artifact saved by [`save`](Self::save),
    /// reading the file into an owned buffer. The opened session answers
    /// [`ask`](Self::ask) / [`ask_prepared`](Self::ask_prepared) batches
    /// bit-for-bit identically to the session that saved it, with
    /// [`compile_count`](Self::compile_count)` == 0`: the compiled
    /// columns are validated in place and resliced, never rebuilt.
    ///
    /// # Errors
    ///
    /// [`Error::Persist`] for I/O failures and for *any* malformed input
    /// — truncation, bit flips, oversized lengths, bad magic, future
    /// format versions all surface as typed errors, never a panic.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let path = path.as_ref();
        let art = RawArtifact::open(path)?;
        Self::open_impl(art, path)
    }

    /// [`open`](Self::open) over a read-only memory mapping — the
    /// zero-copy load path: the compiled columns the evaluator runs on
    /// are served straight from the page cache, so a warm restart
    /// touches only the pages it evaluates.
    ///
    /// The artifact must not be mutated in place while the session is
    /// alive ([`save`](Self::save) publishes by atomic rename, which is
    /// safe to run concurrently).
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<Self, Error> {
        let path = path.as_ref();
        let art = RawArtifact::open_mapped(path)?;
        Self::open_impl(art, path)
    }

    fn open_impl(art: RawArtifact, path: &Path) -> Result<Self, Error> {
        let meta = decode_meta(art.require(section::SESSION_META, "session meta")?)?;
        let vars = decode_var_table(art.require(section::VAR_TABLE, "variable table")?)?;
        let forest = decode_forest(
            art.require(section::FOREST_CONFIG, "configured forest")?,
            &vars,
            "configured forest",
        )?;
        let clean = decode_forest(
            art.require(section::FOREST_CLEAN, "cleaned forest")?,
            &vars,
            "cleaned forest",
        )?;
        let vvs = decode_vvs(art.require(section::VVS, "vvs")?, &clean, "vvs")?;
        let live_vars = decode_live_vars(
            art.require(section::LIVE_VARS, "live variables")?,
            vars.len(),
        )?;
        let compiled = SharedCompiled::validate(
            &art,
            section::COMPILED_ABS,
            "abstracted columns",
            vars.len(),
        )?;
        let original =
            SharedCompiled::validate(&art, section::COMPILED_ORIG, "original columns", vars.len())?;
        let result = AbstractionResult {
            forest: clean,
            vvs,
            original_size_m: meta.original_size_m,
            original_size_v: meta.original_size_v,
            compressed_size_m: meta.compressed_size_m,
            compressed_size_v: meta.compressed_size_v,
        };
        let origin = ArtifactOrigin::Opened {
            path: PathBuf::from(path),
            format_version: art.version(),
            mapped: art.is_mapped(),
        };
        Ok(Self {
            polys: OnceLock::new(),
            source: OnceLock::new(),
            vars,
            forest,
            strategy: meta.strategy,
            bound: meta.bound,
            opts: EvalOptions::new(),
            unlimited: Guard::unlimited(),
            compressed: OnceLock::from(CompressedState {
                result,
                completion: Completion::Complete,
                checkpoints_hit: 0,
                working: OnceLock::new(),
                arena_monomials: meta.arena_monomials,
                live_vars,
                compiled: OnceLock::from(CompiledHandle::Shared(compiled)),
                abstracted: OnceLock::new(),
            }),
            compressing: Mutex::new(()),
            original_compiled: OnceLock::from(CompiledHandle::Shared(original)),
            compile_count: AtomicUsize::new(0),
            materializations: AtomicUsize::new(0),
            interned_source: meta.interned_source,
            origin,
            run_elapsed_ns: AtomicU64::new(0),
        })
    }

    /// The guarded-execution observability hook — fifth sibling of
    /// [`compile_count`](Self::compile_count),
    /// [`intern_stats`](Self::intern_stats),
    /// [`kernel_info`](Self::kernel_info) and
    /// [`artifact_info`](Self::artifact_info). See [`RunStats`].
    pub fn run_stats(&self) -> RunStats {
        let state = self.compressed.get();
        RunStats {
            checkpoints_hit: state.map_or(0, |s| s.checkpoints_hit),
            elapsed: Duration::from_nanos(self.run_elapsed_ns.load(Ordering::Relaxed)),
            completion: state.map_or(Completion::Complete, |s| s.completion),
        }
    }

    /// The interning observability hook — sibling of
    /// [`compile_count`](Self::compile_count). See [`InternStats`].
    pub fn intern_stats(&self) -> InternStats {
        InternStats {
            polyset_materializations: self.materializations.load(Ordering::Relaxed),
            arena_monomials: self.compressed.get().map_or(0, |s| s.arena_monomials),
            interned_source: self.interned_source,
        }
    }
}
