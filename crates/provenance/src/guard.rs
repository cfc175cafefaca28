//! Guarded execution: deadlines, step budgets, cooperative cancellation
//! and panic containment for the long-running pipeline stages.
//!
//! The paper's setting is *interactive* hypothetical reasoning — an
//! analyst (or, soon, a server handling many of them) poses a bound and
//! expects an answer at interactive speed. That requires every
//! long-running loop in the pipeline to be *boundable*: a compression
//! run must honour a wall-clock deadline, a scenario batch must stop
//! soon after its request is cancelled, and one misbehaving worker must
//! not take the process down.
//!
//! The pieces:
//!
//! * [`Budget`] — a declarative limit: an optional wall-clock deadline
//!   and an optional step cap. [`Budget::unlimited`] is the identity.
//! * [`CancelToken`] — a shareable (`Arc<AtomicBool>`) cooperative
//!   cancellation flag; clone it, hand one side to the worker, trip the
//!   other from anywhere.
//! * [`Guard`] — a budget + an optional token, the thing loops carry.
//!   [`Guard::checkpoint`] hands out a [`Checkpoint`] probe whose
//!   [`Checkpoint::tick`] is cheap enough to call once per selection
//!   step: the cancel flag is a relaxed atomic load, and after the
//!   first tick the `Instant::now()` call is amortised over
//!   [`TIME_CHECK_PERIOD`] ticks, so guarded loops stay within ~2 % of
//!   unguarded ones.
//! * [`Interrupt`] / [`Completion`] — the typed outcomes. Loops that
//!   can stop early *gracefully* (every greedy prefix is a sound, just
//!   larger, abstraction) report [`Completion::Interrupted`]; loops
//!   that cannot return partial answers surface the [`Interrupt`] as an
//!   error.
//! * [`run_isolated`] / [`panic_message`] — the shared panic-isolation
//!   seam: a worker closure runs under `catch_unwind` and a panic comes
//!   back as a rendered payload instead of aborting the process.
//!
//! A guard is always an argument: no environment variable or ambient
//! setting supplies one (ADR 025).

use std::panic::{catch_unwind, AssertUnwindSafe, UnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`Checkpoint::tick`]s pass between `Instant::now()` calls.
///
/// A clock read costs tens of nanoseconds — comparable to a whole
/// greedy selection step on small instances — so the probe only reads
/// it every this-many ticks. The worst-case deadline overshoot is
/// therefore `TIME_CHECK_PERIOD` steps, well under a millisecond on
/// every loop this crate guards.
pub const TIME_CHECK_PERIOD: u64 = 64;

/// A declarative execution limit: optional wall-clock deadline plus an
/// optional cap on the number of checkpointed steps.
///
/// A `Budget` is inert data; combine it with an optional
/// [`CancelToken`] into a [`Guard`] to enforce it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    step_cap: Option<u64>,
}

impl Budget {
    /// No limits at all — guarded code runs exactly like unguarded code.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget that expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Budget {
            deadline: Instant::now().checked_add(timeout),
            step_cap: None,
        }
    }

    /// A budget allowing at most `steps` checkpointed steps.
    ///
    /// Deterministic (no clock involved), which is what the anytime-
    /// prefix property tests are built on.
    pub fn with_steps(steps: u64) -> Self {
        Budget {
            deadline: None,
            step_cap: Some(steps),
        }
    }
}

/// A shareable cooperative-cancellation flag.
///
/// Clones share one underlying `Arc<AtomicBool>`: hand a clone to the
/// running side, keep one, and [`CancelToken::cancel`] from any thread.
/// Guarded loops observe the flag at their next [`Checkpoint::tick`]
/// (or, in the batch executor, at the next chunk claim).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a guarded run stopped before finishing its work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock deadline in the [`Budget`] passed.
    DeadlineExpired,
    /// The step cap in the [`Budget`] was exhausted.
    StepCapExhausted,
    /// The attached [`CancelToken`] was tripped.
    Cancelled,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::DeadlineExpired => write!(f, "deadline expired"),
            Interrupt::StepCapExhausted => write!(f, "step budget exhausted"),
            Interrupt::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// How a guarded compression run ended.
///
/// Compression loops are *anytime*: every prefix of the merge sequence
/// is a sound (just larger) abstraction, so an interrupted run still
/// returns its best-so-far state — tagged with this, never discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// The run finished on its own terms.
    Complete,
    /// The guard tripped mid-run; the accompanying result is the valid
    /// state reached so far.
    Interrupted {
        /// Why the run was stopped.
        reason: Interrupt,
        /// Selection/merge steps completed before the interruption.
        steps: usize,
        /// The monomial count (`|𝒫'|_M`) the run had reached.
        size_reached: usize,
    },
}

impl Completion {
    /// True for [`Completion::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// The more-interrupted of two completions: `Complete` is the
    /// identity, and any interruption wins over it. Used when a run has
    /// several guarded stages (e.g. online sampling around an inner
    /// solve) and must report the stage that tripped.
    #[must_use]
    pub fn merge(self, other: Completion) -> Completion {
        match self {
            Completion::Complete => other,
            interrupted => interrupted,
        }
    }
}

/// Live counters a [`Guard`] accumulates across the runs it supervises.
///
/// Shared (atomics) so the many loops one guard is threaded through can
/// all bump them without coordination; read back via
/// [`Guard::checkpoints_hit`] and surfaced as `Session::run_stats()`.
#[derive(Debug, Default)]
struct GuardCounters {
    checkpoints: AtomicU64,
}

/// An enforced execution limit: a [`Budget`] plus an optional
/// [`CancelToken`], carried by reference through every guarded loop.
///
/// `Guard` is cheap to construct per run and shareable across the
/// worker threads of one run (`&Guard` is `Sync`).
#[derive(Clone, Debug, Default)]
pub struct Guard {
    budget: Budget,
    cancel: Option<CancelToken>,
    counters: Arc<GuardCounters>,
}

impl Guard {
    /// A guard enforcing `budget`, with no cancellation token.
    pub fn new(budget: Budget) -> Self {
        Guard {
            budget,
            ..Guard::default()
        }
    }

    /// A guard with no limits — guarded code behaves exactly like
    /// unguarded code (the property suite asserts bit-identical output).
    pub fn unlimited() -> Self {
        Guard::default()
    }

    /// Attaches a cancellation token (a clone; trip either side).
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// One immediate check, outside any loop: has the guard tripped?
    pub fn probe(&self) -> Result<(), Interrupt> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// Starts a per-loop probe. Call [`Checkpoint::tick`] once per
    /// selection step; the expensive checks are amortised inside.
    pub fn checkpoint(&self) -> Checkpoint<'_> {
        Checkpoint {
            guard: self,
            ticks: 0,
            flushed: 0,
        }
    }

    /// Total [`Checkpoint::tick`] calls recorded against this guard
    /// (across all loops and clones sharing its counters).
    pub fn checkpoints_hit(&self) -> u64 {
        self.counters.checkpoints.load(Ordering::Relaxed)
    }
}

/// A per-loop probe handed out by [`Guard::checkpoint`].
///
/// [`Checkpoint::tick`] is designed to sit inside a hot selection loop:
/// a counter bump, a relaxed atomic load for the cancel flag, and a
/// clock read only on the first tick and every [`TIME_CHECK_PERIOD`]
/// ticks.
#[derive(Debug)]
pub struct Checkpoint<'g> {
    guard: &'g Guard,
    ticks: u64,
    /// Ticks already folded into the guard's shared counters.
    flushed: u64,
}

impl Checkpoint<'_> {
    /// Counts one step and reports whether the guard has tripped.
    ///
    /// Step caps are exact (checked every tick, deterministically); the
    /// wall-clock deadline is checked on the first tick and then every
    /// [`TIME_CHECK_PERIOD`] ticks.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Interrupt> {
        self.ticks += 1;
        let guard = self.guard;
        if let Some(token) = &guard.cancel {
            if token.is_cancelled() {
                self.flush();
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(cap) = guard.budget.step_cap {
            if self.ticks > cap {
                self.flush();
                return Err(Interrupt::StepCapExhausted);
            }
        }
        if let Some(deadline) = guard.budget.deadline {
            // The first tick reads the clock too, so a deadline that
            // expired before the loop started stops it before any work.
            if (self.ticks == 1 || self.ticks.is_multiple_of(TIME_CHECK_PERIOD))
                && Instant::now() >= deadline
            {
                self.flush();
                return Err(Interrupt::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// Steps ticked on this probe so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    fn flush(&mut self) {
        self.guard
            .counters
            .checkpoints
            .fetch_add(self.ticks - self.flushed, Ordering::Relaxed);
        self.flushed = self.ticks;
    }
}

impl Drop for Checkpoint<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Renders a `catch_unwind` payload into the human-readable message the
/// typed worker-panic errors carry.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panic isolation: a panic inside `f` is caught and
/// returned as its rendered message instead of unwinding further.
///
/// This is the single containment seam shared by the scenario batch
/// executor and the brute-force scoring threads — anything that fans
/// work out to threads funnels worker panics through here so they come
/// back as typed errors, never a process abort. The panic hook is left
/// in place, so the payload's origin still reaches stderr for
/// debugging.
pub fn run_isolated<T>(f: impl FnOnce() -> T + UnwindSafe) -> Result<T, String> {
    catch_unwind(f).map_err(|payload| panic_message(payload.as_ref()))
}

/// [`run_isolated`] for closures capturing `&mut` state.
///
/// The executor's chunk workers mutate their output slots in place; if
/// such a closure panics the slot contents are unspecified but the slot
/// itself stays structurally valid (it is plain `Vec<f64>` data), and
/// the caller discards the whole batch on error — which is what makes
/// asserting unwind safety sound here.
pub fn run_isolated_mut<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let guard = Guard::unlimited();
        assert!(guard.probe().is_ok());
        let mut cp = guard.checkpoint();
        for _ in 0..10_000 {
            assert!(cp.tick().is_ok());
        }
        assert_eq!(cp.ticks(), 10_000);
        drop(cp);
        assert_eq!(guard.checkpoints_hit(), 10_000);
    }

    #[test]
    fn step_cap_trips_exactly_after_the_cap() {
        let guard = Guard::new(Budget::with_steps(5));
        let mut cp = guard.checkpoint();
        for _ in 0..5 {
            assert_eq!(cp.tick(), Ok(()));
        }
        assert_eq!(cp.tick(), Err(Interrupt::StepCapExhausted));
    }

    #[test]
    fn deadline_trips_within_the_amortisation_window() {
        let guard = Guard::new(Budget::with_deadline(Duration::from_millis(0)));
        let mut cp = guard.checkpoint();
        let mut tripped = None;
        for i in 1..=2 * TIME_CHECK_PERIOD {
            if cp.tick().is_err() {
                tripped = Some(i);
                break;
            }
        }
        assert_eq!(
            tripped,
            Some(1),
            "an already-expired deadline must trip before the first step"
        );
        // And probe() sees it immediately, without amortisation.
        assert_eq!(guard.probe(), Err(Interrupt::DeadlineExpired));
    }

    #[test]
    fn cancel_token_is_shared_across_clones_and_seen_first() {
        let token = CancelToken::new();
        // Cancellation outranks an exhausted step cap at the same tick.
        let guard = Guard::new(Budget::with_steps(0)).with_cancel(token.clone());
        token.cancel();
        assert!(token.is_cancelled());
        let mut cp = guard.checkpoint();
        assert_eq!(cp.tick(), Err(Interrupt::Cancelled));
        assert_eq!(guard.probe(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn completion_merge_keeps_the_interruption() {
        let int = Completion::Interrupted {
            reason: Interrupt::Cancelled,
            steps: 3,
            size_reached: 17,
        };
        assert_eq!(Completion::Complete.merge(int), int);
        assert_eq!(int.merge(Completion::Complete), int);
        assert!(Completion::Complete.is_complete());
        assert!(!int.is_complete());
    }

    #[test]
    fn isolation_renders_str_string_and_opaque_payloads() {
        assert_eq!(run_isolated(|| 7), Ok(7));
        assert_eq!(
            run_isolated(|| panic!("static message")),
            Err("static message".to_string())
        );
        let err = run_isolated(|| panic!("rendered {}", 42)).unwrap_err();
        assert_eq!(err, "rendered 42");
        let err = run_isolated(|| std::panic::panic_any(1234i32)).unwrap_err();
        assert_eq!(err, "non-string panic payload");
        let mut state = vec![1];
        let err = run_isolated_mut(|| {
            state.push(2);
            panic!("mid-mutation")
        })
        .unwrap_err();
        assert_eq!(err, "mid-mutation");
    }
}
