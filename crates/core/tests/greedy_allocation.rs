//! What the flat arena is for, as a test: emitting provenance and
//! compressing it allocate per run and per polynomial, never per
//! monomial — and the arena says truthfully how much heap it holds.
//!
//! A counting `#[global_allocator]` needs the process to itself, so this
//! binary holds exactly one test.

use provabs_core::greedy::greedy_vvs;
use provabs_datagen::scale::{scale_forest, scale_working_set, ScaleConfig};
use provabs_provenance::guard::Guard;
use provabs_provenance::intern::{MonoArena, MonoId};
use provabs_provenance::var::VarTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes live now, and every allocation ever made.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics only. `realloc`
// is the trait's default (alloc + copy + dealloc), so a buffer that grows
// counts as an allocation each time.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`; returns its result, the allocations it made, and the bytes
/// it left live.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (live, allocations) = (LIVE.load(Relaxed), ALLOCATIONS.load(Relaxed));
    let out = f();
    (
        out,
        ALLOCATIONS.load(Relaxed) - allocations,
        LIVE.load(Relaxed) - live,
    )
}

/// `estimated_bytes` of the arena `build` makes against what the
/// allocator handed out for it.
fn assert_honest(what: &str, build: impl FnOnce() -> MonoArena) {
    let (arena, _, held) = measured(build);
    let estimate = arena.estimated_bytes();
    assert!(
        estimate.abs_diff(held) * 100 <= held * 15,
        "{what}: estimated {estimate} B, holds {held} B"
    );
}

#[test]
fn compression_allocates_per_run_not_per_monomial() {
    let config = ScaleConfig::default();
    let mut vars = VarTable::new();
    let (source, emitting, _) = measured(|| scale_working_set(&config, &mut vars));
    let monomials = source.size_m();
    assert!(monomials > 20_000, "the fixture is the default one");
    assert!(
        emitting * 2 < monomials,
        "emission: {emitting} allocations for {monomials} monomials"
    );

    let forest = scale_forest(&config, &mut vars);
    let bound = monomials / 2;
    let guard = Guard::unlimited();
    let ((abs, _), compressing, _) =
        measured(|| greedy_vvs(&source, &forest, bound, &guard).expect("attainable"));
    assert!(
        abs.result.compressed_size_m <= bound,
        "the run did its work"
    );
    assert!(
        compressing * 2 < monomials,
        "greedy: {compressing} allocations for {monomials} monomials"
    );

    // A copy is sized exactly; an arena that grew holds slack; one a run
    // rewrote in holds the remainder memo as well.
    assert_honest("copied", || source.arena().clone());
    assert_honest("grown", || {
        let mut arena = MonoArena::new();
        for id in 0..source.arena().len() as MonoId {
            arena.intern_factors(source.arena().mono(id).as_factors());
        }
        arena
    });
    assert_honest("rewritten", || abs.working.arena().clone());
}
