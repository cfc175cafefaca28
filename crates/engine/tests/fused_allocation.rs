//! What the fused pipeline is for, as a test: the telephony revenue query
//! never holds its join intermediate.
//!
//! A counting `#[global_allocator]` needs the process to itself, so this
//! binary holds exactly one test.

use provabs_datagen::telephony;
use provabs_provenance::var::VarTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes live now, the most ever live, and every byte ever handed out.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics only. `realloc`
// is the trait's default (alloc + copy + dealloc), so it is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
            ALLOCATED.fetch_add(layout.size(), Relaxed);
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

/// Runs `f`; returns its result, the peak of live bytes over the bytes
/// live when it started, and the bytes it allocated in total.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (live, allocated) = (LIVE.load(Relaxed), ALLOCATED.load(Relaxed));
    PEAK.store(live, Relaxed);
    let out = f();
    (
        out,
        PEAK.load(Relaxed) - live,
        ALLOCATED.load(Relaxed) - allocated,
    )
}

#[test]
fn the_revenue_query_never_holds_its_join_intermediate() {
    let before = LIVE.load(Relaxed);
    let data = telephony::generate(telephony::TelephonyConfig {
        customers: 4_000,
        ..telephony::TelephonyConfig::default()
    });
    let source_bytes = LIVE.load(Relaxed) - before;
    let calls = data.catalog.get("Calls").expect("registered").len();
    // Cust ⋈ Calls ⋈ Plans before the month equality: twelve plan rows
    // per call, nine columns each — what the eager engine materialised.
    let intermediate_bytes = calls * 12 * 9 * std::mem::size_of::<provabs_engine::Value>();

    let mut vars = VarTable::new();
    let ((spec, first), peak, first_allocated) = measured(|| {
        let spec = telephony::revenue_spec(&data);
        let (pipeline, cols, measure, rules) = &spec;
        let grouped = pipeline
            .aggregate_sum_interned(cols, measure, rules, &mut vars)
            .expect("aggregation is well-typed");
        (spec, grouped)
    });
    // What is still live is what was asked for — the plan with its two
    // join indexes, and the emitted working set.
    let kept_bytes = LIVE.load(Relaxed) - before - source_bytes;
    assert!(first.working.size_m() > 10_000, "the query did its work");
    let bound = source_bytes + kept_bytes;
    assert!(
        peak <= bound,
        "peak {peak} B over {source_bytes} B of tables and {kept_bytes} B kept"
    );
    assert!(
        intermediate_bytes > 10 * bound,
        "a {intermediate_bytes} B join intermediate would not fit under {bound} B"
    );

    // The second aggregation probes the indexes the first one built: it
    // allocates less than the first by at least the Calls index's row
    // ids alone.
    let (pipeline, cols, measure, rules) = &spec;
    let (second, _, second_allocated) = measured(|| {
        pipeline
            .aggregate_sum_interned(cols, measure, rules, &mut vars)
            .expect("aggregation is well-typed")
    });
    assert_eq!(second.working.size_m(), first.working.size_m());
    assert!(
        second_allocated + calls * std::mem::size_of::<usize>() <= first_allocated,
        "first {first_allocated} B, second {second_allocated} B, {calls} indexed rows"
    );
}
