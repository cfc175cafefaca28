//! What the fused pipeline and the columnar tables are for, as tests:
//! the telephony revenue query never holds its join intermediate, a
//! TPC-H catalog costs its columns and little more, and a string a
//! column has seen costs a code.
//!
//! The counting `#[global_allocator]` counts per thread, so each row
//! measures only the work of its own test thread, side by side with the
//! others.

use provabs_datagen::{telephony, tpch};
use provabs_engine::schema::{ColumnType, Schema};
use provabs_engine::table::Table;
use provabs_engine::value::Value;
use provabs_provenance::var::VarTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's bytes live now (what it allocated less what it
    /// freed), the most ever live, and every byte it was ever handed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics only, in
// thread-locals that need no allocation or destructor (`const`-initialised
// `Cell`s), and `try_with` skips them on a thread that is being torn down.
// `realloc` is the trait's default (alloc + copy + dealloc), so it is
// counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let size = layout.size();
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + size as isize);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
            let _ = ALLOCATED.try_with(|allocated| allocated.set(allocated.get() + size));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
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
    let (live, allocated) = (live(), ALLOCATED.with(Cell::get));
    PEAK.with(|peak| peak.set(live));
    let out = f();
    (
        out,
        (PEAK.with(Cell::get) - live) as usize,
        ALLOCATED.with(Cell::get) - allocated,
    )
}

#[test]
fn the_revenue_query_never_holds_its_join_intermediate() {
    let before = live();
    let data = telephony::generate(telephony::TelephonyConfig {
        customers: 4_000,
        ..telephony::TelephonyConfig::default()
    });
    let source_bytes = (live() - before) as usize;
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
    let kept_bytes = (live() - before) as usize - source_bytes;
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

#[test]
fn a_tpch_catalog_costs_its_columns() {
    let before = live();
    let data = tpch::generate(tpch::TpchConfig {
        scale: 1.0,
        ..tpch::TpchConfig::default()
    });
    let held = (live() - before) as usize;
    let lineitems = data.catalog.get("lineitem").expect("registered").len();
    assert!(lineitems > 5_000, "{lineitems} lineitem rows");
    // A lineitem row is four ints, two floats and two dictionary codes:
    // 56 B. Every other table together adds about a tenth of that.
    assert!(
        held <= 80 * lineitems,
        "{held} B held for {lineitems} lineitem rows: {} B a row",
        held / lineitems
    );
}

#[test]
fn a_string_the_column_has_seen_costs_nothing_to_push() {
    let mut table = Table::new(Schema::of(&[
        ("flag", ColumnType::Str),
        ("n", ColumnType::Int),
    ]));
    table.reserve(16);
    table
        .push(vec![Value::str("R"), Value::Int(0)])
        .expect("well-typed");
    let row = vec![Value::str("R"), Value::Int(1)];
    let ((), _, allocated) = measured(|| table.push(row).expect("well-typed"));
    assert_eq!(allocated, 0, "the push allocates nothing");
    // Nor is anything of the row kept: its `Vec` and its own copy of the
    // string go, the column keeps a code into its dictionary.
    let before = live();
    table
        .push(vec![Value::str("R"), Value::Int(2)])
        .expect("well-typed");
    assert_eq!(live(), before, "a row of a seen string leaves nothing live");
    assert_eq!(table.len(), 3);
}
