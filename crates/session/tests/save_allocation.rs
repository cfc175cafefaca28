//! What a save may allocate: the artifact's two column sections are
//! written from the columns the session already holds, each checksummed
//! as it goes out (ADR 020), so a save allocates its small sections and
//! the header — not a second copy of either poly-set. And what a sweep
//! may allocate per point: a builder lowers its poly-set once, and its
//! clones share that lowering (ADR 021).
//!
//! A counting `#[global_allocator]` needs the process to itself, so this
//! binary holds exactly one test.

use provabs_datagen::scale::{scale_forest, scale_working_set, ScaleConfig};
use provabs_engine::query::GroupedProvenanceInterned;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::VarTable;
use provabs_session::{SessionBuilder, Strategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes ever allocated.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic only. `realloc`
// is the trait's default (alloc + copy + dealloc), so a buffer that grows
// counts its new size each time.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATED.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn saving_the_scale_fixture_allocates_under_one_percent_of_the_artifact() {
    // The paper's 128 plans over 150 groups: ≈ 207 000 monomials, a
    // 3 MB artifact.
    let config = ScaleConfig {
        groups: 150,
        plans: 128,
        ..ScaleConfig::default()
    };
    let mut vars = VarTable::new();
    let working = scale_working_set(&config, &mut vars);
    let forest = scale_forest(&config, &mut vars);
    let bound = working.size_m() * 35 / 100;
    let provenance = GroupedProvenanceInterned {
        keys: Vec::new(),
        working,
    };
    let session = SessionBuilder::from_query_interned(provenance, vars)
        .forest(forest)
        .strategy(Strategy::Greedy)
        .bound(bound)
        .build()
        .expect("valid");
    session.compress().expect("attainable");
    // A serving session holds both lowerings: the abstracted one from its
    // first ask, the original one from its first speedup report.
    let names = session.abstracted_labels().expect("compressed");
    let scenarios: Vec<_> = (0..4)
        .map(|i| provabs_scenario::Scenario::random(&names, 0.6, i))
        .collect();
    session
        .speedup_report(&scenarios, 1, session.eval_options())
        .expect("known names");
    session
        .ask_prepared(&[Valuation::neutral()])
        .expect("compressed");
    let compiled = session.compile_count();
    assert_eq!(compiled, 2, "both sides lowered before the save");

    let path =
        std::env::temp_dir().join(format!("provabs-save-alloc-{}.pvabs", std::process::id()));
    let before = ALLOCATED.load(Relaxed);
    session.save(&path).expect("save");
    let allocated = ALLOCATED.load(Relaxed) - before;
    let artifact = std::fs::metadata(&path).expect("saved").len() as usize;
    std::fs::remove_file(&path).ok();

    assert_eq!(session.compile_count(), compiled, "a save never lowers");
    assert!(
        artifact > 2 << 20,
        "the fixture is the scale one: {artifact} B"
    );
    assert!(
        allocated * 100 < artifact,
        "saving a {artifact} B artifact allocated {allocated} B"
    );
    drop(session);

    // A sweep point is `builder.clone().bound(b).build()`: the clone
    // shares the arena and term columns `new` lowered, so it costs the
    // variable table, not a second copy of the provenance.
    let mut vars = VarTable::new();
    let polys = scale_working_set(&config, &mut vars).to_polyset();
    let before = ALLOCATED.load(Relaxed);
    let builder = SessionBuilder::new(polys, vars);
    let lowered = ALLOCATED.load(Relaxed) - before;
    let before = ALLOCATED.load(Relaxed);
    let point = builder.clone().bound(bound);
    let cloned = ALLOCATED.load(Relaxed) - before;
    drop((builder, point));
    assert!(
        cloned * 100 < lowered,
        "cloning a builder allocated {cloned} B; lowering its provenance {lowered} B"
    );
}
