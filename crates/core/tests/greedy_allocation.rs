//! What the flat arena and the flat term runs are for, as a test:
//! emitting provenance and compressing it allocate per run and per
//! polynomial, never per monomial; a clone allocates nothing for what it
//! shares, and a run copies only what it writes and adds only the products
//! it keeps, neither it nor its compaction building or copying an
//! interning table; scoring interns nothing, and a rewrite or a scoring whose
//! buffers are warm allocates nothing; a term costs its id and its coefficient;
//! and the arena and the working set say truthfully how much heap they
//! hold.
//!
//! A counting `#[global_allocator]` needs the process to itself, so this
//! binary holds exactly one test.

use provabs_core::greedy::greedy_vvs;
use provabs_core::problem::{evaluate_vvs, prepare};
use provabs_datagen::scale::{scale_forest, scale_working_set, ScaleConfig};
use provabs_provenance::guard::Guard;
use provabs_provenance::intern::{MonoArena, MonoId};
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use provabs_trees::cut::Vvs;
use provabs_trees::tree::NodeId;
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

/// `estimated_bytes` of what `build` makes against what the allocator
/// handed out for it.
fn assert_honest<T>(what: &str, build: impl FnOnce() -> T, estimated_bytes: impl Fn(&T) -> usize) {
    let (built, _, held) = measured(build);
    let estimate = estimated_bytes(&built);
    assert!(
        estimate.abs_diff(held) * 100 <= held * 15,
        "{what}: estimated {estimate} B, holds {held} B"
    );
}

#[test]
fn compression_allocates_per_run_not_per_monomial() {
    let config = ScaleConfig::default();
    let mut vars = VarTable::new();
    let (mut source, emitting, _) = measured(|| scale_working_set(&config, &mut vars));
    let monomials = source.size_m();
    assert!(monomials > 20_000, "the fixture is the default one");
    assert!(
        emitting * 2 < monomials,
        "emission: {emitting} allocations for {monomials} monomials"
    );
    // The emitter appends distinct monomials and builds no interning
    // table; one lookup builds it, so that a run has one it could copy.
    let indexed = source.arena().len();
    assert_eq!(source.arena().indexed(), 0, "emission built a table");
    let first = source.arena().mono(0).to_monomial();
    assert_eq!(source.arena_mut().intern(&first), 0);
    assert_eq!(source.arena().indexed(), indexed);
    let source_bytes = source.estimated_bytes();

    // A clone shares its source's arena and columns: it allocates for
    // neither (a deep clone holds 100 % of the source), and measures what
    // its source measures.
    let (twin, _, cloned) = measured(|| source.clone());
    assert!(
        cloned * 100 < source_bytes,
        "a clone holds {cloned} B of a {source_bytes} B set"
    );
    assert_eq!(twin.estimated_bytes(), source_bytes);
    assert_eq!(
        twin.arena().estimated_bytes(),
        source.arena().estimated_bytes()
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

    // Every entry the run added is a product it kept, holding the variable
    // of a node it merged: a node of the cut, or one below it. (A scored
    // remainder — `z·p`, a month taken out — holds none.)
    let cut = &abs.result;
    let merged: Vec<VarId> = cut
        .vvs
        .nodes()
        .flat_map(|(ti, chosen)| {
            let tree = cut.forest.tree(ti);
            let below = move |n: &NodeId| !tree.is_leaf(*n) && tree.is_ancestor_or_self(chosen, *n);
            tree.node_ids().filter(below).map(|n| tree.var_of(n))
        })
        .collect();
    let (arena, before) = (abs.working.arena(), source.arena().len());
    assert!(arena.len() > before, "the run added entries");
    // It appended them: the source's table, which the run shares, was
    // never probed — a probe would have copied it and put them in.
    assert_eq!(arena.indexed(), indexed, "a greedy run probed the table");
    for id in before as MonoId..arena.len() as MonoId {
        assert!(
            arena.mono(id).vars().any(|v| merged.contains(&v)),
            "entry {id} of a greedy run holds no merged node's variable"
        );
    }

    // A run over a source that a live clone still shares starts as one
    // more sharer and copies only what it writes — the term columns — and
    // adds the products it derives, so the set it returns, uncompacted,
    // holds less than its source (a run over a deep copy holds the whole
    // source plus what it derived). Half-size runs derive almost half the
    // source again, so this one merges a quarter away.
    let quarter = monomials - monomials / 4;
    let ((mut quartered, _), _, returned) =
        measured(|| greedy_vvs(&source, &forest, quarter, &guard).expect("attainable"));
    assert!(
        returned < source_bytes,
        "greedy returned {returned} B over a {source_bytes} B source"
    );
    assert_eq!(quartered.working.arena().indexed(), indexed);
    // Its compaction appends the live entries into columns of their own
    // and builds no table.
    quartered.working.compact();
    assert_eq!(
        quartered.working.arena().indexed(),
        0,
        "compaction built a table"
    );
    assert!(quartered.working.arena().len() < source.arena().len());
    drop((twin, quartered));

    // An identity abstraction holds no second copy of its source: a
    // `Strategy::None` compress (`evaluate_vvs` of the identity, then the
    // session's `compact()`), and greedy's `bound ≥ |𝒫|_M` exit.
    let (none, _, none_held) = measured(|| {
        let (cleaned, live) = prepare(&source, &forest).expect("compatible");
        let vvs = Vvs::identity(&cleaned);
        let mut none = evaluate_vvs(source.clone(), &cleaned, vvs, live.len());
        none.working.compact();
        none
    });
    let (all, _, all_held) = measured(|| {
        let (mut all, _) = greedy_vvs(&source, &forest, monomials, &guard).expect("identity");
        all.working.compact();
        all
    });
    assert_eq!(none.working.size_m(), monomials);
    assert_eq!(all.working.size_m(), monomials);
    for (what, held) in [("none", none_held), ("bound ≥ |𝒫|_M", all_held)] {
        assert!(
            held * 100 < source_bytes,
            "{what}: an identity abstraction holds {held} B of a {source_bytes} B source"
        );
    }
    drop((none, all));

    // Scoring only reads: once its buffers are warm, scoring every
    // candidate of a shared clone allocates nothing, and the warm-up
    // allocates its buffers alone — the clone's arena neither grows nor
    // stops sharing its source's.
    let (cleaned, _) = prepare(&source, &forest).expect("compatible");
    let groups: Vec<Vec<VarId>> = cleaned
        .trees()
        .iter()
        .flat_map(|t| {
            let candidate =
                |n: &NodeId| !t.is_leaf(*n) && t.children(*n).iter().all(|&c| t.is_leaf(c));
            t.node_ids()
                .filter(candidate)
                .map(|n| t.children(n).iter().map(|&c| t.var_of(c)).collect())
        })
        .collect();
    let polys: Vec<usize> = (0..source.num_polys()).collect();
    let score = |ws: &mut WorkingSet<f64>| -> usize {
        groups.iter().map(|g| ws.ml_delta_of_group(g, &polys)).sum()
    };
    let mut scored = source.clone();
    let (saved, _, warming) = measured(|| score(&mut scored));
    let (again, allocations, _) = measured(|| score(&mut scored));
    assert!(saved > 0, "the candidates merge something");
    assert_eq!((again, allocations), (saved, 0), "a warm scoring allocated");
    assert_eq!(
        scored.arena().len(),
        source.arena().len(),
        "scoring interned"
    );
    let buffers = scored.estimated_bytes() - source_bytes;
    assert!(
        warming <= buffers,
        "scoring a clone holds {warming} B, its buffers {buffers} B"
    );
    drop(scored);

    // What an arena and a set say they hold is what the allocator handed
    // out: an arena that grew holds slack; one a run rewrote in holds a
    // derived tail as well (a run over a set built inside the
    // measurement, so that nothing it shares predates it).
    let arena_bytes = MonoArena::estimated_bytes;
    let grown_arena = || {
        let mut arena = MonoArena::new();
        for id in 0..source.arena().len() as MonoId {
            arena.intern_factors(source.arena().mono(id).as_factors());
        }
        arena
    };
    assert_honest("grown arena", grown_arena, arena_bytes);
    let grown_set = || {
        let mut ws = WorkingSet::with_capacity(grown_arena(), 0, 0);
        for pi in 0..source.num_polys() {
            ws.push_poly(source.poly_terms(pi).map(|(id, c)| (id, *c)));
        }
        ws
    };
    let rewritten = || {
        let own = grown_set();
        greedy_vvs(&own, &forest, bound, &guard)
            .expect("attainable")
            .0
            .working
    };
    assert_honest(
        "rewritten arena",
        || rewritten().arena().clone(),
        arena_bytes,
    );
    let set_bytes = WorkingSet::<f64>::estimated_bytes;
    assert_honest("grown set", grown_set, set_bytes);
    assert_honest("rewritten set", rewritten, set_bytes);

    // A term is an id and a coefficient in the columns — 12 B, and a span
    // per polynomial. (One hash map per polynomial costs twice that: a
    // per-polynomial map coming back fails here.) Built by `from_parts`
    // over a clone of the source's arena, which costs nothing itself.
    let (_, _, terms_held) = measured(|| {
        let runs: Vec<Vec<(MonoId, f64)>> = (0..source.num_polys())
            .map(|pi| source.poly_terms(pi).map(|(id, c)| (id, *c)).collect())
            .collect();
        WorkingSet::from_parts(source.arena().clone(), runs)
    });
    assert!(
        terms_held <= 13 * monomials,
        "{terms_held} B for the terms of {monomials} monomials"
    );

    // A rewrite allocates nothing once its buffers are warm and the
    // arena has what it derives. A full fixture makes every quarter the
    // same size; `first` applies two of them so that its arena holds
    // every product, `second` starts over on that arena.
    let full = ScaleConfig {
        groups: 8,
        fill_permille: 1000,
        ..config
    };
    let mut vars = VarTable::new();
    let mut first = scale_working_set(&full, &mut vars);
    let runs: Vec<Vec<(MonoId, f64)>> = (0..first.num_polys())
        .map(|pi| first.poly_terms(pi).map(|(id, c)| (id, *c)).collect())
        .collect();
    let month = |j: usize| vars.lookup(&format!("m{j}")).expect("interned");
    let quarters = [1, 4].map(|j| [month(j), month(j + 1), month(j + 2)]);
    let targets = [VarId(1 << 20), VarId(1 << 20 | 1)];
    let all: Vec<usize> = (0..first.num_polys()).collect();
    let rewrite = |ws: &mut WorkingSet<f64>, q: usize| {
        let saved = ws.ml_delta_of_group(&quarters[q], &all);
        ws.apply_group(&quarters[q], targets[q], &all);
        assert_eq!(saved, full.groups * full.plans * 2, "three months into one");
    };
    rewrite(&mut first, 0);
    rewrite(&mut first, 1);
    let mut second = WorkingSet::from_parts(first.arena().clone(), runs);
    rewrite(&mut second, 0);
    let (_, warm, _) = measured(|| rewrite(&mut second, 1));
    assert_eq!(warm, 0, "a warm rewrite allocated");
    assert_eq!(second.size_m(), first.size_m());
}
