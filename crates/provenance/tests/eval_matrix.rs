//! The evaluation matrix: every way this workspace evaluates a poly-set,
//! one row at a time, against one reference per relation.
//!
//! A row ([`Cell`], in the test kit) is a value on each of seven axes,
//! the load path an eighth. Each `#[test]` sweeps one axis across all of
//! its values and draws the others from the shared generator, so a
//! failure names its axis and its cell:
//!
//! | axis | values | relation |
//! |------|--------|----------|
//! | kernel | `Generic`, `Avx2`, `Auto` | [`bits_equal`] |
//! | executor | `eval_block`; the executor inline, pooled on 2–5 threads, auto | [`bits_equal`] |
//! | batch length | every cascade boundary ([`CASCADE_LENGTHS`]) | [`bits_equal`]; a prefix answers as that prefix |
//! | index width | `u16`, `u32` (over 65 536 variables) | [`bits_equal`] |
//! | layout | uniform degree 2 and 3 (the constant instantiations), 0, 1 and 5; mixed ends | [`bits_equal`] |
//! | powers | none, sparse (`2`, `3`, `7`), dense `1..=6` and `1..=11` | [`bits_equal`] |
//! | lowering | `compile`, `freeze`, `freeze` of integers, `from_compiled` ∘ `freeze` | see [`Lowering`] |
//! | load path | the saver, its set frozen afresh, `Session::open`, `Session::open_mapped`, the opened `working()` frozen | [`bits_equal`]; [`close`] for a rebuild that reorders a run |
//!
//! Two references, one per relation: every answer a row computes is held
//! to its lowering's scalar sweep, [`CompiledPolySet::eval_one`], bit for
//! bit, and that sweep to the hash map by its lowering's relation (see
//! [`provabs_testkit::matrix`]). The load path has its own reference, the
//! session that saved.

use provabs_provenance::compiled::CompiledPolySet;
use provabs_provenance::guard::Guard;
use provabs_scenario::apply::apply_batch;
use provabs_scenario::executor::{eval_reference, EvalOptions};
use provabs_session::{Session, SessionBuilder, Strategy};
use provabs_testkit::matrix::{
    cases, sweep, wide_rows, Answers, Cell, Executor, Lowering, CASCADE_LENGTHS, EXECUTORS,
    KERNELS, LAYOUTS, LOWERINGS, POWERS,
};
use provabs_testkit::{attainable_bound, bits_equal, close, random_forest, runs, Shape, TempFile};

#[test]
fn kernel_axis() {
    sweep(1, &KERNELS, |cell, kernel| cell.kernel = kernel);
}

#[test]
fn executor_axis() {
    sweep(2, &EXECUTORS, |cell, executor| cell.executor = executor);
}

/// Every cascade length, and each batch's answers are the first rows of
/// the longest one's: the same poly-set, the batch drawn scenario by
/// scenario, so a shorter batch is a prefix of a longer one.
#[test]
fn batch_length_axis() {
    cases(3, |cell, rng, context| {
        let answers: Vec<Answers> = CASCADE_LENGTHS
            .into_iter()
            .map(|len| Cell { len, ..cell }.check(&mut rng.clone(), context))
            .collect();
        let whole = answers.last().expect("lengths");
        for part in &answers {
            let context = format!("{context}: {cell:?}, a {}-prefix", part.len());
            bits_equal(&whole[..part.len()], part, &context);
        }
    });
}

/// Narrow on every case; wide on one case per layout, on every kernel
/// ([`wide_rows`]).
#[test]
fn index_width_axis() {
    cases(4, |cell, rng, context| {
        cell.check(&mut rng.clone(), context);
    });
    wide_rows(4);
}

#[test]
fn layout_axis() {
    sweep(5, &LAYOUTS, |cell, layout| cell.layout = layout);
}

#[test]
fn powers_axis() {
    sweep(6, &POWERS, |cell, powers| cell.powers = powers);
}

/// Every lowering against the hash map, with the hash map's other
/// routes — `apply_batch` and the executor's serial reference — and the
/// compiled set's bridge back to a poly-set on the way.
#[test]
fn lowering_axis() {
    sweep(7, &LOWERINGS, |cell, lowering| cell.lowering = lowering);
    cases(7, |cell, rng, context| {
        let mut rng = rng.clone();
        let shape = Cell {
            lowering: Lowering::Compile,
            ..cell
        }
        .shape();
        let polys = shape.draw(&mut rng);
        let batch = shape.batch(&mut rng, 8, cell.len);
        let hash: Answers = batch.iter().map(|val| val.eval_set(&polys)).collect();
        bits_equal(&hash, &apply_batch(&polys, &batch).values, context);
        let serial = eval_reference(&polys, &batch, &Guard::unlimited()).expect("unlimited");
        bits_equal(&hash, &serial.values, context);
        let compiled = CompiledPolySet::compile(&polys);
        bits_equal(&hash, &compiled.eval_all(&batch), context);
        let bridged = compiled.to_polyset();
        assert_eq!(bridged.as_slice(), polys.as_slice(), "{context}: bridge");
        assert_eq!(compiled.num_monomials(), polys.size_m(), "{context}");
        assert_eq!(compiled.num_vars(), polys.size_v(), "{context}");
    });
}

/// Every load path against the session that saved — its working set
/// frozen afresh, `Session::open`, `Session::open_mapped`, and each
/// opened session's `working()` (rebuilt by `WorkingSet::from_compiled`)
/// frozen and asked: a greedy session on one to three trees (or the
/// identity) over forest-compatible poly-sets, the saver asked with the
/// row's kernel and threads.
///
/// A rebuilt working set renumbers its monomials in column order. Where
/// that keeps every run's order — always for the identity, whose ids
/// follow first occurrence — it answers bit for bit; where a merge left
/// a run whose ids the column walk meets out of order, its sums are taken
/// in another order, and it answers within 1e-12.
#[test]
fn load_path_axis() {
    let mut reordered = 0;
    cases(8, |cell, rng, context| {
        let mut rng = rng.clone();
        let context = format!("{context}: {cell:?}");
        let shape = Shape {
            vars: 18,
            pools: 3,
            powers: cell.powers,
            ..Shape::default()
        };
        let polys = shape.draw(&mut rng);
        let trees = 1 + rng.below(3) as usize;
        let (vars, forest) = random_forest(shape.vars, 3, trees, rng.next_u64());
        let opts = match cell.executor {
            Executor::Pooled(threads) => EvalOptions::new().threads(threads),
            _ => EvalOptions::new().threads(1),
        };
        let saver = SessionBuilder::new(polys.clone(), vars.clone())
            .forest(forest.clone())
            .strategy(rng.pick(&[Strategy::Greedy, Strategy::None]))
            .bound(attainable_bound(&polys, &vars, &forest))
            .eval_options(opts.kernel(cell.kernel))
            .build()
            .expect("valid");
        saver.compress().expect("attainable");
        let batch = Shape {
            vars: saver.vars().len() as u32,
            ..shape
        }
        .batch(&mut rng, 12, cell.len);
        let want = saver.ask_prepared(&batch).expect("compressed").values;
        let run = |session: &Session| {
            let frozen = session.working().expect("compressed").freeze();
            cell.run(&frozen, &batch)
        };
        bits_equal(&want, &run(&saver), &format!("{context}, in memory"));
        let file = TempFile::new("eval-matrix");
        saver.save(&file.0).expect("save");
        let opened = [Session::open(&file.0), Session::open_mapped(&file.0)];
        for (path, opened) in ["owned", "mapped"].into_iter().zip(opened) {
            let opened = opened.expect("opens");
            let context = format!("{context}, {path}");
            let got = opened.ask_prepared(&batch).expect("compressed").values;
            bits_equal(&want, &got, &context);
            assert_eq!(opened.compile_count(), 0, "{context}: no compile");
            let rebuilt = run(&opened);
            let context = format!("{context}, from_compiled");
            let [saved, rebuilt_from] =
                [&saver, &opened].map(|s| runs(s.working().expect("compressed")));
            if saved == rebuilt_from {
                bits_equal(&want, &rebuilt, &context);
            } else {
                reordered += 1;
                close(1e-12, &want, &rebuilt, &context);
            }
        }
    });
    assert!(reordered > 0, "no rebuild reordered a run");
}
