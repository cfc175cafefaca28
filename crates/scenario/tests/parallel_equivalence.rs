//! The executor's slices of the evaluation matrix that carry a name of
//! their own: inline, pooled and auto on every kernel, empty batches and
//! single scenarios on many threads all answer the hash map's bits (the
//! rows are [`Cell`]s compiled in the hash map's order; the executor axis
//! of `eval_matrix` sweeps the same values over every lowering).

use provabs_provenance::guard::Guard;
use provabs_scenario::apply::apply_batch;
use provabs_scenario::executor::eval_reference;
use provabs_testkit::matrix::{cases, pairs, sweep, Cell, Executor, Lowering, EXECUTORS, KERNELS};

/// The executor — `eval_block`, inline, pooled on 2–5 threads, auto — on
/// every kernel request produces the serial hash-map loop's bits.
#[test]
fn all_engines_agree_bit_for_bit() {
    let rows = pairs(&EXECUTORS, &KERNELS);
    sweep(21, &rows, |cell, (executor, kernel)| {
        *cell = Cell {
            executor,
            kernel,
            lowering: Lowering::Compile,
            ..*cell
        };
    });
}

/// An empty batch answers no rows through every executor and kernel, and
/// through `apply_batch` and the executor's serial reference.
#[test]
fn empty_batch_is_empty_everywhere() {
    let rows = pairs(&EXECUTORS, &KERNELS);
    sweep(22, &rows, |cell, (executor, kernel)| {
        *cell = Cell {
            executor,
            kernel,
            len: 0,
            ..*cell
        };
    });
    cases(22, |cell, rng, context| {
        let polys = cell.shape().draw(&mut rng.clone());
        let applied = apply_batch(&polys, &[]).values;
        assert!(applied.is_empty(), "{context}: apply_batch");
        let serial = eval_reference(&polys, &[], &Guard::unlimited()).expect("unlimited");
        assert!(serial.values.is_empty(), "{context}: eval_reference");
    });
}

/// One scenario forced through pools of 2–5 and 8 threads (the pool
/// clamps to the job count) still answers the hash map's bits.
#[test]
fn single_scenario_many_threads() {
    let pools = [2, 3, 4, 5, 8].map(Executor::Pooled);
    sweep(23, &pools, |cell, executor| {
        *cell = Cell {
            executor,
            len: 1,
            lowering: Lowering::Compile,
            ..*cell
        };
    });
}
