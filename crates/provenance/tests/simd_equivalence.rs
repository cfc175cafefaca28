//! The kernel dispatcher's promises, and the kernel-side slices of the
//! evaluation matrix that carry a name of their own. That every kernel
//! answers as the scalar sweep does, bit for bit, is the matrix's kernel
//! axis (`eval_matrix`); the tests here pin the edge shapes — sparse and
//! squaring-range powers, ragged tails, empty and constant sets, both
//! factor-range layouts narrow and wide, the workloads' own provenance —
//! on every kernel, over the matrix's rows ([`Cell`]).

use provabs_datagen::workload::Workload;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::simd::{avx2_available, Kernel};
use provabs_provenance::working::WorkingSet;
use provabs_testkit::matrix::{
    cases, pairs, sweep, wide_rows, Answers, Cell, Layout, Lowering, CASCADE_LENGTHS, KERNELS,
    LAYOUTS,
};
use provabs_testkit::{bits_equal, fixture, Powers, Rng, Shape};

/// Resolution is deterministic within a process, `Avx2` really is the
/// AVX2 engine exactly when the CPU supports it, and a forced-available
/// kernel is what auto dispatch would pick on the fast path.
#[test]
fn forced_kernels_resolve_as_documented() {
    assert_eq!(Kernel::Scalar.resolve(), Kernel::Scalar);
    assert_eq!(Kernel::Generic.resolve(), Kernel::Generic);
    assert_eq!(Kernel::Auto.resolve(), Kernel::Auto.resolve());
    assert!(Kernel::Auto.resolve() != Kernel::Auto);
    if !avx2_available() {
        assert_eq!(Kernel::Avx2.resolve(), Kernel::Generic);
        assert_eq!(Kernel::Auto.resolve(), Kernel::Generic);
    } else {
        assert_eq!(Kernel::Avx2.resolve(), Kernel::Auto.resolve());
    }
}

/// Sparse powers (one factor in ten squared, cubed or raised to 7),
/// compiled and frozen, on every kernel.
#[test]
fn sparse_powers_match_eval_one() {
    let rows = pairs(&KERNELS, &[Lowering::Compile, Lowering::Freeze]);
    sweep(11, &rows, |cell, (kernel, lowering)| {
        *cell = Cell {
            kernel,
            lowering,
            powers: Powers::Sparse,
            ..*cell
        };
    });
}

/// Exponents through the unrolled 1/2/3 fast path into the squaring
/// range (`1..=11`) on negative and positive bases, on every kernel.
#[test]
fn squaring_range_exponents_agree() {
    sweep(12, &KERNELS, |cell, kernel| {
        *cell = Cell {
            kernel,
            powers: Powers::Dense(11),
            ..*cell
        };
    });
}

/// Every kernel at every batch length of the pass cascade: full wide
/// blocks, then narrow ones, the ragged tail on the scalar sweep.
#[test]
fn ragged_last_block_shapes() {
    let rows = pairs(&KERNELS, &CASCADE_LENGTHS);
    sweep(13, &rows, |cell, (kernel, len)| {
        *cell = Cell {
            kernel,
            len,
            ..*cell
        };
    });
}

/// The empty poly-set, in every lowering, answers every scenario with an
/// empty row on every kernel; the empty batch answers no rows at all.
#[test]
fn empty_polyset_and_empty_batch() {
    cases(14, |cell, rng, context| {
        let empty = cell.lower(&PolySet::new(), context);
        let batch = cell.shape().batch(&mut rng.clone(), 8, cell.len);
        for kernel in KERNELS {
            let cell = Cell { kernel, ..cell };
            let context = format!("{context}: {cell:?}");
            bits_equal(
                &vec![vec![]; batch.len()],
                &cell.run(&empty, &batch),
                &context,
            );
            bits_equal(&[], &cell.run(&empty, &[]), &context);
        }
    });
}

/// A set of constant monomials (uniform degree 0) answers its constants
/// — the hash map's values, bit for bit — in every scenario, whatever
/// the scenario assigns, on every kernel.
#[test]
fn constant_monomials_pass_through() {
    cases(15, |cell, rng, context| {
        for kernel in KERNELS {
            let cell = Cell {
                kernel,
                layout: Layout::Uniform(0),
                lowering: Lowering::Compile,
                ..cell
            };
            let answers = cell.check(&mut rng.clone(), context);
            let first = answers.first().cloned().unwrap_or_default();
            let context = format!("{context}: {cell:?}, scenario 0 against every other");
            bits_equal(&vec![first; answers.len()], &answers, &context);
        }
    });
}

/// Both factor-range layouts — one degree for the set (0, 1, 2, 3, 5) or
/// an end per monomial — on every kernel, held through the scalar sweep
/// to the hash map; narrow on every case, wide ([`wide_rows`]) on one
/// case per layout.
#[test]
fn both_layouts_match_the_hash_map_evaluator_on_every_kernel() {
    let rows = pairs(&LAYOUTS, &KERNELS);
    sweep(16, &rows, |cell, (layout, kernel)| {
        *cell = Cell {
            layout,
            kernel,
            ..*cell
        };
    });
    wide_rows(16);
}

/// The generated workloads' provenance at its real shapes — the supply
/// chain's monomials four factors wide, telephony's two, no powers —
/// frozen as a session freezes it, on every kernel at every cascade
/// length.
#[test]
fn workload_provenance_matches_eval_one_on_every_kernel() {
    for workload in [Workload::SupplyChain, Workload::Telephony] {
        let (data, _) = fixture(workload);
        let frozen = WorkingSet::from_polyset(&data.polys).freeze();
        let shape = Shape {
            vars: data.vars.len() as u32,
            ..Shape::default()
        };
        let mut rng = Rng::new(0xB0_0000 + data.vars.len() as u64);
        let batch = shape.batch(&mut rng, data.vars.len() / 3, CASCADE_LENGTHS[14]);
        let reference: Answers = batch.iter().map(|val| frozen.eval_one(val)).collect();
        for (kernel, len) in pairs(&KERNELS, &CASCADE_LENGTHS) {
            let got = frozen.eval_block(&batch[..len], kernel);
            let context = format!("{}: {kernel}, {len} scenarios", workload.name());
            bits_equal(&reference[..len], &got, &context);
        }
    }
}
