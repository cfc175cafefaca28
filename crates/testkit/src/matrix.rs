//! The rows of the evaluation matrix: a [`Cell`] is a value on each of
//! seven axes, checked against one reference per relation.
//!
//! Every answer a row computes is held to its own lowering's scalar
//! sweep, [`CompiledPolySet::eval_one`], bit for bit: nothing an engine
//! does may reorder a sum. The scalar sweep in turn is held to the
//! hash-map definition, [`Valuation::eval_set`], by the relation its
//! [`Lowering`] declares — so a fault every engine of a lowering shares
//! (a factor range, an index width) still shows.
//!
//! `crates/provenance/tests/eval_matrix.rs` sweeps one axis a test; the
//! `simd_equivalence` and `parallel_equivalence` suites pin named slices
//! of the same rows.

use crate::{bits_equal, close, runs, Coeffs, Powers, Rng, Shape};
use provabs_provenance::compiled::CompiledPolySet;
use provabs_provenance::guard::Guard;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::VarId;
use provabs_provenance::working::WorkingSet;
use provabs_scenario::executor::{eval, EvalOptions, Kernel};

/// Cases each sweep draws (the proptest blocks the matrix replaced ran 96).
pub const CASES: u64 = 96;

/// Every kernel request: the forced kernels and the auto dispatcher.
pub const KERNELS: [Kernel; 3] = [Kernel::Generic, Kernel::Avx2, Kernel::Auto];

/// Batch lengths that cross every boundary of the pass cascade: scalar
/// only and the first narrow pass (0–5), the first wide pass (15–17), a
/// wide pass plus a narrow one (19–21) and two wide passes plus a narrow
/// one and a scalar tail (35–37).
pub const CASCADE_LENGTHS: [usize; 15] = [0, 1, 2, 3, 4, 5, 15, 16, 17, 19, 20, 21, 35, 36, 37];

/// A batch of scenarios.
pub type Batch = Vec<Valuation<f64>>;
/// One row of values per scenario.
pub type Answers = Vec<Vec<f64>>;

/// Who runs a batch.
#[derive(Clone, Copy, Debug)]
pub enum Executor {
    /// `eval_block` on the calling thread, no executor in between.
    Block,
    /// The executor on one thread.
    Inline,
    /// The executor's pool on this many threads.
    Pooled(usize),
    /// The executor, threads left to it.
    Auto,
}

/// Every executor the matrix sweeps.
pub const EXECUTORS: [Executor; 7] = [
    Executor::Block,
    Executor::Inline,
    Executor::Pooled(2),
    Executor::Pooled(3),
    Executor::Pooled(4),
    Executor::Pooled(5),
    Executor::Auto,
];

/// How a monomial's factor range is found.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    /// Every monomial has this many factors: one degree for the set.
    Uniform(usize),
    /// Monomials of this many factors and of one more: an end apiece.
    Mixed(usize),
}

/// Every layout the matrix sweeps: the constant instantiations (2, 3)
/// first, then the run-time degrees and mixed ends.
pub const LAYOUTS: [Layout; 9] = [
    Layout::Uniform(2),
    Layout::Uniform(3),
    Layout::Uniform(0),
    Layout::Uniform(1),
    Layout::Uniform(5),
    Layout::Mixed(0),
    Layout::Mixed(1),
    Layout::Mixed(2),
    Layout::Mixed(3),
];

/// Every exponent shape the matrix sweeps.
pub const POWERS: [Powers; 4] = [
    Powers::None,
    Powers::Sparse,
    Powers::Dense(6),
    Powers::Dense(11),
];

/// How a poly-set becomes columns, and the relation its scalar sweep
/// bears to the hash map.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Lowering {
    /// `CompiledPolySet::compile` keeps the hash map's order: bits.
    Compile,
    /// `WorkingSet::freeze` sums in ascending id order: within 1e-12.
    Freeze,
    /// `freeze` of integer coefficients under integer values, where
    /// every sum is exact whatever its order: bits.
    Exact,
    /// `freeze`, rebuilt by `WorkingSet::from_compiled` and frozen again:
    /// within 1e-12 of the hash map, and run for run the set it was
    /// rebuilt from — a first-occurrence lowering keeps its id order, so
    /// the rebuild sums as the set does.
    Rebuilt,
}

/// Every lowering the matrix sweeps.
pub const LOWERINGS: [Lowering; 4] = [
    Lowering::Compile,
    Lowering::Freeze,
    Lowering::Exact,
    Lowering::Rebuilt,
];

/// One row of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The kernel asked for.
    pub kernel: Kernel,
    /// Who runs the batch.
    pub executor: Executor,
    /// Scenarios in the batch.
    pub len: usize,
    /// A set over 70 000 variables, indexed four bytes wide.
    pub wide: bool,
    /// The factor-range layout.
    pub layout: Layout,
    /// The exponents.
    pub powers: Powers,
    /// How the set becomes columns.
    pub lowering: Lowering,
}

impl Cell {
    /// A row drawn at random on every axis but width: a wide set is slow
    /// to build in a debug build, so only [`wide_rows`] asks for one.
    pub fn draw(rng: &mut Rng) -> Self {
        Cell {
            kernel: rng.pick(&KERNELS),
            executor: rng.pick(&EXECUTORS),
            len: rng.pick(&CASCADE_LENGTHS),
            wide: false,
            layout: rng.pick(&LAYOUTS),
            powers: rng.pick(&POWERS),
            lowering: rng.pick(&LOWERINGS),
        }
    }

    /// The generator shape the row draws its poly-set and batch from.
    pub fn shape(&self) -> Shape {
        let d = match self.layout {
            Layout::Uniform(d) | Layout::Mixed(d) => d,
        };
        Shape {
            vars: if self.wide { 70_000 } else { 10 },
            arity: d..=d,
            powers: self.powers,
            coeffs: match self.lowering {
                Lowering::Exact => Coeffs::Integers,
                _ => Coeffs::Sixteenths,
            },
            wide: self.wide,
            ..Shape::default()
        }
    }

    /// Draws the row's poly-set and batch, checks its lowering against
    /// the hash map and its answers against the scalar sweep, and
    /// returns the answers.
    pub fn check(&self, rng: &mut Rng, context: &str) -> Answers {
        let (set, batch, reference) = self.prepare(rng, context);
        let got = self.run(&set, &batch);
        bits_equal(&reference, &got, &format!("{context}: {self:?}"));
        got
    }

    /// Draws the row's poly-set and batch, lowers the set and checks its
    /// layout, its index width and its scalar sweep — the reference the
    /// row's answers are held to, returned with the set and the batch.
    pub fn prepare(&self, rng: &mut Rng, context: &str) -> (CompiledPolySet<f64>, Batch, Answers) {
        let context = format!("{context}: {self:?}");
        let shape = self.shape();
        let mut polys = shape.draw(rng);
        if let Layout::Mixed(d) = self.layout {
            let mono = |n: usize| Monomial::from_factors((0..n as u32).map(|v| (VarId(v), 1)));
            let mut all = polys.as_slice().to_vec();
            all.push(Polynomial::from_terms([
                (mono(d), 1.5),
                (mono(d + 1), -0.75),
            ]));
            polys = PolySet::from_vec(all);
        }
        let assignments = if self.wide { 3_000 } else { 8 };
        let batch = shape.batch(rng, assignments, self.len);
        let set = self.lower(&polys, &context);

        let view = set.view();
        let degree = match self.layout {
            Layout::Uniform(d) if set.num_monomials() > 0 => Some(d),
            Layout::Uniform(_) => Some(0),
            Layout::Mixed(_) => None,
        };
        assert_eq!(view.uniform_degree(), degree, "{context}: layout");
        let width = if self.wide { 4 } else { 2 };
        assert_eq!(view.factor_index_bytes(), width, "{context}: index width");

        let reference: Answers = batch.iter().map(|val| set.eval_one(val)).collect();
        let hash: Answers = batch.iter().map(|val| val.eval_set(&polys)).collect();
        match self.lowering {
            Lowering::Compile | Lowering::Exact => bits_equal(&hash, &reference, &context),
            Lowering::Freeze | Lowering::Rebuilt => close(1e-12, &hash, &reference, &context),
        }
        (set, batch, reference)
    }

    /// Lowers `polys` as the row says.
    pub fn lower(&self, polys: &PolySet<f64>, context: &str) -> CompiledPolySet<f64> {
        match self.lowering {
            Lowering::Compile => CompiledPolySet::compile(polys),
            Lowering::Freeze | Lowering::Exact => WorkingSet::from_polyset(polys).freeze(),
            Lowering::Rebuilt => {
                let ws = WorkingSet::from_polyset(polys);
                let rebuilt = WorkingSet::from_compiled(ws.freeze().view());
                assert_eq!(runs(&rebuilt), runs(&ws), "{context}: a run reordered");
                rebuilt.freeze()
            }
        }
    }

    /// Runs `batch` over `set` with the row's kernel and executor.
    pub fn run(&self, set: &CompiledPolySet<f64>, batch: &[Valuation<f64>]) -> Answers {
        let opts = match self.executor {
            Executor::Block => return set.eval_block(batch, self.kernel),
            Executor::Inline => EvalOptions::new().threads(1),
            Executor::Pooled(threads) => EvalOptions::new().threads(threads),
            Executor::Auto => EvalOptions::new(),
        };
        let opts = opts.kernel(self.kernel);
        let run = eval(set.view(), batch, &opts, &Guard::unlimited()).into_result();
        run.expect("an unlimited guard and no panic").values
    }
}

/// Runs `check` on [`CASES`] drawn rows, each with its own generator
/// seeded from `axis` and the case.
pub fn cases(axis: u64, mut check: impl FnMut(Cell, &Rng, &str)) {
    for case in 0..CASES {
        let mut rng = Rng::new(axis << 32 | (case + 1));
        let cell = Cell::draw(&mut rng);
        check(cell, &rng, &format!("case {case}"));
    }
}

/// Sweeps `values` over [`CASES`] drawn rows, `set` writing each value
/// into the row; every value draws the same poly-set and batch where its
/// axis allows.
pub fn sweep<T: Copy>(axis: u64, values: &[T], set: impl Fn(&mut Cell, T)) {
    cases(axis, |cell, rng, context| {
        for &value in values {
            let mut cell = cell;
            set(&mut cell, value);
            cell.check(&mut rng.clone(), context);
        }
    });
}

/// Every pair of a value of `a` and a value of `b`: two axes swept as one.
pub fn pairs<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// Wide rows — a set over 70 000 variables, each one a second to build
/// in a debug build — one per layout (degrees 1, 2, 3, 5 and mixed ends),
/// on every kernel, at 21 scenarios (one wide pass, one narrow, one
/// scalar); the other axes drawn from `axis`.
pub fn wide_rows(axis: u64) {
    let layouts = [1, 2, 3, 5]
        .map(Layout::Uniform)
        .into_iter()
        .chain([Layout::Mixed(2)]);
    for (case, layout) in layouts.enumerate() {
        let mut rng = Rng::new(axis << 32 | 0x70_000 | case as u64);
        let cell = Cell {
            wide: true,
            layout,
            len: 21,
            ..Cell::draw(&mut rng)
        };
        let context = format!("wide case {case}");
        let (set, batch, reference) = cell.prepare(&mut rng, &context);
        for kernel in KERNELS {
            let got = Cell { kernel, ..cell }.run(&set, &batch);
            bits_equal(&reference, &got, &format!("{context}: {kernel}"));
        }
    }
}
