//! The equivalence suites' shared tools: one seeded [`Rng`], the one
//! case loop every property suite runs ([`cases`]), one poly-set
//! generator ([`Shape`]) with the scenario batches that fit it, the
//! coefficient [`Carrier`] axis the compression suites sweep,
//! random forests over its leaf pools, the workload [`fixture`], every
//! session [`strategies`] variant, temporary artifact files, and the five
//! declared relations a suite asserts — [`bits_equal`], [`close`],
//! [`within_bound`], [`prefix_of`] and [`modelled`] — and the evaluation
//! matrix's rows ([`matrix`]).
//!
//! Dev-only: the tests of eight crates list it under
//! `[dev-dependencies]`, and it is never published.

pub mod matrix;

use provabs_datagen::workload::{Workload, WorkloadConfig, WorkloadData};
use provabs_provenance::coeff::{Coefficient, MinF64};
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use provabs_session::{Error, SessionBuilder, Strategy};
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use provabs_trees::generate::random_tree;
use std::fmt::Debug;
use std::ops::RangeInclusive;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// xorshift64* — deterministic, dependency-free randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`; zero, a state xorshift never
    /// leaves, is replaced by a fixed odd constant.
    pub fn new(seed: u64) -> Self {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (always 0 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `range`.
    pub fn within(&mut self, range: RangeInclusive<usize>) -> usize {
        range.start() + self.below((range.end() - range.start() + 1) as u64) as usize
    }

    /// True one time in `one_in`.
    pub fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    /// Uniform in `range`, signed.
    pub fn int(&mut self, range: RangeInclusive<i64>) -> i64 {
        range.start() + self.below(range.end().abs_diff(*range.start()) + 1) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One of `items`, uniformly.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }
}

/// Skipped cases a [`cases`] loop tolerates before it fails: a draw that
/// almost never meets its case's assumption is a broken generator, and
/// the loop must not spin on it.
pub const MAX_SKIPS: u64 = 65_536;

/// What a case returns: `()` counts the case; `Option<()>` counts it when
/// `Some` and skips it when `None` — the draw missed the case's
/// assumption — so `?` on a drawn `Option` skips.
pub trait Outcome {
    /// Whether the case counts.
    fn counted(self) -> bool;
}

impl Outcome for () {
    fn counted(self) -> bool {
        true
    }
}

impl Outcome for Option<()> {
    fn counted(self) -> bool {
        self.is_some()
    }
}

/// `Some` when `holds`: `assume(cond)?` skips a case whose draw misses
/// its assumption.
pub fn assume(holds: bool) -> Option<()> {
    holds.then_some(())
}

/// The seed of case `index` of the loop tagged `tag`: tag and index side
/// by side, so every case of every tag (below `2^32`) has its own.
fn case_seed(tag: u64, index: u64) -> u64 {
    tag << 32 | (index + 1)
}

/// The one case loop: runs `check` on cases `0, 1, 2, …` until `n` have
/// counted, case `i` drawing from `Rng::new(tag << 32 | (i + 1))`. A skipped
/// case (see [`Outcome`]) is not counted; past [`MAX_SKIPS`] of them the
/// loop panics. A case that panics fails the loop with its index and
/// seed — `Rng::new(seed)` redraws it; nothing is shrunk.
pub fn cases<O: Outcome>(n: u64, tag: u64, mut check: impl FnMut(&mut Rng, u64) -> O) {
    let (mut counted, mut skipped) = (0, 0);
    let mut index = 0;
    while counted < n {
        let seed = case_seed(tag, index);
        let mut rng = Rng::new(seed);
        match panic::catch_unwind(AssertUnwindSafe(|| check(&mut rng, index).counted())) {
            Ok(true) => counted += 1,
            Ok(false) => {
                skipped += 1;
                assert!(
                    skipped <= MAX_SKIPS,
                    "skipped {skipped} cases with {counted} of {n} counted: the draw misses its assumption"
                );
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("a non-string panic");
                panic!("case {index} (seed {seed:#x}) failed: {message}");
            }
        }
        index += 1;
    }
}

/// The exponents a generated factor carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Powers {
    /// Every factor `^1`, as in every generated workload.
    None,
    /// `^1..=k`, uniformly: past the unrolled 1/2/3 fast path into
    /// exponentiation by squaring when `k > 3`.
    Dense(u32),
    /// Nine factors in ten `^1`, the tenth squared, cubed or raised to 7:
    /// the short exception list real provenance has.
    Sparse,
}

/// The coefficients of generated monomials, and the values the batches
/// drawn for the set assign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coeffs {
    /// Sixteenths in `[-5, 5)`, zero included, so rounding and
    /// cancellation are in play; valuations are sixteenths in `[-2, 2)`.
    Sixteenths,
    /// Positive quarters in `[0.25, 10)`, as in the paper's workloads:
    /// nothing cancels. Valuations are sixteenths in `[-2, 2)`.
    Quarters,
    /// Integers `1..50` under integer valuations `0..=4`: every sum is
    /// exact, whatever order it is taken in.
    Integers,
    /// Integers `±1..=3`, either sign at even odds, under integer
    /// valuations `0..=4`: exact, and two terms that merge cancel to
    /// zero one time in six.
    SignedIntegers,
}

/// The carrier axis: a coefficient algebra `core`'s strategies are
/// generic over, as a row of the compression suites. `f64` is every
/// product path's; `i64` is exact, so its rows compare with `==`, and
/// its merged terms can cancel to zero (it draws
/// [`Coeffs::SignedIntegers`]); [`MinF64`] is what
/// `Pipeline::aggregate_min` emits: merged terms keep the smaller
/// coefficient and never cancel (it draws [`Coeffs::Integers`], so its
/// products are exact too).
pub trait Carrier: Coefficient + Copy {
    /// The row's name in failure messages.
    const NAME: &'static str;
    /// The coefficients a row of this carrier draws; `None` keeps the
    /// suite's own.
    const COEFFS: Option<Coeffs>;
    /// Whether the row's merged terms can sum to zero (and be dropped).
    const CANCELS: bool;
    /// A drawn value (coefficient or valuation) in this carrier — exact
    /// for every value its [`COEFFS`](Self::COEFFS) draw.
    fn carry(x: f64) -> Self;
    /// The aggregate the carrier's "+" stands for, spelled out in plain
    /// arithmetic over `terms` — the definition its rows hold
    /// [`Coefficient::add`] to.
    fn aggregate(terms: &[Self]) -> Self;
}

impl Carrier for f64 {
    const NAME: &'static str = "f64";
    const COEFFS: Option<Coeffs> = None;
    const CANCELS: bool = false;
    fn carry(x: f64) -> Self {
        x
    }
    fn aggregate(terms: &[Self]) -> Self {
        terms.iter().sum()
    }
}

impl Carrier for i64 {
    const NAME: &'static str = "i64";
    const COEFFS: Option<Coeffs> = Some(Coeffs::SignedIntegers);
    const CANCELS: bool = true;
    fn carry(x: f64) -> Self {
        assert_eq!(x.fract(), 0.0, "an i64 row carries integers only");
        x as i64
    }
    fn aggregate(terms: &[Self]) -> Self {
        terms.iter().sum()
    }
}

impl Carrier for MinF64 {
    const NAME: &'static str = "MinF64";
    const COEFFS: Option<Coeffs> = Some(Coeffs::Integers);
    const CANCELS: bool = false;
    fn carry(x: f64) -> Self {
        MinF64(x)
    }
    fn aggregate(terms: &[Self]) -> Self {
        MinF64(terms.iter().map(|t| t.0).fold(f64::INFINITY, f64::min))
    }
}

/// `polys` with every coefficient carried into `C`.
pub fn carry<C: Carrier>(polys: &PolySet<f64>) -> PolySet<C> {
    polys
        .iter()
        .map(|p| p.iter().map(|(m, &c)| (m.clone(), C::carry(c))).collect())
        .collect()
}

/// The shape of a generated poly-set: up to six polynomials of up to
/// nine monomials each (none, at times), over `VarId(0..vars)`.
#[derive(Clone, Debug)]
pub struct Shape {
    /// How many variables there are to draw from.
    pub vars: u32,
    /// Factors a monomial, each over a distinct variable.
    pub arity: RangeInclusive<usize>,
    /// The exponents of the factors.
    pub powers: Powers,
    /// The coefficients (and the values batches assign).
    pub coeffs: Coeffs,
    /// Forest compatibility when non-zero: the variables split into
    /// `pools` equal leaf pools (the pools [`random_forest`] plants its
    /// trees on), and a monomial draws at most one factor from each, with
    /// even odds; `arity` is then unused.
    pub pools: u32,
    /// Every variable occurs: after the drawn polynomials come windows of
    /// `arity.end()` consecutive variables, three a polynomial, so a set
    /// over more than 65 536 variables indexes them four bytes wide.
    pub wide: bool,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            vars: 10,
            arity: 0..=2,
            powers: Powers::Dense(6),
            coeffs: Coeffs::Sixteenths,
            pools: 0,
            wide: false,
        }
    }
}

impl Shape {
    /// Draws one poly-set of this shape.
    pub fn draw(&self, rng: &mut Rng) -> PolySet<f64> {
        let mut polys = Vec::new();
        for _ in 0..rng.below(7) {
            let terms: Vec<_> = (0..rng.below(10)).map(|_| self.term(rng)).collect();
            polys.push(Polynomial::from_terms(terms));
        }
        if self.wide {
            let width = (*self.arity.end()).max(1) as u32;
            let windows: Vec<u32> = (0..self.vars).step_by(width as usize).collect();
            for starts in windows.chunks(3) {
                let terms = starts.iter().map(|&v| {
                    let factors = (v..v + width).map(|v| (VarId(v % self.vars), self.power(rng)));
                    (
                        Monomial::from_factors(factors.collect::<Vec<_>>()),
                        self.coeff(rng),
                    )
                });
                polys.push(Polynomial::from_terms(terms.collect::<Vec<_>>()));
            }
        }
        PolySet::from_vec(polys)
    }

    /// Draws one poly-set of this shape as a row of carrier `C`: its
    /// coefficients are the carrier's [`COEFFS`](Carrier::COEFFS) (the
    /// shape's own for `f64`).
    pub fn draw_in<C: Carrier>(&self, rng: &mut Rng) -> PolySet<C> {
        let shape = Shape {
            coeffs: C::COEFFS.unwrap_or(self.coeffs),
            ..self.clone()
        };
        carry(&shape.draw(rng))
    }

    /// `len` scenarios over the shape's variables: each assigns up to
    /// `assignments` of them (drawn with repetition) a value the shape's
    /// [`Coeffs`] names, over the neutral default.
    pub fn batch(&self, rng: &mut Rng, assignments: usize, len: usize) -> Vec<Valuation<f64>> {
        (0..len)
            .map(|_| {
                let mut val = Valuation::neutral();
                for _ in 0..rng.within(0..=assignments) {
                    let v = VarId(rng.below(u64::from(self.vars)) as u32);
                    let value = match self.coeffs {
                        Coeffs::Integers | Coeffs::SignedIntegers => rng.below(5) as f64,
                        _ => (rng.below(64) as f64 - 32.0) / 16.0,
                    };
                    val.assign(v, value);
                }
                val
            })
            .collect()
    }

    fn term(&self, rng: &mut Rng) -> (Monomial, f64) {
        let mut vars = Vec::new();
        if let Some(pool) = self.vars.checked_div(self.pools) {
            for p in 0..self.pools {
                if rng.below(2) == 0 {
                    vars.push(p * pool + rng.below(u64::from(pool)) as u32);
                }
            }
        } else {
            let arity = rng.within(self.arity.clone()).min(self.vars as usize);
            while vars.len() < arity {
                let v = rng.below(u64::from(self.vars)) as u32;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let factors: Vec<_> = vars
            .into_iter()
            .map(|v| (VarId(v), self.power(rng)))
            .collect();
        (Monomial::from_factors(factors), self.coeff(rng))
    }

    fn power(&self, rng: &mut Rng) -> u32 {
        match self.powers {
            Powers::None => 1,
            Powers::Dense(k) => 1 + rng.below(u64::from(k)) as u32,
            Powers::Sparse => [2, 3, 7].get(rng.below(30) as usize).copied().unwrap_or(1),
        }
    }

    fn coeff(&self, rng: &mut Rng) -> f64 {
        match self.coeffs {
            Coeffs::Sixteenths => (rng.below(160) as f64 - 80.0) / 16.0,
            Coeffs::Quarters => (1 + rng.below(39)) as f64 / 4.0,
            Coeffs::Integers => (1 + rng.below(49)) as f64,
            Coeffs::SignedIntegers => {
                [1.0, -1.0][rng.below(2) as usize] * (1 + rng.below(3)) as f64
            }
        }
    }
}

/// Interns `x0..x{n-1}` in a fresh table, so that `VarId(i)` is the
/// variable named `xi` — the variables a [`Shape`] draws.
pub fn leaf_table(n: u32) -> (VarTable, Vec<String>) {
    let mut vars = VarTable::new();
    let names: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        assert_eq!(
            vars.intern(name),
            VarId(i as u32),
            "interning order is dense"
        );
    }
    (vars, names)
}

/// `trees` (1–3) random trees, seeded from `seed`, on the first `trees`
/// of `pools` equal pools of the [`leaf_table`] of `leaves` — the pools
/// a forest-compatible [`Shape`] draws from; the others stay tree-less.
/// Returns the table, the trees' inner nodes interned, with the forest.
pub fn random_forest(leaves: u32, pools: u32, trees: usize, seed: u64) -> (VarTable, Forest) {
    let (mut vars, names) = leaf_table(leaves);
    let seeds = [
        seed,
        seed.rotate_left(17) ^ 0xabcd,
        seed.rotate_left(34) ^ 0x5eed,
    ];
    let trees = names
        .chunks(names.len() / pools as usize)
        .zip(["A", "B", "C"].into_iter().zip(seeds))
        .take(trees)
        .map(|(leaves, (name, seed))| random_tree(name, leaves, seed, &mut vars))
        .collect();
    (vars, Forest::new(trees).expect("disjoint leaf pools"))
}

/// A small, fast workload fixture with its primary tree: enough structure
/// for every algorithm (the quadratic competitor included), small enough
/// to sweep every strategy in test time.
pub fn fixture(workload: Workload) -> (WorkloadData, Forest) {
    let mut data = workload.generate(&WorkloadConfig {
        scale: 0.05,
        param_modulus: 16,
        seed: 11,
    });
    let forest = data.primary_tree(1, 0);
    (data, forest)
}

/// A bound halfway between the forest's compression floor and the
/// original size, probed through a greedy session: every strategy
/// attains it.
pub fn attainable_bound(polys: &PolySet<f64>, vars: &VarTable, forest: &Forest) -> usize {
    let probe = SessionBuilder::new(polys.clone(), vars.clone())
        .forest(forest.clone())
        .bound(1)
        .build()
        .expect("valid probe");
    let floor = match probe.compress() {
        Ok(r) => r.compressed_size_m,
        Err(Error::Tree(TreeError::BoundUnattainable { best_possible, .. })) => best_possible,
        Err(e) => panic!("floor probe failed: {e}"),
    };
    (floor + (polys.size_m() - floor) / 2).max(1)
}

/// Every compression [`Strategy`] a session offers.
pub fn strategies() -> [Strategy; 5] {
    [
        Strategy::Optimal,
        Strategy::Greedy,
        Strategy::Online {
            fraction: 0.5,
            seed: 7,
        },
        Strategy::Competitor,
        Strategy::None,
    ]
}

/// Each polynomial's terms in run order, as monomials and coefficient
/// bits: what two working sets must share for their sums to be taken in
/// the same order.
pub fn runs(ws: &WorkingSet<f64>) -> Vec<Vec<(Monomial, u64)>> {
    (0..ws.num_polys())
        .map(|pi| {
            let terms = ws.poly_terms(pi);
            terms
                .map(|(id, c)| (ws.mono(id).to_monomial(), c.to_bits()))
                .collect()
        })
        .collect()
}

/// A unique artifact path in the temporary directory, removed (best
/// effort) on drop.
pub struct TempFile(pub PathBuf);

impl TempFile {
    /// A fresh path whose name carries `tag`.
    pub fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("provabs-{}-{n}-{tag}.pvabs", std::process::id());
        TempFile(std::env::temp_dir().join(name))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Declared relation: `got` equals `want` to the last mantissa bit, row
/// for row.
pub fn bits_equal(want: &[Vec<f64>], got: &[Vec<f64>], context: &str) {
    each_value(
        want,
        got,
        context,
        |a, b| a.to_bits() == b.to_bits(),
        "differ",
    );
}

/// Declared relation: every value of `got` lies within `rel` of `want`'s,
/// relative to the larger magnitude (or to 1 near zero) — the room
/// another summation order needs.
pub fn close(rel: f64, want: &[Vec<f64>], got: &[Vec<f64>], context: &str) {
    let near = |a: f64, b: f64| (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0);
    each_value(
        want,
        got,
        context,
        near,
        &format!("differ by more than {rel:e}"),
    );
}

/// Asserts two answer grids have the same shape and `holds` for each
/// pair of values, naming the scenario and the polynomial that fail.
fn each_value(
    want: &[Vec<f64>],
    got: &[Vec<f64>],
    context: &str,
    holds: impl Fn(f64, f64) -> bool,
    what: &str,
) {
    assert_eq!(want.len(), got.len(), "{context}: scenario count");
    for (s, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.len(), g.len(), "{context}: scenario {s} length");
        for (p, (&a, &b)) in w.iter().zip(g).enumerate() {
            assert!(
                holds(a, b),
                "{context}: scenario {s}, polynomial {p}: {a} and {b} {what}"
            );
        }
    }
}

/// Declared relation: `value` does not exceed `bound`.
pub fn within_bound<T: PartialOrd + Debug>(value: T, bound: T, context: &str) {
    assert!(value <= bound, "{context}: {value:?} exceeds {bound:?}");
}

/// Declared relation (ADR 024): the `measured` sizes `(|𝒫↓S|_M,
/// |𝒫↓S|_V)` of a run of abstractions of a carrier-`C` poly-set against
/// the sizes the loss model gives for them, `modelled` (counted in
/// merged monomials, or measured on the poly-set's support, every
/// coefficient `1`): a prefix of them on a carrier whose merges cannot
/// cancel; on one whose can, each at most its counterpart, coordinate by
/// coordinate.
pub fn modelled<C: Carrier>(
    measured: &[(usize, usize)],
    modelled: &[(usize, usize)],
    context: &str,
) {
    if !C::CANCELS {
        return prefix_of(measured, modelled, context);
    }
    assert!(
        measured.len() <= modelled.len(),
        "{context}: {} measured points, {} modelled",
        measured.len(),
        modelled.len()
    );
    for (i, (m, t)) in measured.iter().zip(modelled).enumerate() {
        within_bound(m.0, t.0, &format!("{context}: |M| of point {i}"));
        within_bound(m.1, t.1, &format!("{context}: |V| of point {i}"));
    }
}

/// Declared relation: `whole` starts with `prefix`.
pub fn prefix_of<T: PartialEq + Debug>(prefix: &[T], whole: &[T], context: &str) {
    assert!(
        prefix.len() <= whole.len(),
        "{context}: a prefix of {} is longer than the whole of {}",
        prefix.len(),
        whole.len()
    );
    for (i, (a, b)) in prefix.iter().zip(whole).enumerate() {
        assert_eq!(a, b, "{context}: element {i} of a {}-prefix", prefix.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first draw of each of `n` counted cases of the loop tagged `tag`.
    fn first_draws(n: u64, tag: u64) -> Vec<u64> {
        let mut draws = Vec::new();
        cases(n, tag, |rng, _| draws.push(rng.next_u64()));
        draws
    }

    #[test]
    fn a_tag_draws_the_same_stream_twice_and_another_tag_another() {
        assert_eq!(first_draws(16, 5), first_draws(16, 5));
        let (five, six) = (first_draws(16, 5), first_draws(16, 6));
        assert!(
            five.iter().zip(&six).all(|(a, b)| a != b),
            "{five:?} {six:?}"
        );
        assert_ne!(case_seed(5, 0), case_seed(5, 1));
    }

    #[test]
    fn a_failing_case_names_its_index_and_seed() {
        let failed =
            panic::catch_unwind(|| cases(10, 7, |_, i| assert_ne!(i, 3, "the planted fault")));
        let payload = failed.expect_err("case 3 fails");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        let seed = format!("{:#x}", case_seed(7, 3));
        assert!(
            message.contains("case 3 ") && message.contains(&seed),
            "{message}"
        );
        assert!(message.contains("the planted fault"), "{message}");
    }

    #[test]
    fn skipped_cases_are_not_counted() {
        let (mut ran, mut counted) = (Vec::new(), Vec::new());
        cases(5, 8, |_, i| {
            ran.push(i);
            (i % 3 == 0).then(|| counted.push(i))
        });
        assert_eq!(counted, [0, 3, 6, 9, 12]);
        assert_eq!(ran, (0..=12).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "skipped 65537 cases with 2 of 3 counted")]
    fn the_skip_cap_fails_loudly() {
        cases(3, 9, |_, i| (i < 2).then_some(()));
    }
}
