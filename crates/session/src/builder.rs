//! Construction of a [`Session`].
//!
//! The builder accepts provenance in any of the three forms it occurs in
//! practice — an already-materialised [`PolySet`], the paper's polynomial
//! text notation, or the output of a provenance-aware engine query — plus
//! the abstraction forest (as a value or in the `label(child, …)` text
//! notation), the [`Strategy`], the size [`Target`] and the evaluation
//! engine knobs. [`SessionBuilder::build`] validates the combination
//! eagerly so a misconfigured session fails before any compression work.
//!
//! The builder is the one ingest point (ADR 021): a [`PolySet`] is
//! lowered into a [`WorkingSet`] once, by [`SessionBuilder::new`], and
//! dropped, so a session holds its provenance in that one form.
//!
//! Builders are `Clone`, which is how sweeps share one provenance across
//! many sessions: `builder.clone().bound(b).build()?` per point. A clone
//! shares the lowered arena and term columns (ADR 017): a sweep interns
//! once.

use crate::error::Error;
use crate::session::Session;
use crate::strategy::{Strategy, Target};
use provabs_engine::query::{GroupedProvenance, GroupedProvenanceInterned};
use provabs_provenance::parse::parse_polyset;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::VarTable;
use provabs_provenance::working::WorkingSet;
use provabs_scenario::executor::EvalOptions;
use provabs_trees::forest::Forest;
use provabs_trees::text::parse_forest;

/// A fluent builder for [`Session`].
///
/// ```
/// use provabs_session::{SessionBuilder, Strategy};
///
/// let session = SessionBuilder::from_text("3·x1·a + 4·x2·a\n5·x1·b + 6·x2·b")?
///     .forest_text("X(x1, x2)")?
///     .strategy(Strategy::Optimal)
///     .bound(2)
///     .build()?;
/// assert_eq!(session.compress()?.compressed_size_m, 2); // 7·X·a and 11·X·b
/// # Ok::<(), provabs_session::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    source: WorkingSet<f64>,
    /// `source` arrived interned, not lowered from a poly-set here.
    interned_source: bool,
    vars: VarTable,
    forest: Option<Forest>,
    strategy: Strategy,
    target: Target,
    opts: EvalOptions,
}

impl SessionBuilder {
    fn from_source(source: WorkingSet<f64>, interned_source: bool, vars: VarTable) -> Self {
        Self {
            source,
            interned_source,
            vars,
            forest: None,
            strategy: Strategy::default(),
            target: Target::default(),
            opts: EvalOptions::new(),
        }
    }

    /// Starts a session over already-materialised provenance, lowering
    /// it into the session's interned arena here, once; the poly-set is
    /// dropped. The variable table must be the one the polynomials were
    /// interned into (and, if [`forest`](Self::forest) is used, the one
    /// the forest's labels were interned into).
    pub fn new(polys: PolySet<f64>, vars: VarTable) -> Self {
        Self::from_source(WorkingSet::from_polyset(&polys), false, vars)
    }

    /// Starts a session by parsing the paper's polynomial text notation
    /// (one polynomial per line), interning variables into a fresh table.
    pub fn from_text(provenance: &str) -> Result<Self, Error> {
        let mut vars = VarTable::new();
        let polys = parse_polyset(provenance, &mut vars)?;
        Ok(Self::new(polys, vars))
    }

    /// Starts a session from a provenance-aware engine query result
    /// (e.g. [`Pipeline::aggregate_sum`]), with the variable table the
    /// query's [`VarRule`]s interned into.
    ///
    /// [`Pipeline::aggregate_sum`]: provabs_engine::query::Pipeline::aggregate_sum
    /// [`VarRule`]: provabs_engine::param::VarRule
    pub fn from_query(query: GroupedProvenance, vars: VarTable) -> Self {
        Self::new(query.polys, vars)
    }

    /// Starts a session from an *interned* engine query result
    /// ([`Pipeline::aggregate_sum_interned`]): the provenance enters in
    /// the pipeline's id currency and is never re-interned — the engine's
    /// emission arena is the one compression rewrites and evaluation
    /// freezes ([`Session::intern_stats`] reports `interned_source`).
    ///
    /// [`Pipeline::aggregate_sum_interned`]: provabs_engine::query::Pipeline::aggregate_sum_interned
    /// [`Session::intern_stats`]: crate::Session::intern_stats
    pub fn from_query_interned(query: GroupedProvenanceInterned, vars: VarTable) -> Self {
        Self::from_source(query.working, true, vars)
    }

    /// Sets the abstraction forest (built over the same variable table as
    /// the provenance).
    #[must_use]
    pub fn forest(mut self, forest: Forest) -> Self {
        self.forest = Some(forest);
        self
    }

    /// Parses the abstraction forest from the `label(child, …)` text
    /// notation (one tree per line, `#` comments), interning its labels
    /// into the session's variable table.
    pub fn forest_text(mut self, text: &str) -> Result<Self, Error> {
        self.forest = Some(parse_forest(text, &mut self.vars)?);
        Ok(self)
    }

    /// Sets the selection algorithm (default: [`Strategy::Greedy`]).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the size target (default: [`Target::Ratio`]`(0.5)`, the
    /// paper's half-size setting).
    #[must_use]
    pub fn target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Shorthand for [`target`](Self::target)`(Target::Monomials(bound))`.
    #[must_use]
    pub fn bound(self, bound: usize) -> Self {
        self.target(Target::Monomials(bound))
    }

    /// Sets the batch-evaluation engine configuration (default:
    /// [`EvalOptions::new`] — compiled columnar path, one worker per
    /// core). [`EvalOptions::serial_reference`] reproduces the paper's
    /// serial hash-map loop.
    #[must_use]
    pub fn eval_options(mut self, opts: EvalOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Validates the configuration and produces the [`Session`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidBound`] if the resolved size target is `0`;
    /// [`Error::MissingForest`] if the strategy compresses but no forest
    /// was given. Forest/provenance *compatibility* is checked by
    /// [`Session::compress`], exactly as the low-level algorithms do.
    pub fn build(self) -> Result<Session, Error> {
        let bound = self.target.resolve(self.source.size_m())?;
        let forest = match (self.forest, self.strategy.needs_forest()) {
            (Some(f), _) => f,
            (None, false) => Forest::new(Vec::new())?,
            (None, true) => return Err(Error::MissingForest),
        };
        Ok(Session::from_parts(
            self.source,
            self.interned_source,
            self.vars,
            forest,
            self.strategy,
            bound,
            self.opts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rejects_missing_forest_and_zero_bound() {
        let b = SessionBuilder::from_text("1·x + 2·y").expect("parses");
        assert_eq!(b.clone().build().unwrap_err(), Error::MissingForest);
        let err = b
            .clone()
            .forest_text("X(x, y)")
            .expect("parses")
            .bound(0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            Error::InvalidBound {
                bound: 0,
                size_m: 2
            }
        );
        // Strategy::None needs no forest.
        assert!(b.strategy(Strategy::None).build().is_ok());
    }

    #[test]
    fn from_text_propagates_parse_errors() {
        let err = SessionBuilder::from_text("1·x + + 2·y").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        let err = SessionBuilder::from_text("1·x")
            .expect("parses")
            .forest_text("X(x")
            .unwrap_err();
        assert!(matches!(err, Error::Tree(_)));
    }
}
