//! Query pipelines producing provenance-annotated aggregates.
//!
//! [`Pipeline`] chains scans, filters, joins and projections over plain
//! tables, then [`Pipeline::aggregate_sum`] evaluates a `GROUP BY` +
//! `SUM(measure)` where the measure is multiplied by the provenance
//! variables produced by the [`crate::param::VarRule`]s. The result is one
//! provenance polynomial per group — the multiset `𝒫` that the abstraction
//! algorithms and the hypothetical-reasoning engine consume. Evaluating
//! each polynomial at the all-ones valuation recovers the plain SQL
//! answer (tested).
//!
//! # Execution
//!
//! A pipeline is a *plan*, not a table: the builder methods only record
//! stages over shared (`Arc`) source tables, and the consumers — the
//! aggregations and [`Pipeline::table`] — drive the whole plan as **one
//! fused push loop** (see `docs/adr/010-fused-query-pipeline.md`):
//!
//! * no value is copied per row: the loop carries one row index per
//!   stage — the source row, then each join's build row — and filters,
//!   the measure, the rules, the group keys and the join keys read cells
//!   in place from the columnar tables (see `docs/adr/019-columnar-tables.md`)
//!   at a *position*, which names a (stage, column); a join match sets
//!   its stage's index and pushes on, a filter just stops the push — no
//!   operator materialises its output;
//! * a projection is a change of column mapping (logical column →
//!   position) and costs nothing per row;
//! * the build-side `JoinIndex` of each join is built on first
//!   execution and cached, so a second aggregation off the same pipeline
//!   probes the same index;
//! * an equality filter between a probe-side column and a column of the
//!   join directly before it is folded into that join's key list, so the
//!   index — not the filter — discards the non-matches;
//! * rows reach the consumer in exactly the order the eager
//!   [`crate::ops`] composition produces them (left-major, build order
//!   within one probe), which keeps provenance coefficients and interning
//!   order bit-identical to it.

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{CmpOp, Expr, Predicate};
use crate::ops::{hash_key, JoinIndex};
use crate::param::{ResolvedRule, VarRule};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Cell, Cells, Row};
use provabs_provenance::coeff::{Coefficient, MinF64};
use provabs_provenance::fxhash::FxHashMap;
use provabs_provenance::intern::{MonoArena, MonoId};
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::{VarId, VarTable};
use provabs_provenance::working::WorkingSet;
use std::convert::Infallible;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One recorded stage of a plan.
#[derive(Clone)]
enum Stage {
    /// σ: a residual predicate over the stages so far.
    Filter { expr: Expr, pred: Predicate },
    /// ⋈: probe the build side, one push per match.
    Join(Join),
    /// π: recorded for [`Pipeline::explain`] only — its effect is the
    /// pipeline's column mapping.
    Project(Vec<String>),
}

/// A hash join against a shared build-side table.
#[derive(Clone)]
struct Join {
    /// What the build side is called in [`Pipeline::explain`].
    name: String,
    build: Arc<Table>,
    /// The position of the build table's first column.
    base: usize,
    /// Key positions on the probe side …
    probe_cols: Vec<usize>,
    /// … and key columns of the build table, pairwise.
    build_cols: Vec<usize>,
    /// The key pairs by name, for [`Pipeline::explain`].
    on: Vec<(String, String)>,
    /// Whether an equality filter was folded into the key list.
    pushed_down: bool,
    /// Built on first execution; shared by clones of the plan.
    index: Arc<OnceLock<JoinIndex>>,
}

impl Join {
    fn index(&self) -> &JoinIndex {
        self.index
            .get_or_init(|| JoinIndex::build(&self.build, self.build_cols.clone()))
    }
}

/// A stage as the push loop sees it.
enum Step<'p> {
    Filter(&'p Predicate),
    Join {
        /// The stage whose row index a match sets.
        stage: usize,
        build: &'p Table,
        index: &'p JoinIndex,
        probe_cols: &'p [usize],
    },
}

/// The fused loop's current tuple: one row index per stage (the source
/// row, then each join's build row), read through [`Cells`] at positions.
/// Position `p` is column `slots[p].1` of stage `slots[p].0`: the source's
/// columns first, then each join's build columns from its `base`.
struct Cursor<'p> {
    tables: Vec<&'p Table>,
    slots: Vec<(usize, usize)>,
    rows: Vec<usize>,
}

impl Cells for Cursor<'_> {
    fn cell(&self, at: usize) -> Cell<'_> {
        let (stage, column) = self.slots[at];
        self.tables[stage].cell(self.rows[stage], column)
    }

    fn key_hash(&self, at: usize) -> u64 {
        let (stage, column) = self.slots[at];
        self.tables[stage].key_hash(self.rows[stage], column)
    }
}

/// Pushes the cursor through `steps` and every tuple it extends into to
/// `sink`, depth-first — which is left-major order.
fn push<E>(
    steps: &[Step<'_>],
    cursor: &mut Cursor<'_>,
    sink: &mut impl FnMut(&Cursor<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let Some((step, rest)) = steps.split_first() else {
        return sink(cursor);
    };
    match *step {
        Step::Filter(pred) => {
            if pred.holds(cursor) {
                push(rest, cursor, sink)?;
            }
        }
        Step::Join {
            stage,
            build,
            index,
            probe_cols,
        } => {
            for &row in index.candidates(hash_key(cursor, probe_cols)) {
                if index.key_matches(build, row, cursor, probe_cols) {
                    cursor.rows[stage] = row as usize;
                    push(rest, cursor, sink)?;
                }
            }
        }
    }
    Ok(())
}

/// A lazy chain of relational operators over shared tables. See the
/// [module docs](self) for how it executes.
#[derive(Clone)]
pub struct Pipeline {
    source_name: String,
    source: Arc<Table>,
    stages: Vec<Stage>,
    /// The logical schema of the plan's output.
    schema: Schema,
    /// Logical column → position (see [`Cursor`]).
    cols: Vec<usize>,
    /// Positions in use after the last stage.
    width: usize,
    /// The materialised output, if [`table`](Self::table) was asked for it.
    result: OnceLock<Table>,
}

impl Pipeline {
    fn over(source_name: &str, source: Arc<Table>) -> Self {
        let width = source.schema().arity();
        Self {
            source_name: source_name.to_string(),
            schema: source.schema().clone(),
            source,
            stages: Vec::new(),
            cols: (0..width).collect(),
            width,
            result: OnceLock::new(),
        }
    }

    /// Starts from a catalog table (shared, not copied).
    pub fn scan(catalog: &Catalog, name: &str) -> Result<Self, EngineError> {
        Ok(Self::over(name, catalog.share(name)?))
    }

    /// Starts from an explicit table.
    pub fn from_table(table: Table) -> Self {
        Self::over("(table)", Arc::new(table))
    }

    /// σ: keeps rows satisfying `pred`.
    ///
    /// The predicate is type-checked here ([`Expr::predicate`]), so an
    /// ill-typed one is refused even over an empty table and driving the
    /// plan cannot fail on it. `left = right` between a column of the
    /// join directly before and a column from before that join is folded
    /// into the join's key list instead of being kept as a filter.
    pub fn filter(mut self, pred: &Expr) -> Result<Self, EngineError> {
        let mut checked = pred.predicate(&self.schema)?;
        self.result = OnceLock::new();
        if !self.push_down(pred) {
            checked.remap(&self.cols);
            self.stages.push(Stage::Filter {
                expr: pred.clone(),
                pred: checked,
            });
        }
        Ok(self)
    }

    /// Folds `pred` into the key list of the join directly before it, if
    /// it is an equality between one column of that join's build side and
    /// one column of its probe side. The type check has already
    /// established that the two are of one kind (both strings or both
    /// numeric) — which is what makes this sound: an `Expr` equality
    /// *refuses* a string against a number, key matching would merely not
    /// match.
    fn push_down(&mut self, pred: &Expr) -> bool {
        let Expr::Cmp(l, CmpOp::Eq, r) = pred else {
            return false;
        };
        let (Expr::Col(l), Expr::Col(r)) = (&**l, &**r) else {
            return false;
        };
        let Some(Stage::Join(join)) = self.stages.last_mut() else {
            return false;
        };
        let position = |name: &str| {
            let logical = self.schema.index_of(name).expect("checked by the caller");
            self.cols[logical]
        };
        let (probe, build) = match (position(l), position(r)) {
            (a, b) if a < join.base && b >= join.base => ((l, a), (r, b)),
            (a, b) if b < join.base && a >= join.base => ((r, b), (l, a)),
            _ => return false,
        };
        join.probe_cols.push(probe.1);
        join.build_cols.push(build.1 - join.base);
        join.on.push((probe.0.clone(), build.0.clone()));
        join.pushed_down = true;
        // A clone of the plan may already have built the old index.
        join.index = Arc::new(OnceLock::new());
        true
    }

    /// ⋈ with a catalog table (shared, not copied). Builds on `other`,
    /// probes with the pipeline so far.
    pub fn join(
        self,
        catalog: &Catalog,
        other: &str,
        on: &[(&str, &str)],
    ) -> Result<Self, EngineError> {
        let build = catalog.share(other)?;
        self.join_shared(build, on, other)
    }

    /// ⋈ with an explicit table (`prefix` renames colliding columns). The
    /// table is copied into the plan; register it in a [`Catalog`] and use
    /// [`join`](Self::join) to share it instead.
    pub fn join_table(
        self,
        right: &Table,
        on: &[(&str, &str)],
        prefix: &str,
    ) -> Result<Self, EngineError> {
        self.join_shared(Arc::new(right.clone()), on, prefix)
    }

    fn join_shared(
        mut self,
        build: Arc<Table>,
        on: &[(&str, &str)],
        prefix: &str,
    ) -> Result<Self, EngineError> {
        let schema = self.schema.join(build.schema(), prefix)?;
        let probe_cols: Vec<usize> = on
            .iter()
            .map(|(l, _)| Ok(self.cols[self.schema.index_of(l)?]))
            .collect::<Result<_, EngineError>>()?;
        let build_cols: Vec<usize> = on
            .iter()
            .map(|(_, r)| build.schema().index_of(r))
            .collect::<Result<_, _>>()?;
        let base = self.width;
        self.width += build.schema().arity();
        self.cols.extend(base..self.width);
        self.schema = schema;
        self.result = OnceLock::new();
        self.stages.push(Stage::Join(Join {
            name: prefix.to_string(),
            build,
            base,
            probe_cols,
            build_cols,
            on: on
                .iter()
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .collect(),
            pushed_down: false,
            index: Arc::new(OnceLock::new()),
        }));
        Ok(self)
    }

    /// π (bag semantics).
    pub fn project(mut self, columns: &[&str]) -> Result<Self, EngineError> {
        let (schema, idx) = self.schema.project(columns)?;
        self.cols = idx.into_iter().map(|i| self.cols[i]).collect();
        self.schema = schema;
        self.result = OnceLock::new();
        self.stages.push(Stage::Project(
            columns.iter().map(|c| c.to_string()).collect(),
        ));
        Ok(self)
    }

    /// The plan, one line per stage in execution order — `scan Cust`,
    /// `join Plans on (PlanId = PlanId, Mo = PMo) [pushed down]`,
    /// `filter l_returnflag = 'R'`, `project (Zip, Price)` — so that "why
    /// was this capture slow" can be read off it: a join without
    /// `[pushed down]` followed by a `filter` line enumerates every match
    /// of its key before the filter discards any.
    pub fn explain(&self) -> String {
        let mut lines = vec![format!("scan {}", self.source_name)];
        for stage in &self.stages {
            lines.push(match stage {
                Stage::Filter { expr, .. } => format!("filter {expr}"),
                Stage::Join(join) => {
                    let keys: Vec<String> =
                        join.on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                    let note = if join.pushed_down {
                        " [pushed down]"
                    } else {
                        ""
                    };
                    format!("join {} on ({}){note}", join.name, keys.join(", "))
                }
                Stage::Project(columns) => format!("project ({})", columns.join(", ")),
            });
        }
        lines.join("\n")
    }

    /// Drives the plan: every output row, as the cursor (address its
    /// columns through `self.cols`), in eager-composition order.
    fn drive<E>(&self, mut sink: impl FnMut(&Cursor<'_>) -> Result<(), E>) -> Result<(), E> {
        let mut cursor = Cursor {
            tables: vec![&*self.source],
            slots: (0..self.source.schema().arity()).map(|c| (0, c)).collect(),
            rows: vec![0],
        };
        let mut steps = Vec::new();
        for stage in &self.stages {
            match stage {
                Stage::Filter { pred, .. } => steps.push(Step::Filter(pred)),
                Stage::Join(join) => {
                    let stage = cursor.tables.len();
                    debug_assert_eq!(cursor.slots.len(), join.base);
                    cursor.tables.push(&join.build);
                    cursor.rows.push(0);
                    let arity = join.build.schema().arity();
                    cursor.slots.extend((0..arity).map(|c| (stage, c)));
                    steps.push(Step::Join {
                        stage,
                        build: &join.build,
                        index: join.index(),
                        probe_cols: &join.probe_cols,
                    });
                }
                Stage::Project(_) => {}
            }
        }
        for row in 0..self.source.len() {
            cursor.rows[0] = row;
            push(&steps, &mut cursor, &mut sink)?;
        }
        Ok(())
    }

    /// The plan's output as a table: the source itself for a bare scan,
    /// otherwise materialised on first call — the final result only,
    /// never an intermediate — and kept.
    pub fn table(&self) -> &Table {
        if self.stages.is_empty() {
            return &self.source;
        }
        self.result.get_or_init(|| {
            let mut out = Table::new(self.schema.clone());
            let Ok(()) = self.drive(|cursor| -> Result<(), Infallible> {
                out.push_cells(self.cols.iter().map(|&c| cursor.cell(c)));
                Ok(())
            });
            out
        })
    }

    /// `SELECT group_cols, SUM(measure · Π rules) GROUP BY group_cols`.
    ///
    /// Each row contributes the monomial formed by its rule variables,
    /// weighted by the numeric measure; rows of a group sum into one
    /// polynomial. Group order is first-occurrence (deterministic).
    pub fn aggregate_sum(
        &self,
        group_cols: &[&str],
        measure: &Expr,
        rules: &[VarRule],
        vars: &mut VarTable,
    ) -> Result<GroupedProvenance, EngineError> {
        self.aggregate_with(group_cols, measure, rules, vars, |x| x)
    }

    /// `SELECT group_cols, MIN(measure · Π rules) GROUP BY group_cols`:
    /// aggregate provenance over the `(min, ×)` coefficients (§2.1 covers
    /// commutative aggregates beyond SUM). Sound for non-negative
    /// measures and valuations, where `min(a·x, b·x) = min(a, b)·x`.
    pub fn aggregate_min(
        &self,
        group_cols: &[&str],
        measure: &Expr,
        rules: &[VarRule],
        vars: &mut VarTable,
    ) -> Result<GroupedProvenanceOf<MinF64>, EngineError> {
        self.aggregate_with(group_cols, measure, rules, vars, MinF64)
    }

    /// Grouped aggregation over any coefficient type; `wrap` lifts the
    /// measured `f64` into the aggregate's carrier.
    pub fn aggregate_with<C: Coefficient>(
        &self,
        group_cols: &[&str],
        measure: &Expr,
        rules: &[VarRule],
        vars: &mut VarTable,
        wrap: impl Fn(f64) -> C,
    ) -> Result<GroupedProvenanceOf<C>, EngineError> {
        let mut polys: Vec<Polynomial<C>> = Vec::new();
        let keys = self.emit(group_cols, measure, rules, vars, |slot, factors, x| {
            if slot == polys.len() {
                polys.push(Polynomial::zero());
            }
            polys[slot].add_term_factors(factors, wrap(x));
        })?;
        Ok(GroupedProvenanceOf {
            keys,
            polys: PolySet::from_vec(polys),
        })
    }

    /// [`aggregate_sum`](Self::aggregate_sum) in the interned currency:
    /// each row's rule monomial is interned into a shared
    /// [`MonoArena`] at emission and the per-group polynomials are
    /// accumulated by id and handed over as sorted runs — the provenance
    /// leaves the engine already as a [`WorkingSet`], with no
    /// [`Polynomial`] hash maps anywhere. Group keys, group order and polynomial semantics are
    /// identical to [`aggregate_sum`](Self::aggregate_sum).
    pub fn aggregate_sum_interned(
        &self,
        group_cols: &[&str],
        measure: &Expr,
        rules: &[VarRule],
        vars: &mut VarTable,
    ) -> Result<GroupedProvenanceInterned, EngineError> {
        self.aggregate_with_interned(group_cols, measure, rules, vars, |x| x)
    }

    /// Interned grouped aggregation over any coefficient type; `wrap`
    /// lifts the measured `f64` into the aggregate's carrier. See
    /// [`aggregate_sum_interned`](Self::aggregate_sum_interned).
    pub fn aggregate_with_interned<C: Coefficient>(
        &self,
        group_cols: &[&str],
        measure: &Expr,
        rules: &[VarRule],
        vars: &mut VarTable,
        wrap: impl Fn(f64) -> C,
    ) -> Result<GroupedProvenanceInternedOf<C>, EngineError> {
        let mut arena = MonoArena::new();
        // Accumulation maps, one per group, for the length of the
        // emission only: rows of a group hit one monomial many times and
        // their measures are summed in emission order. They are not the
        // working set's storage — `from_parts` drains each into a run.
        let mut terms: Vec<FxHashMap<MonoId, C>> = Vec::new();
        let mut writer = arena.writer();
        let keys = self.emit(group_cols, measure, rules, vars, |slot, factors, x| {
            let id = writer.intern_factors(factors);
            if slot == terms.len() {
                terms.push(FxHashMap::default());
            }
            // The id-space `add_term`: the shared accumulate-and-drop
            // rule, so both currencies cancel zeros identically.
            provabs_provenance::intern::accumulate(&mut terms[slot], id, wrap(x));
        })?;
        drop(writer);
        Ok(GroupedProvenanceInternedOf {
            keys,
            working: WorkingSet::from_parts(arena, terms),
        })
    }

    /// The emission core both aggregations share: drives the plan and
    /// hands `term` each row's `(group slot, canonical monomial factors,
    /// measure)`; returns the group keys in first-occurrence order. Slots
    /// are dense and a new group's slot is the number of groups so far.
    ///
    /// Nothing is allocated or copied per row in the steady state: the
    /// measure reads its columns in place, each rule answers from its
    /// value → variable cache, the factors live in one reused buffer, and
    /// the group is found by hashing its cells where they are stored (a
    /// key is cloned only for a new group).
    fn emit(
        &self,
        group_cols: &[&str],
        measure: &Expr,
        rules: &[VarRule],
        vars: &mut VarTable,
        mut term: impl FnMut(usize, &[(VarId, u32)], f64),
    ) -> Result<Vec<Row>, EngineError> {
        let (_, group_idx) = self.schema.project(group_cols)?;
        let group_idx: Vec<usize> = group_idx.into_iter().map(|i| self.cols[i]).collect();
        let mut measure = measure.resolve(&self.schema)?;
        measure.remap(&self.cols);
        let mut rules: Vec<ResolvedRule> = rules
            .iter()
            .map(|rule| {
                let mut rule = rule.resolve(&self.schema)?;
                rule.remap(&self.cols);
                Ok(rule)
            })
            .collect::<Result<_, EngineError>>()?;

        let mut groups = Groups::default();
        let mut factors: Vec<(VarId, u32)> = Vec::with_capacity(rules.len());
        self.drive(|cursor| {
            let x = measure.eval_f64(cursor)?;
            factors.clear();
            for rule in &mut rules {
                factors.push((rule.var(cursor, vars)?, 1));
            }
            Monomial::canonicalise(&mut factors);
            term(groups.slot(cursor, &group_idx), &factors, x);
            Ok(())
        })?;
        Ok(groups.keys)
    }
}

/// `GROUP BY` keys in first-occurrence order, found by hashing the group
/// columns where they are stored. Groups whose keys hash alike are
/// chained through `next`.
#[derive(Default)]
struct Groups {
    keys: Vec<Row>,
    /// Key hash → first group with that hash.
    first: FxHashMap<u64, usize>,
    /// Group → next group with the same key hash.
    next: Vec<Option<usize>>,
}

impl Groups {
    /// The slot of `row`'s group, appending the group on first sight.
    fn slot<R: Cells + ?Sized>(&mut self, row: &R, cols: &[usize]) -> usize {
        let hash = hash_key(row, cols);
        let mut last = None;
        let mut at = self.first.get(&hash).copied();
        while let Some(group) = at {
            if self.keys[group]
                .iter()
                .zip(cols)
                .all(|(k, &c)| k.cell() == row.cell(c))
            {
                return group;
            }
            last = Some(group);
            at = self.next[group];
        }
        let group = self.keys.len();
        self.keys
            .push(cols.iter().map(|&c| row.cell(c).to_value()).collect());
        self.next.push(None);
        match last {
            Some(last) => self.next[last] = Some(group),
            None => {
                self.first.insert(hash, group);
            }
        }
        group
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("plan", &self.explain())
            .field("schema", &self.schema)
            .finish()
    }
}

/// Output of a provenance aggregation: group keys aligned with one
/// polynomial each.
#[derive(Clone, Debug)]
pub struct GroupedProvenanceOf<C: Coefficient> {
    /// Group keys in first-occurrence order.
    pub keys: Vec<Row>,
    /// One polynomial per group, aligned with `keys`.
    pub polys: PolySet<C>,
}

/// SUM-aggregate provenance (ordinary `f64` coefficients).
pub type GroupedProvenance = GroupedProvenanceOf<f64>;

/// Output of an *interned* provenance aggregation: group keys aligned
/// with an id-space working set over the arena the aggregation emitted
/// into. The hot-path hand-off to the abstraction layer — no conversion
/// needed.
#[derive(Clone, Debug)]
pub struct GroupedProvenanceInternedOf<C: Coefficient> {
    /// Group keys in first-occurrence order.
    pub keys: Vec<Row>,
    /// One id-space polynomial per group, aligned with `keys`, over the
    /// emission arena.
    pub working: WorkingSet<C>,
}

/// Interned SUM-aggregate provenance (ordinary `f64` coefficients).
pub type GroupedProvenanceInterned = GroupedProvenanceInternedOf<f64>;

impl<C: Coefficient> GroupedProvenanceInternedOf<C> {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The materialising bridge into the hash-map representation
    /// (identical keys and polynomials to the non-interned aggregation) —
    /// for [`PolySet`] consumers only; hot paths keep the working set.
    pub fn into_grouped(self) -> GroupedProvenanceOf<C> {
        GroupedProvenanceOf {
            keys: self.keys,
            polys: self.working.to_polyset(),
        }
    }
}

impl<C: Coefficient> GroupedProvenanceOf<C> {
    /// The polynomial of a specific group key.
    pub fn poly_for(&self, key: &Row) -> Option<&Polynomial<C>> {
        self.keys
            .iter()
            .position(|k| k == key)
            .map(|i| &self.polys.as_slice()[i])
    }

    /// The plain (provenance-free) aggregate values: every variable set
    /// to the multiplicative identity.
    pub fn values_at_neutral(&self) -> Vec<C> {
        self.polys.eval(|_| C::one())
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl GroupedProvenance {
    /// The plain SQL answer: every variable set to 1.
    pub fn plain_values(&self) -> Vec<f64> {
        self.polys.eval(|_| 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;
    use provabs_provenance::display::poly_to_string;
    use provabs_provenance::parse::parse_polynomial;

    /// The database fragment of Figure 1 (customer 1's January duration is
    /// 552: the printed 522 is inconsistent with Example 2's coefficient
    /// 220.8 = 552 × 0.4, and every other coefficient matches Figure 1, so
    /// we follow the polynomial).
    pub fn figure_1_catalog() -> Catalog {
        let mut cust = Table::new(Schema::of(&[
            ("ID", ColumnType::Int),
            ("Plan", ColumnType::Str),
            ("Zip", ColumnType::Str),
        ]));
        for (id, plan, zip) in [
            (1, "A", "10001"),
            (2, "F1", "10001"),
            (3, "SB1", "10002"),
            (4, "Y1", "10001"),
            (5, "V", "10001"),
            (6, "E", "10002"),
            (7, "SB2", "10002"),
        ] {
            cust.push(vec![Value::Int(id), Value::str(plan), Value::str(zip)])
                .expect("ok");
        }
        let mut calls = Table::new(Schema::of(&[
            ("CID", ColumnType::Int),
            ("Mo", ColumnType::Int),
            ("Dur", ColumnType::Int),
        ]));
        for (cid, mo, dur) in [
            (1, 1, 552),
            (2, 1, 364),
            (3, 1, 779),
            (4, 1, 253),
            (5, 1, 168),
            (6, 1, 1044),
            (7, 1, 697),
            (1, 3, 480),
            (2, 3, 327),
            (3, 3, 805),
            (4, 3, 290),
            (5, 3, 121),
            (6, 3, 1130),
            (7, 3, 671),
        ] {
            calls
                .push(vec![Value::Int(cid), Value::Int(mo), Value::Int(dur)])
                .expect("ok");
        }
        let mut plans = Table::new(Schema::of(&[
            ("Plan", ColumnType::Str),
            ("PMo", ColumnType::Int),
            ("Price", ColumnType::Float),
        ]));
        for (plan, mo, price) in [
            ("A", 1, 0.4),
            ("F1", 1, 0.35),
            ("Y1", 1, 0.3),
            ("V", 1, 0.25),
            ("SB1", 1, 0.1),
            ("SB2", 1, 0.1),
            ("E", 1, 0.05),
            ("A", 3, 0.5),
            ("F1", 3, 0.35),
            ("Y1", 3, 0.25),
            ("V", 3, 0.2),
            ("SB1", 3, 0.1),
            ("SB2", 3, 0.15),
            ("E", 3, 0.05),
        ] {
            plans
                .push(vec![Value::str(plan), Value::Int(mo), Value::float(price)])
                .expect("ok");
        }
        let mut catalog = Catalog::new();
        catalog.register("Cust", cust).expect("ok");
        catalog.register("Calls", calls).expect("ok");
        catalog.register("Plans", plans).expect("ok");
        catalog
    }

    /// The revenue query of Example 1 with the parameterization of
    /// Example 2.
    fn revenue_provenance() -> (GroupedProvenance, VarTable) {
        let catalog = figure_1_catalog();
        let mut vars = VarTable::new();
        let joined = Pipeline::scan(&catalog, "Cust")
            .expect("scan")
            .join(&catalog, "Calls", &[("ID", "CID")])
            .expect("join calls")
            .join(&catalog, "Plans", &[("Plan", "Plan")])
            .expect("join plans")
            .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
            .expect("month equality");
        let grouped = joined
            .aggregate_sum(
                &["Zip"],
                &Expr::col("Dur").mul(Expr::col("Price")),
                &[
                    VarRule::mapped(
                        "Plan",
                        [
                            ("A", "p1"),
                            ("F1", "f1"),
                            ("Y1", "y1"),
                            ("V", "v"),
                            ("SB1", "b1"),
                            ("SB2", "b2"),
                            ("E", "e"),
                        ],
                    ),
                    VarRule::per_value("Mo", "m"),
                ],
                &mut vars,
            )
            .expect("aggregate");
        (grouped, vars)
    }

    #[test]
    fn example_2_polynomial_for_zip_10001() {
        let (grouped, mut vars) = revenue_provenance();
        let p = grouped
            .poly_for(&vec![Value::str("10001")])
            .expect("zip present");
        let expected = parse_polynomial(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3",
            &mut vars,
        )
        .expect("parse");
        assert_eq!(p.size_m(), 8);
        for (m, &c) in expected.iter() {
            let got = p.coefficient(m);
            assert!(
                (got - c).abs() < 1e-9,
                "coefficient of {}: got {got}, want {c}",
                poly_to_string(&Polynomial::from_terms([(m.clone(), c)]), &vars)
            );
        }
    }

    #[test]
    fn example_13_polynomial_for_zip_10002() {
        let (grouped, mut vars) = revenue_provenance();
        let p = grouped
            .poly_for(&vec![Value::str("10002")])
            .expect("zip present");
        let expected = parse_polynomial(
            "77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 \
             + 69.7·b2·m1 + 100.65·b2·m3",
            &mut vars,
        )
        .expect("parse");
        assert_eq!(p.size_m(), 6);
        for (m, &c) in expected.iter() {
            assert!((p.coefficient(m) - c).abs() < 1e-9);
        }
    }

    #[test]
    fn interned_aggregation_matches_hashmap_aggregation() {
        let catalog = figure_1_catalog();
        let pipeline = Pipeline::scan(&catalog, "Cust")
            .expect("scan")
            .join(&catalog, "Calls", &[("ID", "CID")])
            .expect("join calls")
            .join(&catalog, "Plans", &[("Plan", "Plan")])
            .expect("join plans")
            .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
            .expect("month equality");
        let rules = [
            VarRule::per_value("Plan", "plan_"),
            VarRule::per_value("Mo", "m"),
        ];
        let measure = Expr::col("Dur").mul(Expr::col("Price"));
        let mut vars_a = VarTable::new();
        let grouped = pipeline
            .aggregate_sum(&["Zip"], &measure, &rules, &mut vars_a)
            .expect("aggregate");
        let mut vars_b = VarTable::new();
        let interned = pipeline
            .aggregate_sum_interned(&["Zip"], &measure, &rules, &mut vars_b)
            .expect("aggregate");
        assert_eq!(grouped.keys, interned.keys);
        assert_eq!(vars_a.len(), vars_b.len());
        assert_eq!(interned.working.size_m(), grouped.polys.size_m());
        assert_eq!(interned.working.size_v(), grouped.polys.size_v());
        let bridged = interned.into_grouped();
        for (a, b) in bridged.polys.iter().zip(grouped.polys.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn neutral_valuation_recovers_plain_sql_answer() {
        // Summing Dur·Price per zip without provenance must equal the
        // polynomial evaluated at all-ones.
        let (grouped, _) = revenue_provenance();
        let plain = grouped.plain_values();
        let by_hand_10001 = 220.8 + 240.0 + 127.4 + 114.45 + 75.9 + 72.5 + 42.0 + 24.2;
        let by_hand_10002 = 77.9 + 80.5 + 52.2 + 56.5 + 69.7 + 100.65;
        let i1 = grouped
            .keys
            .iter()
            .position(|k| k == &vec![Value::str("10001")])
            .expect("zip");
        let i2 = grouped
            .keys
            .iter()
            .position(|k| k == &vec![Value::str("10002")])
            .expect("zip");
        assert!((plain[i1] - by_hand_10001).abs() < 1e-9);
        assert!((plain[i2] - by_hand_10002).abs() < 1e-9);
    }

    #[test]
    fn aggregate_without_rules_is_plain_sum() {
        let catalog = figure_1_catalog();
        let mut vars = VarTable::new();
        let grouped = Pipeline::scan(&catalog, "Calls")
            .expect("scan")
            .aggregate_sum(&["Mo"], &Expr::col("Dur"), &[], &mut vars)
            .expect("aggregate");
        assert_eq!(grouped.len(), 2); // months 1 and 3

        // A variable-free polynomial is a single constant monomial.
        assert!(grouped.polys.iter().all(|p| p.size_m() == 1));
        let total: f64 = grouped.plain_values().iter().sum();
        assert!(
            (total
                - (552
                    + 364
                    + 779
                    + 253
                    + 168
                    + 1044
                    + 697
                    + 480
                    + 327
                    + 805
                    + 290
                    + 121
                    + 1130
                    + 671) as f64)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn aggregate_min_tracks_cheapest_contribution() {
        // MIN(Dur · Price) per zip: provenance carries the minimum per
        // (plan, month) monomial; at the neutral valuation it equals the
        // plain SQL MIN.
        let catalog = figure_1_catalog();
        let mut vars = VarTable::new();
        let grouped = Pipeline::scan(&catalog, "Cust")
            .expect("scan")
            .join(&catalog, "Calls", &[("ID", "CID")])
            .expect("join")
            .join(&catalog, "Plans", &[("Plan", "Plan")])
            .expect("join")
            .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
            .expect("filter")
            .aggregate_min(
                &["Zip"],
                &Expr::col("Dur").mul(Expr::col("Price")),
                &[VarRule::per_value("Mo", "m")],
                &mut vars,
            )
            .expect("aggregate");
        let i = grouped
            .keys
            .iter()
            .position(|k| k == &vec![Value::str("10001")])
            .expect("zip");
        let value = grouped.values_at_neutral()[i];
        // Plain MIN over zip 10001: min of all Dur·Price terms = 24.2
        // (customer 5 in March: 121 × 0.2).
        assert!((value.0 - 24.2).abs() < 1e-9);
        // Per-month granularity: the March monomial holds the March min.
        let m3 = vars.lookup("m3").expect("interned");
        let march = grouped.polys.as_slice()[i]
            .coefficient(&provabs_provenance::monomial::Monomial::var(m3));
        assert!((march.0 - 24.2).abs() < 1e-9);
        let m1 = vars.lookup("m1").expect("interned");
        let january = grouped.polys.as_slice()[i]
            .coefficient(&provabs_provenance::monomial::Monomial::var(m1));
        assert!((january.0 - 42.0).abs() < 1e-9); // customer 5: 168 × 0.25
    }

    #[test]
    fn min_provenance_supports_abstraction_semantics() {
        // Grouping months m1, m3 into one meta-variable takes the min of
        // the merged monomials — scaling the group scales the min.
        let catalog = figure_1_catalog();
        let mut vars = VarTable::new();
        let grouped = Pipeline::scan(&catalog, "Cust")
            .expect("scan")
            .join(&catalog, "Calls", &[("ID", "CID")])
            .expect("join")
            .join(&catalog, "Plans", &[("Plan", "Plan")])
            .expect("join")
            .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
            .expect("filter")
            .aggregate_min(
                &["Zip"],
                &Expr::col("Dur").mul(Expr::col("Price")),
                &[VarRule::per_value("Mo", "m")],
                &mut vars,
            )
            .expect("aggregate");
        let q1 = vars.intern("q1");
        let m1 = vars.lookup("m1").expect("interned");
        let m3 = vars.lookup("m3").expect("interned");
        let merged = grouped
            .polys
            .map_vars(|v| if v == m1 || v == m3 { q1 } else { v });
        assert!(merged.size_m() <= grouped.polys.size_m());
        // Neutral evaluation is preserved by merging (min of mins).
        let before: Vec<_> = grouped.polys.eval(|_| MinF64(1.0));
        let after: Vec<_> = merged.eval(|_| MinF64(1.0));
        assert_eq!(before, after);
    }

    fn revenue_plan(catalog: &Catalog) -> Pipeline {
        Pipeline::scan(catalog, "Cust")
            .expect("scan")
            .join(catalog, "Calls", &[("ID", "CID")])
            .expect("join calls")
            .join(catalog, "Plans", &[("Plan", "Plan")])
            .expect("join plans")
            .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
            .expect("month equality")
    }

    #[test]
    fn explain_shows_the_month_equality_folded_into_the_plans_join() {
        let catalog = figure_1_catalog();
        assert_eq!(
            revenue_plan(&catalog).explain(),
            "scan Cust\n\
             join Calls on (ID = CID)\n\
             join Plans on (Plan = Plan, Mo = PMo) [pushed down]"
        );
        // Written the other way round it folds the same way.
        let flipped = Pipeline::scan(&catalog, "Cust")
            .expect("scan")
            .join(&catalog, "Calls", &[("ID", "CID")])
            .expect("join")
            .join(&catalog, "Plans", &[("Plan", "Plan")])
            .expect("join")
            .filter(&Expr::col("PMo").eq(Expr::col("Mo")))
            .expect("filter");
        assert!(flipped
            .explain()
            .ends_with("join Plans on (Plan = Plan, Mo = PMo) [pushed down]"));
        let rows = |t: &Table| (0..t.len()).map(|i| t.row(i)).collect::<Vec<_>>();
        assert_eq!(rows(flipped.table()), rows(revenue_plan(&catalog).table()));
    }

    #[test]
    fn only_an_equality_across_the_join_directly_before_is_pushed_down() {
        let catalog = figure_1_catalog();
        let joined = || {
            Pipeline::scan(&catalog, "Cust")
                .expect("scan")
                .join(&catalog, "Calls", &[("ID", "CID")])
                .expect("join")
        };
        let residual = |pred: Expr| {
            let plan = joined().filter(&pred).expect("filter").explain();
            assert!(!plan.contains("[pushed down]"), "{plan}");
            plan
        };
        // Both columns on the probe side; both on the build side; not an
        // equality; not column against column.
        assert!(residual(Expr::col("Plan").eq(Expr::col("Zip"))).ends_with("filter Plan = Zip"));
        residual(Expr::col("Mo").eq(Expr::col("Dur")));
        residual(Expr::col("ID").lt(Expr::col("Dur")));
        residual(Expr::col("Mo").eq(Expr::lit(1i64)));
        // A projection in between: the join is no longer directly before.
        let plan = joined()
            .project(&["ID", "Dur"])
            .expect("project")
            .filter(&Expr::col("ID").eq(Expr::col("Dur")))
            .expect("filter")
            .explain();
        assert!(
            plan.ends_with("project (ID, Dur)\nfilter ID = Dur"),
            "{plan}"
        );
        // Across the join it is folded.
        assert!(joined()
            .filter(&Expr::col("ID").eq(Expr::col("Dur")))
            .expect("filter")
            .explain()
            .ends_with("join Calls on (ID = CID, ID = Dur) [pushed down]"));
    }

    #[test]
    fn filter_refuses_ill_typed_predicates_itself() {
        let catalog = figure_1_catalog();
        let cust = || Pipeline::scan(&catalog, "Cust").expect("scan");
        let refused =
            |pred: Expr| matches!(cust().filter(&pred), Err(EngineError::TypeMismatch { .. }));
        // A string compared with a number.
        assert!(refused(Expr::col("Plan").eq(Expr::col("ID"))));
        assert!(refused(Expr::col("ID").lt(Expr::lit("A"))));
        // Arithmetic on a string.
        assert!(refused(
            Expr::col("Zip").add(Expr::lit(1i64)).gt(Expr::lit(0i64))
        ));
        // A non-boolean under AND / OR / NOT, or as the whole predicate.
        let cmp = || Expr::col("ID").gt(Expr::lit(3i64));
        assert!(refused(cmp().and(Expr::col("Zip"))));
        assert!(refused(Expr::col("Plan").or(cmp())));
        assert!(refused(Expr::Not(Box::new(Expr::col("Zip")))));
        assert!(refused(Expr::col("ID").mul(Expr::lit(2i64))));
        // An unknown column is still an unknown column.
        assert_eq!(
            cust().filter(&Expr::col("zz").eq(Expr::lit(1i64))).err(),
            Some(EngineError::UnknownColumn("zz".into()))
        );
        assert!(cust().filter(&cmp()).is_ok());
    }

    #[test]
    fn an_ill_typed_predicate_is_refused_even_over_an_empty_table() {
        let empty = Table::new(Schema::of(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
        ]));
        let refused =
            Pipeline::from_table(empty.clone()).filter(&Expr::col("name").eq(Expr::col("id")));
        assert!(matches!(refused, Err(EngineError::TypeMismatch { .. })));
        let fine = Pipeline::from_table(empty)
            .filter(&Expr::col("name").eq(Expr::lit("x")))
            .expect("well-typed");
        assert!(fine.table().is_empty());
    }

    #[test]
    fn a_bare_scan_hands_out_the_catalog_table_itself() {
        let catalog = figure_1_catalog();
        let scan = Pipeline::scan(&catalog, "Calls").expect("scan");
        assert!(std::ptr::eq(
            scan.table(),
            catalog.get("Calls").expect("registered")
        ));
        assert_eq!(scan.explain(), "scan Calls");
    }

    #[test]
    fn table_materialises_once_and_builders_start_afresh() {
        let catalog = figure_1_catalog();
        let plan = revenue_plan(&catalog);
        assert!(std::ptr::eq(plan.table(), plan.table()));
        assert_eq!(plan.table().len(), 14);
        assert_eq!(plan.table().schema().arity(), 9);
        // Extending a pipeline whose table was already asked for yields
        // the extended result, not the kept one.
        let january = plan
            .filter(&Expr::col("Mo").eq(Expr::lit(1i64)))
            .expect("filter");
        assert_eq!(january.table().len(), 7);
    }

    #[test]
    fn pushing_down_after_a_clone_executed_keeps_both_right() {
        let catalog = figure_1_catalog();
        let unfiltered = Pipeline::scan(&catalog, "Cust")
            .expect("scan")
            .join(&catalog, "Calls", &[("ID", "CID")])
            .expect("join")
            .join(&catalog, "Plans", &[("Plan", "Plan")])
            .expect("join");
        // The clone builds the (Plan)-keyed index …
        assert_eq!(unfiltered.clone().table().len(), 28);
        // … and the original, re-keyed on (Plan, PMo), must not reuse it.
        let filtered = unfiltered
            .clone()
            .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
            .expect("filter");
        assert_eq!(filtered.table().len(), 14);
        assert_eq!(unfiltered.table().len(), 28);
    }

    #[test]
    fn projection_is_a_column_mapping_through_later_stages() {
        let catalog = figure_1_catalog();
        // Project `Plan` away on the probe side, then join a table that
        // has a `Plan` of its own: no collision, no prefix.
        let p = Pipeline::scan(&catalog, "Cust")
            .expect("scan")
            .join(&catalog, "Calls", &[("ID", "CID")])
            .expect("join")
            .project(&["Dur", "Zip", "Mo", "ID"])
            .expect("project")
            .filter(&Expr::col("Mo").eq(Expr::lit(3i64)))
            .expect("filter")
            .join(&catalog, "Plans", &[("Mo", "PMo")])
            .expect("join")
            .project(&["Plan", "Dur", "ID"])
            .expect("project");
        let t = p.table();
        assert_eq!(t.schema().arity(), 3);
        assert_eq!(t.schema().name(0), "Plan");
        // 7 March calls × 7 March plan prices.
        assert_eq!(t.len(), 49);
        assert_eq!(
            t.row(0),
            vec![Value::str("A"), Value::Int(480), Value::Int(1)]
        );
        let mut vars = VarTable::new();
        let grouped = p
            .aggregate_sum(
                &["ID"],
                &Expr::col("Dur"),
                &[VarRule::per_value("Plan", "x")],
                &mut vars,
            )
            .expect("aggregate");
        assert_eq!(grouped.len(), 7);
        assert_eq!(grouped.polys.size_m(), 49);
    }

    #[test]
    fn pipeline_project_and_filter() {
        let catalog = figure_1_catalog();
        let p = Pipeline::scan(&catalog, "Cust")
            .expect("scan")
            .filter(&Expr::col("Zip").eq(Expr::lit("10002")))
            .expect("filter")
            .project(&["Plan"])
            .expect("project");
        assert_eq!(p.table().len(), 3);
        assert_eq!(p.table().schema().arity(), 1);
    }
}
