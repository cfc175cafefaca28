//! Plain, eager relational operators over [`Table`]s, one materialised
//! table per operator.
//!
//! Query pipelines no longer run on these: [`crate::query::Pipeline`]
//! drives its whole plan as one fused loop and materialises nothing in
//! between. The eager operators stay as the *oracle* that loop is tested
//! against (`tests/fused_equivalence.rs`) and as the baseline of
//! `bench_engine`; [`JoinIndex`] is shared by every join in the engine.
//!
//! Joins are hash joins that always build on the **right** input and
//! probe with the left, whatever the sizes. Output order is therefore
//! left-major, with the matches of one left row in build (right-table)
//! order — and that order is load-bearing: the aggregation sums
//! coefficients in row order, so a different row order changes the last
//! bits of provenance coefficients and the ids monomials intern to.

use crate::error::EngineError;
use crate::expr::Expr;
use crate::table::Table;
use crate::value::Row;
use provabs_provenance::fxhash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};

/// The FxHash of a row's key columns, computed in place — no key tuple is
/// materialised on either side of a join.
pub(crate) fn hash_key(row: &Row, cols: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// A reusable build-side index for equi-joins: build rows bucketed by the
/// hash of their key columns. Unlike the previous `FxHashMap<Row, _>`
/// design, neither building nor probing clones any [`Value`] — keys are
/// hashed and compared column-wise against the original rows. Shared by
/// every hash join in the engine ([`hash_join`], the K-relation `⋈`, and
/// the query pipeline's fused probe).
///
/// [`Value`]: crate::value::Value
#[derive(Debug)]
pub struct JoinIndex {
    /// Key column indices on the build side.
    key_cols: Vec<usize>,
    /// `key hash → build row indices`, in build order.
    buckets: FxHashMap<u64, Vec<usize>>,
}

impl JoinIndex {
    /// Indexes the build rows by their `key_cols` hash.
    pub fn build<'a>(rows: impl IntoIterator<Item = &'a Row>, key_cols: Vec<usize>) -> Self {
        let mut buckets: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for (i, row) in rows.into_iter().enumerate() {
            buckets.entry(hash_key(row, &key_cols)).or_default().push(i);
        }
        Self { key_cols, buckets }
    }

    /// Candidate build-row indices for a probe row, in build order. Hash
    /// bucket only — confirm each candidate with
    /// [`key_matches`](Self::key_matches) (hash collisions are possible).
    pub fn candidates(&self, probe: &Row, probe_cols: &[usize]) -> &[usize] {
        self.buckets
            .get(&hash_key(probe, probe_cols))
            .map_or(&[], Vec::as_slice)
    }

    /// Whether `build`'s key columns equal `probe`'s, column-wise.
    pub fn key_matches(&self, build: &Row, probe: &Row, probe_cols: &[usize]) -> bool {
        self.key_cols
            .iter()
            .zip(probe_cols)
            .all(|(&b, &p)| build[b] == probe[p])
    }
}

/// σ: rows satisfying `pred`.
pub fn filter(table: &Table, pred: &Expr) -> Result<Table, EngineError> {
    let resolved = pred.resolve(table.schema())?;
    let mut out = Table::new(table.schema().clone());
    for row in table.rows() {
        if resolved.eval_bool(row)? {
            out.push_unchecked(row.clone());
        }
    }
    Ok(out)
}

/// π (without deduplication — bag semantics): the named columns, in order.
pub fn project(table: &Table, columns: &[&str]) -> Result<Table, EngineError> {
    let (schema, idx) = table.schema().project(columns)?;
    let mut out = Table::new(schema);
    out.reserve(table.len());
    for row in table.rows() {
        out.push_unchecked(idx.iter().map(|&i| row[i].clone()).collect());
    }
    Ok(out)
}

/// ⋈: equi-join on `on = [(left column, right column)]`. Colliding right
/// column names are prefixed with `prefix`.
pub fn hash_join(
    left: &Table,
    right: &Table,
    on: &[(&str, &str)],
    prefix: &str,
) -> Result<Table, EngineError> {
    let schema = left.schema().join(right.schema(), prefix)?;
    let left_keys: Vec<usize> = on
        .iter()
        .map(|(l, _)| left.schema().index_of(l))
        .collect::<Result<_, _>>()?;
    let right_keys: Vec<usize> = on
        .iter()
        .map(|(_, r)| right.schema().index_of(r))
        .collect::<Result<_, _>>()?;

    let index = JoinIndex::build(right.rows(), right_keys);

    let mut out = Table::new(schema);
    for lrow in left.rows() {
        for &ri in index.candidates(lrow, &left_keys) {
            let rrow = &right.rows()[ri];
            if index.key_matches(rrow, lrow, &left_keys) {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                out.push_unchecked(row);
            }
        }
    }
    Ok(out)
}

/// ∪ (bag): concatenation; schemas must agree on names and order.
pub fn union(left: &Table, right: &Table) -> Result<Table, EngineError> {
    for (i, (name, _)) in left.schema().iter().enumerate() {
        if i >= right.schema().arity() || right.schema().name(i) != name {
            return Err(EngineError::UnknownColumn(name.to_string()));
        }
    }
    let mut out = Table::new(left.schema().clone());
    out.reserve(left.len() + right.len());
    for row in left.rows().iter().chain(right.rows()) {
        out.push_unchecked(row.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;

    fn cust() -> Table {
        let mut t = Table::new(Schema::of(&[
            ("ID", ColumnType::Int),
            ("Plan", ColumnType::Str),
            ("Zip", ColumnType::Str),
        ]));
        for (id, plan, zip) in [(1, "A", "10001"), (2, "F1", "10001"), (3, "SB1", "10002")] {
            t.push(vec![Value::Int(id), Value::str(plan), Value::str(zip)])
                .expect("ok");
        }
        t
    }

    fn calls() -> Table {
        let mut t = Table::new(Schema::of(&[
            ("CID", ColumnType::Int),
            ("Mo", ColumnType::Int),
            ("Dur", ColumnType::Int),
        ]));
        for (cid, mo, dur) in [(1, 1, 552), (2, 1, 364), (3, 1, 779), (1, 3, 480)] {
            t.push(vec![Value::Int(cid), Value::Int(mo), Value::Int(dur)])
                .expect("ok");
        }
        t
    }

    #[test]
    fn filter_selects_matching_rows() {
        let t = filter(&cust(), &Expr::col("Zip").eq(Expr::lit("10001"))).expect("filter");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn join_matches_keys() {
        let j = hash_join(&cust(), &calls(), &[("ID", "CID")], "c").expect("join");
        assert_eq!(j.len(), 4);
        assert_eq!(j.schema().arity(), 6);
        // Customer 1 appears twice (months 1 and 3).
        let ones = j.rows().iter().filter(|r| r[0] == Value::Int(1)).count();
        assert_eq!(ones, 2);
    }

    #[test]
    fn join_on_multiple_keys() {
        let j = hash_join(&calls(), &calls(), &[("CID", "CID"), ("Mo", "Mo")], "r").expect("join");
        assert_eq!(j.len(), 4); // each row matches itself only
    }

    #[test]
    fn project_keeps_order_and_bag_semantics() {
        let p = project(&calls(), &["Mo"]).expect("project");
        assert_eq!(p.len(), 4); // no dedup
        assert_eq!(p.schema().arity(), 1);
    }

    #[test]
    fn union_concatenates() {
        let u = union(&calls(), &calls()).expect("union");
        assert_eq!(u.len(), 8);
        assert!(union(&calls(), &cust()).is_err());
    }

    #[test]
    fn empty_join_result() {
        let mut other = Table::new(Schema::of(&[("CID", ColumnType::Int)]));
        other.push(vec![Value::Int(99)]).expect("ok");
        let j = hash_join(&other, &calls(), &[("CID", "CID")], "c").expect("join");
        assert!(j.is_empty());
    }
}
