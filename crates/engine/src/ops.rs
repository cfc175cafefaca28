//! Plain, eager relational operators over [`Table`]s, one materialised
//! table per operator.
//!
//! Query pipelines no longer run on these: [`crate::query::Pipeline`]
//! drives its whole plan as one fused loop and materialises nothing in
//! between. The eager operators stay as the *oracle* that loop is tested
//! against (`tests/fused_equivalence.rs`) and as the baseline of
//! `bench_engine`; the build-side `JoinIndex` is shared by every join in
//! the engine. Like the pipeline, they read cells in place from the
//! columnar tables and append each output row cell by cell.
//!
//! Joins are hash joins that always build on the **right** input and
//! probe with the left, whatever the sizes. Output order is therefore
//! left-major, with the matches of one left row in build (right-table)
//! order — and that order is load-bearing: the aggregation sums
//! coefficients in row order, so a different row order changes the last
//! bits of provenance coefficients and the ids monomials intern to.

use crate::error::EngineError;
use crate::expr::Expr;
use crate::table::{Table, TableRow};
use crate::value::{combine_key_hashes, Cells};
use provabs_provenance::fxhash::FxHashMap;

/// The hash of a row's key columns, folded from each cell's key hash (a
/// string's comes from its column's dictionary) — no key tuple is
/// materialised on either side of a join.
pub(crate) fn hash_key<R: Cells + ?Sized>(row: &R, cols: &[usize]) -> u64 {
    combine_key_hashes(cols.iter().map(|&c| row.key_hash(c)))
}

/// A reusable build-side index for equi-joins: the build table's row
/// indices grouped by the hash of their key columns — one `u32` per row
/// in one column, each group a range of it in build order. Keys are
/// hashed and compared cell-wise against the tables; no value is cloned.
/// Shared by every hash join in the engine ([`hash_join`] and the query
/// pipeline's fused probe).
#[derive(Debug)]
pub(crate) struct JoinIndex {
    /// Key column indices on the build side.
    key_cols: Vec<usize>,
    /// Key hash → `(start, len)` of its group in `rows`.
    groups: FxHashMap<u64, (u32, u32)>,
    /// Build row indices, group after group.
    rows: Vec<u32>,
}

impl JoinIndex {
    /// Indexes `table`'s rows by the hash of their `key_cols`.
    pub(crate) fn build(table: &Table, key_cols: Vec<usize>) -> Self {
        let len = u32::try_from(table.len()).expect("a join's build side holds < 2^32 rows");
        let hash = |row: u32| {
            hash_key(
                &TableRow {
                    table,
                    row: row as usize,
                },
                &key_cols,
            )
        };
        // Count each group, lay the groups out back to back, then fill
        // each in build order (counting it up again from zero).
        let mut groups: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
        for row in 0..len {
            groups.entry(hash(row)).or_default().1 += 1;
        }
        let mut start = 0;
        for (group_start, group_len) in groups.values_mut() {
            *group_start = start;
            start += std::mem::take(group_len);
        }
        let mut rows = vec![0; len as usize];
        for row in 0..len {
            let (group_start, filled) = groups.get_mut(&hash(row)).expect("counted above");
            rows[(*group_start + *filled) as usize] = row;
            *filled += 1;
        }
        Self {
            key_cols,
            groups,
            rows,
        }
    }

    /// Candidate build rows for a probe row whose key columns hash to
    /// `hash` ([`hash_key`]), in build order. Confirm each with
    /// [`key_matches`](Self::key_matches): different keys can share a hash.
    pub(crate) fn candidates(&self, hash: u64) -> &[u32] {
        self.groups.get(&hash).map_or(&[], |&(start, len)| {
            &self.rows[start as usize..(start + len) as usize]
        })
    }

    /// Whether build row `row` of `build` has the probe row's key.
    pub(crate) fn key_matches<R: Cells + ?Sized>(
        &self,
        build: &Table,
        row: u32,
        probe: &R,
        probe_cols: &[usize],
    ) -> bool {
        self.key_cols
            .iter()
            .zip(probe_cols)
            .all(|(&b, &p)| build.cell(row as usize, b) == probe.cell(p))
    }
}

/// σ: rows satisfying `pred`.
pub fn filter(table: &Table, pred: &Expr) -> Result<Table, EngineError> {
    let resolved = pred.resolve(table.schema())?;
    let mut out = Table::new(table.schema().clone());
    for row in 0..table.len() {
        if resolved.eval_bool(&TableRow { table, row })? {
            out.push_cells(table.row_cells(row));
        }
    }
    Ok(out)
}

/// π (without deduplication — bag semantics): the named columns, in order.
pub fn project(table: &Table, columns: &[&str]) -> Result<Table, EngineError> {
    let (schema, idx) = table.schema().project(columns)?;
    Ok(table.select(schema, &idx))
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

    let index = JoinIndex::build(right, right_keys);

    let mut out = Table::new(schema);
    for l in 0..left.len() {
        let probe = TableRow {
            table: left,
            row: l,
        };
        for &r in index.candidates(hash_key(&probe, &left_keys)) {
            if index.key_matches(right, r, &probe, &left_keys) {
                out.push_cells(left.row_cells(l).chain(right.row_cells(r as usize)));
            }
        }
    }
    Ok(out)
}

/// ∪ (bag): concatenation; schemas must agree on names, order and types.
pub fn union(left: &Table, right: &Table) -> Result<Table, EngineError> {
    let (l, r) = (left.schema(), right.schema());
    for i in 0..l.arity().max(r.arity()) {
        if i >= l.arity() {
            return Err(EngineError::UnknownColumn(r.name(i).to_string()));
        }
        if i >= r.arity() || r.name(i) != l.name(i) {
            return Err(EngineError::UnknownColumn(l.name(i).to_string()));
        }
        if r.column_type(i) != l.column_type(i) {
            return Err(EngineError::TypeMismatch {
                expected: "union columns of one type",
                got: l.name(i).to_string(),
            });
        }
    }
    let mut out = Table::new(l.clone());
    out.reserve(left.len() + right.len());
    for table in [left, right] {
        for row in 0..table.len() {
            out.push_cells(table.row_cells(row));
        }
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
        let ones = (0..j.len())
            .filter(|&i| j.row(i)[0] == Value::Int(1))
            .count();
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
        let floats = Table::new(Schema::of(&[
            ("CID", ColumnType::Int),
            ("Mo", ColumnType::Int),
            ("Dur", ColumnType::Float),
        ]));
        assert!(union(&calls(), &floats).is_err(), "column types must agree");
    }

    #[test]
    fn empty_join_result() {
        let mut other = Table::new(Schema::of(&[("CID", ColumnType::Int)]));
        other.push(vec![Value::Int(99)]).expect("ok");
        let j = hash_join(&other, &calls(), &[("CID", "CID")], "c").expect("join");
        assert!(j.is_empty());
    }
}
