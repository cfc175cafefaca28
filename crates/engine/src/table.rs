//! Columnar in-memory tables.
//!
//! A [`Table`] stores one typed column per schema column, never a row of
//! [`Value`]s (see `docs/adr/019-columnar-tables.md`):
//!
//! * `Int` — a `Vec<i64>`;
//! * `Float` — one 64-bit word per row plus one bit saying whether the
//!   cell was pushed as an `Int` (which a `Float` column admits): the word
//!   is the float's bits, or the integer itself, so every cell reads back
//!   exactly as pushed — `Int(2^53 + 1)` stays that integer, and stays
//!   distinct from `Float(2^53)`;
//! * `Str` — a `u32` code per row into the column's own dictionary, which
//!   holds each distinct string once (as the `Arc<str>` it was first
//!   pushed as) with its key hash.
//!
//! [`Table::push`] is the checked append; [`Table::row`] and
//! [`Table::get`] read rows and cells back as owned values. The engine's
//! operators read cells in place, by `(row, column)`, and hash keys from
//! the ints and the dictionaries' stored hashes.

use crate::error::EngineError;
use crate::schema::{ColumnType, Schema};
use crate::value::{str_hash, Cell, Cells, Row, Value};
use provabs_provenance::fxhash::FxHashMap;
use std::sync::Arc;

/// A schema-checked, column-stored in-memory table.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    len: usize,
    /// One per schema column, of that column's type.
    columns: Vec<Column>,
}

#[derive(Clone, Debug)]
enum Column {
    Int(Vec<i64>),
    Float(FloatColumn),
    Str(StrColumn),
}

/// A `Float` column: per row a word and an "is an `Int`" bit.
#[derive(Clone, Debug, Default)]
struct FloatColumn {
    /// `f64::to_bits` of a float cell, the `i64` of an int cell.
    words: Vec<u64>,
    /// Bit `i % 64` of word `i / 64` is set iff row `i` holds an `Int`.
    ints: Vec<u64>,
}

/// A `Str` column: dictionary codes over the column's distinct strings.
#[derive(Clone, Debug, Default)]
struct StrColumn {
    codes: Vec<u32>,
    strings: Vec<Arc<str>>,
    /// [`str_hash`] of each dictionary entry, so keys hash without
    /// touching the string.
    hashes: Vec<u64>,
    index: FxHashMap<Arc<str>, u32>,
}

impl FloatColumn {
    fn push(&mut self, word: u64, is_int: bool) {
        let row = self.words.len();
        if row.is_multiple_of(64) {
            self.ints.push(0);
        }
        self.ints[row / 64] |= u64::from(is_int) << (row % 64);
        self.words.push(word);
    }

    fn cell(&self, row: usize) -> Cell<'_> {
        let word = self.words[row];
        if self.ints[row / 64] >> (row % 64) & 1 == 1 {
            Cell::Int(word as i64)
        } else {
            Cell::Float(f64::from_bits(word))
        }
    }
}

impl StrColumn {
    /// Entries a push first compares by address, before hashing.
    const SCANNED: usize = 16;

    fn push(&mut self, s: &Arc<str>) {
        // A row that carries one of the dictionary's own `Arc`s — a
        // generator sharing one string across rows, a copy out of another
        // table — is found by address: the dictionary keeps the entry
        // alive, so no other string can sit there.
        let shared = self.strings[..self.strings.len().min(Self::SCANNED)]
            .iter()
            .position(|entry| Arc::ptr_eq(entry, s));
        let code = match shared
            .map(|code| code as u32)
            .or_else(|| self.index.get(&**s).copied())
        {
            Some(code) => code,
            None => {
                let code = u32::try_from(self.strings.len())
                    .expect("a column holds fewer than 2^32 distinct strings");
                self.strings.push(Arc::clone(s));
                self.hashes.push(str_hash(s));
                self.index.insert(Arc::clone(s), code);
                code
            }
        };
        self.codes.push(code);
    }
}

impl Column {
    fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => Column::Int(Vec::new()),
            ColumnType::Float => Column::Float(FloatColumn::default()),
            ColumnType::Str => Column::Str(StrColumn::default()),
        }
    }

    /// Appends a cell the column's type admits ([`ColumnType::admits`]).
    fn push(&mut self, cell: Cell<'_>) {
        match (self, cell) {
            (Column::Int(values), Cell::Int(i)) => values.push(i),
            (Column::Float(column), Cell::Int(i)) => column.push(i as u64, true),
            (Column::Float(column), Cell::Float(f)) => column.push(f.to_bits(), false),
            (Column::Str(column), Cell::Str(s)) => column.push(s),
            (column, cell) => unreachable!("a {cell:?} cell pushed into {column:?}"),
        }
    }

    fn cell(&self, row: usize) -> Cell<'_> {
        match self {
            Column::Int(values) => Cell::Int(values[row]),
            Column::Float(column) => column.cell(row),
            Column::Str(column) => Cell::Str(&column.strings[column.codes[row] as usize]),
        }
    }

    fn key_hash(&self, row: usize) -> u64 {
        match self {
            Column::Str(column) => column.hashes[column.codes[row] as usize],
            _ => self.cell(row).key_hash(),
        }
    }

    fn reserve(&mut self, additional: usize) {
        match self {
            Column::Int(values) => values.reserve(additional),
            Column::Float(column) => {
                column.words.reserve(additional);
                column.ints.reserve(additional.div_ceil(64));
            }
            Column::Str(column) => column.codes.reserve(additional),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Column::Int(values) => values.shrink_to_fit(),
            Column::Float(column) => {
                column.words.shrink_to_fit();
                column.ints.shrink_to_fit();
            }
            Column::Str(column) => {
                column.codes.shrink_to_fit();
                column.strings.shrink_to_fit();
                column.hashes.shrink_to_fit();
                column.index.shrink_to_fit();
            }
        }
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.iter().map(|(_, ty)| Column::new(ty)).collect();
        Self {
            schema,
            len: 0,
            columns,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row, checking arity and column types; a refused row
    /// leaves the table as it was. The row is read, not kept: a `Vec`, an
    /// array or a slice of values will do.
    pub fn push(&mut self, row: impl AsRef<[Value]>) -> Result<(), EngineError> {
        let row = row.as_ref();
        if row.len() != self.schema.arity() {
            return Err(EngineError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            if !self.schema.column_type(i).admits(v) {
                return Err(EngineError::TypeMismatch {
                    expected: "value matching the column type",
                    got: format!("{}={} ({})", self.schema.name(i), v, v.type_name()),
                });
            }
        }
        self.push_cells(row.iter().map(Value::cell));
        Ok(())
    }

    /// Appends one row of cells without checks, for operators whose output
    /// is schema-correct by construction (a cell of the wrong type is a
    /// bug, and panics).
    pub(crate) fn push_cells<'a>(&mut self, cells: impl IntoIterator<Item = Cell<'a>>) {
        let mut pushed = 0;
        for (column, cell) in self.columns.iter_mut().zip(cells) {
            column.push(cell);
            pushed += 1;
        }
        assert_eq!(pushed, self.columns.len(), "a row of every column");
        self.len += 1;
    }

    /// Reserves capacity for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        for column in &mut self.columns {
            column.reserve(additional);
        }
    }

    /// Gives back the columns' spare capacity (a table registered in a
    /// [`Catalog`](crate::Catalog) is never appended to again).
    pub(crate) fn shrink_to_fit(&mut self) {
        for column in &mut self.columns {
            column.shrink_to_fit();
        }
    }

    /// Row `i` as values, each as it was pushed.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn row(&self, i: usize) -> Row {
        assert!(i < self.len, "row {i} of a {}-row table", self.len);
        self.row_cells(i).map(Cell::to_value).collect()
    }

    /// The value at `(row, column name)`.
    ///
    /// # Panics
    ///
    /// If `row` is out of range.
    pub fn get(&self, row: usize, column: &str) -> Result<Value, EngineError> {
        let c = self.schema.index_of(column)?;
        assert!(row < self.len, "row {row} of a {}-row table", self.len);
        Ok(self.columns[c].cell(row).to_value())
    }

    /// Row `row`'s cells, column by column, read in place.
    pub(crate) fn row_cells(&self, row: usize) -> impl Iterator<Item = Cell<'_>> {
        self.columns.iter().map(move |column| column.cell(row))
    }

    /// The cell at `(row, column index)`, read in place.
    pub(crate) fn cell(&self, row: usize, column: usize) -> Cell<'_> {
        self.columns[column].cell(row)
    }

    /// The key hash of the cell at `(row, column index)` — equal to
    /// [`Cell::key_hash`] of [`cell`](Self::cell), read from the
    /// dictionary for a string.
    pub(crate) fn key_hash(&self, row: usize, column: usize) -> u64 {
        self.columns[column].key_hash(row)
    }

    /// The named columns, in the given order, as a new table: whole
    /// columns are copied, dictionaries included.
    pub(crate) fn select(&self, schema: Schema, columns: &[usize]) -> Table {
        Table {
            schema,
            len: self.len,
            columns: columns.iter().map(|&c| self.columns[c].clone()).collect(),
        }
    }
}

/// One row of a table, read through [`Cells`] (positions are the
/// table's column indices).
pub(crate) struct TableRow<'t> {
    pub(crate) table: &'t Table,
    pub(crate) row: usize,
}

impl Cells for TableRow<'_> {
    fn cell(&self, at: usize) -> Cell<'_> {
        self.table.cell(self.row, at)
    }

    fn key_hash(&self, at: usize) -> u64 {
        self.table.key_hash(self.row, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Str)])
    }

    #[test]
    fn push_and_get() {
        let mut t = Table::new(schema());
        t.push(vec![Value::Int(1), Value::str("a")]).expect("ok");
        t.push(vec![Value::Int(2), Value::str("b")]).expect("ok");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1, "name").expect("ok"), Value::str("b"));
        assert!(t.get(0, "zz").is_err());
        assert_eq!(t.row(0), vec![Value::Int(1), Value::str("a")]);
    }

    #[test]
    fn arity_checked() {
        let mut t = Table::new(schema());
        let err = t.push(vec![Value::Int(1)]).expect_err("arity");
        assert_eq!(
            err,
            EngineError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn types_checked() {
        let mut t = Table::new(schema());
        let err = t
            .push(vec![Value::str("not an int"), Value::str("a")])
            .expect_err("type");
        assert!(matches!(err, EngineError::TypeMismatch { .. }));
        assert!(t.is_empty(), "a refused row leaves nothing behind");
    }

    #[test]
    fn float_column_accepts_ints() {
        let mut t = Table::new(Schema::of(&[("price", ColumnType::Float)]));
        t.push(vec![Value::Int(3)]).expect("ints widen");
        t.push(vec![Value::float(0.5)]).expect("floats fit");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_dictionary_holds_each_string_once_and_shares_it() {
        let mut t = Table::new(Schema::of(&[("flag", ColumnType::Str)]));
        let r = Value::str("R");
        for _ in 0..70 {
            t.push(vec![r.clone()]).expect("ok");
        }
        t.push(vec![Value::str("N")]).expect("ok");
        let Column::Str(column) = &t.columns[0] else {
            panic!("a string column");
        };
        assert_eq!(column.strings.len(), 2);
        let (Value::Str(pushed), Value::Str(read)) = (&r, &t.row(69)[0]) else {
            panic!("strings");
        };
        assert!(
            Arc::ptr_eq(pushed, read),
            "rows share the dictionary's string"
        );
        assert_eq!(t.row(70), vec![Value::str("N")]);
    }
}
