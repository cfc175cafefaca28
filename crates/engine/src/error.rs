//! Engine error type.

use std::fmt;

/// Errors raised while building schemas, tables or evaluating queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A column name was not found in the schema.
    UnknownColumn(String),
    /// A table name was not found in the catalog.
    UnknownTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Two column names collide (e.g. after a join).
    DuplicateColumn(String),
    /// A row's arity does not match its schema.
    ArityMismatch {
        /// Columns in the schema.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A value's type does not match the column type or the operation.
    TypeMismatch {
        /// What the operation required.
        expected: &'static str,
        /// What it got, rendered.
        got: String,
    },
    /// Arithmetic produced NaN (`inf - inf`, `0 · inf`) where a value was
    /// asked for — a measure, or an expression evaluated to a value.
    NotANumber,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            EngineError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
            EngineError::DuplicateColumn(c) => write!(f, "duplicate column {c:?}"),
            EngineError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            EngineError::TypeMismatch { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            EngineError::NotANumber => write!(f, "arithmetic produced NaN"),
        }
    }
}

impl std::error::Error for EngineError {}
