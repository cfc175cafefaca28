#![warn(missing_docs)]
//! An in-memory relational engine with provenance annotations.
//!
//! The paper's evaluation generates provenance with SQL queries over
//! TPC-H and a telephony database (§4.2). This crate is that substrate:
//!
//! * [`value`] / [`schema`] / [`table`] / [`catalog`] — storage: typed
//!   columns, strings dictionary-coded per column,
//! * [`expr`] — scalar expressions for predicates and measures,
//! * [`ops`] — eager, table-per-operator relational operators
//!   (filter/project/hash join/union): the oracle the query pipeline is
//!   tested against, and the build-side join index every join shares,
//! * [`param`] — cell parameterization: attaching provenance variables to
//!   measure attributes (§2.1 case 2 — "variables are placed/combined
//!   with the values in certain cells"),
//! * [`query`] — a small fluent pipeline API: a lazy plan over shared
//!   tables that its consumers drive as one fused loop (no operator
//!   materialises its output), culminating in
//!   [`query::Pipeline::aggregate_sum`], which produces one provenance
//!   polynomial per group (the multiset `𝒫` the abstraction algorithms
//!   consume) — or, as
//!   [`query::Pipeline::aggregate_sum_interned`], interns each row's
//!   monomial into a shared
//!   [`MonoArena`](provabs_provenance::intern::MonoArena) at emission, so
//!   provenance leaves the engine already in the pipeline's id currency.

pub mod catalog;
pub mod error;
pub mod expr;
pub mod ops;
pub mod param;
pub mod query;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use error::EngineError;
pub use expr::Expr;
pub use schema::{ColumnType, Schema};
pub use table::Table;
pub use value::Value;
