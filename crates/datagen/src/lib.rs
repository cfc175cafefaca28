#![warn(missing_docs)]
//! Benchmark data generators (§4.2).
//!
//! The paper evaluates on two workloads, both regenerated here at a
//! configurable scale:
//!
//! * [`telephony`] — the running example: customers with calling plans,
//!   monthly call durations and per-month plan prices; the revenue query
//!   grouped by zip code, parameterized by 128 plan variables and 12
//!   month variables,
//! * [`tpch`] — a TPC-H-style database (REGION, NATION, SUPPLIER,
//!   CUSTOMER, ORDERS, LINEITEM, PART) with deterministic pseudo-random
//!   contents and the three representative queries Q1, Q5 and Q10, with
//!   the discount parameterized by `s{suppkey mod 128}` and
//!   `p{partkey mod 128}`,
//! * [`bom`] — a supply-chain bill-of-materials workload beyond the
//!   paper's two: a cost roll-up whose monomials are *wide* (four
//!   variables each) and whose natural abstraction trees are *deep*
//!   component taxonomies,
//! * [`workload`] — a uniform façade over the evaluation workloads
//!   (Q1, Q5, Q10, telephony, supply-chain) used by every experiment
//!   binary; each workload is generated in both provenance currencies
//!   (hash-map and interned) off one shared join pipeline,
//! * [`fixture`] — the exact Figure 1 database fragment, whose revenue
//!   provenance reproduces the polynomials of Examples 2 and 13 to the
//!   digit, plus a small fixed BOM fragment for the supply-chain family,
//! * [`scale`] — the million-monomial telephony-shaped fixture for the
//!   compression and out-of-core streaming benches: provenance emitted
//!   straight into the interned currency, whole or in bounded chunks,
//!   from a chunk-order-independent per-monomial hash.

pub mod bom;
pub mod fixture;
pub mod scale;
pub mod telephony;
pub mod tpch;
pub mod workload;

pub use workload::{Workload, WorkloadConfig, WorkloadData};
