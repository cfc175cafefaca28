#![warn(missing_docs)]
//! Experiment harness reproducing the paper's evaluation (§4.3).
//!
//! [`experiments`] has one function per figure and table, printing the
//! same series the paper plots; the `all_experiments [name] [scale]`
//! binary runs one by name or regenerates everything. Absolute numbers
//! differ from the paper (Rust on this machine vs. Python 3 on an
//! i7-4600U; scaled-down data) — the claims under reproduction are the
//! *shapes*: who wins, growth trends, crossovers, and the
//! accuracy/speedup trade-offs.

pub mod experiments;
pub mod harness;
