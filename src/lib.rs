#![warn(missing_docs)]
//! # provabs — Hypothetical Reasoning via Provenance Abstraction
//!
//! A complete Rust implementation of the framework of Deutch, Moskovitch
//! and Rinetzky (SIGMOD 2019): reduce the size of data-provenance
//! polynomials by *abstracting* groups of variables into meta-variables,
//! guided by user-supplied abstraction trees, while maximising the
//! granularity left for hypothetical (what-if) reasoning.
//!
//! The front door is [`Session`]: a compress-once / ask-many handle that
//! owns the pipeline — provenance in, one compression run, then batch
//! after batch of what-if scenarios off cached compiled artifacts.
//! Underneath, the stages exchange provenance in one interned currency
//! (dense monomial ids over a shared
//! [`MonoArena`](provabs_provenance::intern::MonoArena) — engine
//! emission through compression into frozen evaluation, with zero
//! hash-map materialisations on the hot path). The per-stage crates
//! below remain the low-level API it delegates to:
//!
//! * [`session`] — the [`SessionBuilder`] → [`Session`] façade
//!   ([`provabs_session`]),
//! * [`provenance`] — polynomials, monomials, coefficients,
//!   valuations ([`provabs_provenance`]),
//! * [`trees`] — abstraction trees, forests and valid variable sets
//!   ([`provabs_trees`]),
//! * [`algo`] — the optimization algorithms: optimal single-tree DP,
//!   greedy multi-tree heuristic, brute force, the competitor baseline and
//!   the NP-hardness reduction ([`provabs_core`]),
//! * [`engine`] — an in-memory relational engine with provenance
//!   annotations ([`provabs_engine`]),
//! * [`datagen`] — the telephony, TPC-H-style and supply-chain BOM
//!   benchmark generators ([`provabs_datagen`]),
//! * [`scenario`] — what-if scenario application and speedup measurement
//!   ([`provabs_scenario`]).
//!
//! ## Quick start
//!
//! ```
//! use provabs::{Scenario, SessionBuilder, Strategy};
//!
//! // Provenance in (text, a PolySet, or an engine query result), one
//! // tree allowing {x1,x2} to merge into the meta-variable X.
//! let session = SessionBuilder::from_text("3·x1·a + 4·x2·a\n5·x1·b + 6·x2·b")?
//!     .forest_text("X(x1, x2)")?
//!     .strategy(Strategy::Optimal)
//!     .bound(2)
//!     .build()?;
//!
//! // Compress once: 7·X·a and 11·X·b.
//! assert_eq!(session.compress()?.compressed_size_m, 2);
//!
//! // Ask many: each batch is served off the cached compiled form.
//! let run = session.ask(&[Scenario::new().set("X", 0.5)])?;
//! assert_eq!(run.values, vec![vec![3.5, 5.5]]);
//! # Ok::<(), provabs::session::Error>(())
//! ```

pub use provabs_core as algo;
pub use provabs_datagen as datagen;
pub use provabs_engine as engine;
pub use provabs_provenance as provenance;
pub use provabs_scenario as scenario;
pub use provabs_session as session;
pub use provabs_trees as trees;

pub use provabs_scenario::Scenario;
pub use provabs_session::{Kernel, KernelInfo, Session, SessionBuilder, Strategy, Target};
