#![warn(missing_docs)]
//! The compress-once / ask-many façade over the provenance-abstraction
//! pipeline.
//!
//! The paper's workflow (Deutch, Moskovitch & Rinetzky, SIGMOD 2019; the
//! COBRA system demo describes the same flow as a user-facing tool) is a
//! pipeline: derive provenance, abstract it under a forest constraint,
//! then answer *many* hypothetical scenarios against the abstracted
//! polynomials. This crate packages that pipeline behind one stateful
//! handle:
//!
//! 1. [`SessionBuilder`] takes the provenance (a poly-set, parsed text,
//!    an engine query result — lowered into the interned arena once,
//!    there — or the engine's *interned* emission via
//!    [`SessionBuilder::from_query_interned`]), the abstraction
//!    [`Forest`], a [`Strategy`] with a size [`Target`], and the
//!    evaluation engine knobs ([`EvalOptions`]);
//! 2. [`Session::compress`] runs the chosen algorithm **once** and
//!    caches the [`AbstractionResult`] plus the abstracted provenance
//!    in the pipeline's interned currency (a
//!    [`WorkingSet`](provabs_provenance::working::WorkingSet) over the
//!    shared monomial arena); the columnar [`CompiledPolySet`] is
//!    *frozen* out of that arena lazily by the first evaluation that
//!    wants it, then cached too;
//! 3. [`Session::ask`] / [`Session::ask_prepared`] /
//!    [`Session::speedup_report`] / [`Session::accuracy_report`] serve
//!    batch after batch off those caches with **zero recompilation**
//!    and **zero `PolySet` materialisations** (observable via
//!    [`Session::compile_count`] and [`Session::intern_stats`]).
//!
//! Errors from every stage unify into [`Error`].
//!
//! A session is *shared, not locked*: every method takes `&self`,
//! [`Session`] is `Send + Sync`, and any number of threads may ask one
//! session at once — the compress-once state and the lazy lowerings live
//! in once-cells, so they get one compression and one freeze between
//! them (`docs/adr/014-shared-session.md`). This is what a server hosts:
//! one `Arc` per session, no lock around it.
//!
//! The compressed state is *durable*: [`Session::save`] writes it as a
//! versioned, checksummed artifact, and [`Session::open`] /
//! [`Session::open_mapped`] (zero-copy, memory-mapped) restore a session
//! that answers identically with `compile_count() == 0` — a warm restart
//! skips both compression and compilation. [`Session::artifact_info`]
//! reports where a session's state came from.
//!
//! Execution is *guarded*: [`Session::compress_with`],
//! [`Session::ask_with`] and [`Session::frontier`] take the [`Guard`]
//! the call runs under (a server's per-request deadline and disconnect
//! token), and the argument-free spellings run unlimited; no session
//! setting or environment variable supplies a limit
//! (`docs/adr/025-limits-are-arguments.md`). Compression is **anytime**
//! — a tripped guard leaves the best-so-far (sound, just larger) abstraction
//! installed and answering, tagged in [`Session::run_stats`] — while
//! evaluation batches fail typed ([`Error::Cancelled`],
//! [`Error::WorkerPanic`]) with panics isolated to the one scenario
//! that raised them, on the one executor every batch runs on whatever
//! its guard (`docs/adr/015-one-executor.md`). Saving is torn-file-proof under injected
//! filesystem faults ([`Session::save_with_faults`]).
//!
//! # Example
//!
//! ```
//! use provabs_session::{SessionBuilder, Strategy, Target};
//! use provabs_scenario::Scenario;
//!
//! // Example 2's revenue provenance and the quarterly months grouping.
//! let session = SessionBuilder::from_text("220.8·p1·m1 + 240·p1·m3")?
//!     .forest_text("q1(m1, m3)")?
//!     .strategy(Strategy::Optimal)
//!     .bound(1)
//!     .build()?;
//!
//! // Compress once: 220.8·p1·m1 + 240·p1·m3  →  460.8·p1·q1.
//! assert_eq!(session.compress()?.compressed_size_m, 1);
//!
//! // Ask many: a −20 % discount on the whole first quarter.
//! let run = session.ask(&[Scenario::new().set("q1", 0.8)])?;
//! assert!((run.values[0][0] - 460.8 * 0.8).abs() < 1e-9);
//!
//! // More batches reuse the cached compilation.
//! let before = session.compile_count();
//! session.ask(&[Scenario::new().set("q1", 1.1), Scenario::new()])?;
//! assert_eq!(session.compile_count(), before);
//! # Ok::<(), provabs_session::Error>(())
//! ```
//!
//! # The low-level API
//!
//! The façade adds no algorithms of its own — each piece delegates to
//! the per-stage crates, which remain the supported low-level API for
//! callers that need one stage in isolation:
//!
//! | façade | low-level |
//! |---|---|
//! | [`Strategy::Optimal`] | [`provabs_core::optimal::optimal_vvs`] |
//! | [`Strategy::Greedy`] | [`provabs_core::greedy::greedy_vvs`] |
//! | [`Strategy::Online`] | [`provabs_core::online::online_compress`] |
//! | [`Strategy::Competitor`] | [`provabs_core::competitor::pairwise_summarize`] |
//! | [`Strategy::None`] | [`provabs_core::problem::evaluate_vvs`] on [`Vvs::identity`](provabs_trees::cut::Vvs::identity) |
//! | [`Session::ask`] | [`provabs_scenario::executor::eval`] on [`WorkingSet::freeze`](provabs_provenance::working::WorkingSet::freeze)`.view()` (under [`EvalOptions::serial_reference`](provabs_scenario::executor::EvalOptions::serial_reference): [`eval_reference`](provabs_scenario::executor::eval_reference) on the bridge) |
//! | [`Session::speedup_report`] | [`provabs_scenario::speedup::measure_alternating`] over the cached lowerings |
//! | [`Session::accuracy_report`] | [`provabs_scenario::accuracy::coarse_valuation`] + [`error_stats`](provabs_scenario::accuracy::error_stats) |
//! | [`Session::frontier`] | [`provabs_core::optimal::optimal_frontier`] / [`provabs_core::greedy::greedy_frontier`] |
//!
//! Each algorithm has exactly one entry point, taking the interned
//! working set and an explicit guard; the session passes the one its
//! caller gave it (or an unlimited one). The hash-map oracles those entry
//! points are checked against (the paper's full-rescan greedy, brute
//! force over every cut) are no strategy: they live in
//! [`provabs_core::reference`], and the test suites call them there
//! (`docs/adr/021-oracles-leave-the-product.md`).
//!
//! Results are bit-for-bit identical to those functions (asserted by the
//! `facade_equivalence` integration suite); the façade's value is the
//! ownership of the artifacts *between* calls.
//!
//! [`Forest`]: provabs_trees::forest::Forest
//! [`EvalOptions`]: provabs_scenario::executor::EvalOptions
//! [`AbstractionResult`]: provabs_core::problem::AbstractionResult
//! [`AbstractionResult::apply`]: provabs_core::problem::AbstractionResult::apply
//! [`CompiledPolySet`]: provabs_provenance::compiled::CompiledPolySet

pub mod artifact;
pub mod builder;
pub mod error;
pub mod session;
pub mod strategy;

pub use artifact::ArtifactOrigin;
pub use builder::SessionBuilder;
pub use error::Error;
pub use provabs_provenance::guard::{Budget, CancelToken, Completion, Guard, Interrupt};
pub use provabs_provenance::persist::{FaultFs, FaultOp};
pub use provabs_provenance::simd::{Kernel, KernelInfo};
pub use session::{InternStats, RunStats, Session};
pub use strategy::{SpecParseError, Strategy, Target};
