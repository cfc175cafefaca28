#![warn(missing_docs)]
//! Hypothetical reasoning over (compressed) provenance.
//!
//! The point of the whole pipeline (§1): an analyst repeatedly valuates
//! the provenance variables — "what if the ppm of all plans decreased by
//! 20 % in March?" — and reads off the recomputed aggregates without
//! re-running the query. Compression pays off exactly here: each scenario
//! application is linear in the provenance size, so a smaller `𝒫↓S` means
//! proportionally faster what-if turnaround (Figure 10).
//!
//! * [`scenario`] — named multiplicative scenarios and their valuations,
//! * [`apply`] — the serial hash-map reference loop for batch application,
//! * [`executor`] — the production engine: [`executor::eval`] runs every
//!   batch over compiled columns in guard-probed, panic-isolated chunks
//!   ([`executor::EvalOptions`] sizes the pool and pins the kernel;
//!   `Guard::unlimited()` is the free case, not a second path),
//! * [`speedup`] — the assignment-time speedup measurement of Figure 10,
//! * [`accuracy`] — granularity accuracy (Table 1) and the result-error
//!   measure for scenarios finer than the chosen abstraction.
//!
//! # Example
//!
//! Apply a 3-scenario batch through the serial reference and the
//! compiled engine — identical values, one timing each:
//!
//! ```
//! use provabs_provenance::compiled::CompiledPolySet;
//! use provabs_provenance::guard::Guard;
//! use provabs_provenance::parse::parse_polyset;
//! use provabs_provenance::var::VarTable;
//! use provabs_scenario::apply::apply_batch;
//! use provabs_scenario::executor::{eval, EvalOptions};
//! use provabs_scenario::Scenario;
//!
//! let mut vars = VarTable::new();
//! let polys = parse_polyset("220.8·p1·m1 + 240·p1·m3", &mut vars).unwrap();
//! let batch: Vec<_> = [0.8, 1.0, 1.2]
//!     .iter()
//!     .map(|f| Scenario::new().set("m3", *f).valuation(&mut vars))
//!     .collect();
//! let serial = apply_batch(&polys, &batch);
//! // Compile once, pose many batches; the guard can cancel or time one out.
//! let compiled = CompiledPolySet::compile(&polys);
//! let run = eval(compiled.view(), &batch, &EvalOptions::new(), &Guard::unlimited());
//! assert_eq!(serial.values, run.into_result().unwrap().values);
//! ```

pub mod accuracy;
pub mod apply;
pub mod executor;
pub mod scenario;
pub mod speedup;

pub use executor::EvalOptions;
pub use scenario::Scenario;
