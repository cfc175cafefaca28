#![warn(missing_docs)]
//! Provenance polynomials and their supporting algebra.
//!
//! This crate implements the provenance model of §2.1 of *Hypothetical
//! Reasoning via Provenance Abstraction* (Deutch, Moskovitch, Rinetzky,
//! SIGMOD 2019):
//!
//! * [`var`] — interned provenance variables (tuple / cell annotations and
//!   the meta-variables introduced by abstraction),
//! * [`monomial`] — products of variables with exponents,
//! * [`polynomial`] — sums of coefficient-weighted monomials, with the size
//!   measure `|P|_M` (number of monomials) and granularity `|P|_V` (number
//!   of distinct variables),
//! * [`polyset`] — multisets of polynomials as produced by provenance-aware
//!   query evaluation, lifting both measures point-wise,
//! * [`intern`] — the shared interning core: an append-only distinct-
//!   monomial arena with dense `u32` ids ([`intern::MonoArena`]) and the
//!   matching variable densifier ([`intern::VarSpace`]) — the single
//!   provenance currency every layer above speaks,
//! * [`compiled`] — the columnar lowering of a poly-set for fast batch
//!   scenario evaluation (flat arenas, densified `u32` variable space);
//!   built either from a [`polyset::PolySet`] or by freezing a working
//!   set's arena directly,
//! * [`simd`] — runtime-dispatched evaluation kernels over the compiled
//!   columns (AVX2 + a portable lane fallback, selected behind
//!   [`simd::Kernel`]): up to [`simd::LANES`] scenarios per pass in
//!   independent four-lane accumulators, off one packed block table,
//!   bit-for-bit identical to the scalar sweep,
//! * [`working`] — the interned working-set representation for in-flight
//!   abstraction rewrites over a [`intern::MonoArena`], the rewriting
//!   counterpart of [`compiled`],
//! * [`persist`] — durable compiled artifacts: a versioned, checksummed
//!   on-disk container with an owned load path and a zero-copy
//!   memory-mapped one that reslices the compiled columns straight out
//!   of the file, plus the deterministic fault-injection seam
//!   ([`persist::FaultFs`]) the torn-write proofs run on,
//! * [`guard`] — guarded execution: wall-clock/step [`guard::Budget`]s,
//!   shareable [`guard::CancelToken`]s and the amortised
//!   [`guard::Checkpoint`] probe the long-running loops carry, with
//!   anytime [`guard::Completion`] reporting and the shared
//!   panic-isolation seam,
//! * [`coeff`] — the one coefficient algebra and its three carriers
//!   (`f64`, `i64`, the `(min, ×)` [`coeff::MinF64`]),
//! * [`valuation`] — hypothetical-scenario valuations of variables,
//! * [`parse`] / [`display`] — a small text format used by tests, examples
//!   and golden files.
//!
//! # Example
//!
//! Parse a provenance poly-set, pose Example 1's March-discount scenario,
//! and evaluate it through both the hash-map and the compiled columnar
//! path — the two agree bit for bit:
//!
//! ```
//! use provabs_provenance::compiled::CompiledPolySet;
//! use provabs_provenance::parse::parse_polyset;
//! use provabs_provenance::valuation::Valuation;
//! use provabs_provenance::var::VarTable;
//!
//! let mut vars = VarTable::new();
//! let polys = parse_polyset("220.8·p1·m1 + 240·p1·m3", &mut vars).unwrap();
//! let m3 = vars.lookup("m3").unwrap();
//! let scenario = Valuation::neutral().set(m3, 0.8); // −20 % in March
//! let compiled = CompiledPolySet::compile(&polys);
//! assert_eq!(compiled.eval_one(&scenario), scenario.eval_set(&polys));
//! assert!((compiled.eval_one(&scenario)[0] - 412.8).abs() < 1e-9);
//! ```

pub mod coeff;
pub mod compiled;
pub mod display;
#[doc(hidden)] // an implementation detail shared with the sibling crates, not public API
pub mod fxhash;
pub mod guard;
pub mod intern;
pub mod monomial;
pub mod parse;
pub mod persist;
pub mod polynomial;
pub mod polyset;
pub mod simd;
pub mod valuation;
pub mod var;
pub mod working;

pub use coeff::Coefficient;
pub use compiled::{CompiledPolySet, CompiledView};
pub use display::{poly_to_string, polyset_to_string};
pub use guard::{Budget, CancelToken, Completion, Guard, Interrupt};
pub use intern::{MonoArena, MonoId, VarSpace};
pub use monomial::Monomial;
pub use parse::{parse_polynomial, parse_polyset};
pub use persist::PersistError;
pub use polynomial::Polynomial;
pub use polyset::PolySet;
pub use simd::{Kernel, KernelInfo};
pub use valuation::Valuation;
pub use var::{VarId, VarTable};
pub use working::WorkingSet;
