#![warn(missing_docs)]
//! The provenance-abstraction optimization problem and its algorithms.
//!
//! This crate is the paper's primary contribution (§2.4–§3 and the
//! appendix):
//!
//! * [`problem`] — precise / adequate / optimal abstractions (Def. 7),
//!   instance evaluation and result types,
//! * [`loss`] — monomial loss `ML` and variable loss `VL` by the
//!   efficient `D_P` remainder-map computation of §4.1,
//! * [`optimal`] — Algorithm 1: the optimal single-tree selection via
//!   bottom-up dynamic programming (PTIME, Prop. 12/14), in the sparse
//!   hash-map variant of §4.1,
//! * [`greedy`] — Algorithm 2: the greedy multi-tree heuristic, on the
//!   *incremental* engine: candidate scores are cached, bucketed by
//!   variable loss and delta-maintained over an interned working set,
//! * [`competitor`] — a tree-oracle adaptation of the pairwise-merge
//!   summarization of Ainy et al. (CIKM'15), the paper's `[3]`,
//! * [`decision`] — the decision problem (Def. 10): existence of a
//!   *precise* abstraction for a size `B` and granularity `K`,
//! * [`hardness`] — the NP-hardness apparatus of Appendix A: uniformly
//!   partitioned polynomials, flat abstractions and the reduction from
//!   Vertex Cover,
//! * [`online`] — the sampling-based online compression scheme the paper
//!   sketches as future work in §6, implemented end to end (sampling,
//!   bound adaptation, size extrapolation),
//! * [`shard`] — the bounded-memory streaming ingest path for
//!   larger-than-RAM provenance, and the size-balanced partition that
//!   cuts a working set into its chunks (the greedy engine itself is
//!   one sequential loop; no sharded variant exists),
//! * [`mod@reference`] — everything that exists only to be compared against:
//!   the paper's full-rescan greedy transcription, the dense DP, brute
//!   force over every cut, and the loss measures by definition.
//!
//! # One entry point per algorithm
//!
//! Each algorithm is one function over interned provenance and an
//! explicit execution guard, `(&WorkingSet<C>, &Forest, bound, …, &Guard)
//! -> Result<(InternedAbstraction<C>, Completion[, …]), TreeError>`:
//! [`greedy::greedy_vvs`], [`optimal::optimal_vvs`],
//! [`online::online_compress`], [`competitor::pairwise_summarize`].
//! A hash-map `PolySet` is an input *format*,
//! lowered once with
//! [`WorkingSet::from_polyset`](provabs_provenance::working::WorkingSet::from_polyset);
//! a caller with no limits passes
//! [`Guard::unlimited`](provabs_provenance::guard::Guard::unlimited),
//! which never trips and costs nothing. Only the oracles in [`mod@reference`]
//! keep `PolySet` signatures (`docs/adr/012-one-entry-point.md`).

// Public as `reference::brute_force_vvs[_parallel]`.
mod brute;
pub mod competitor;
pub mod decision;
pub mod greedy;
pub mod hardness;
pub mod loss;
pub mod online;
pub mod optimal;
pub mod problem;
pub mod reference;
pub mod shard;
