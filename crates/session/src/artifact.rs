//! Session-level pieces of the durable-artifact format: the provenance
//! of a session's compiled state ([`ArtifactOrigin`]) and the codecs for
//! the two sections whose data only this crate knows — the session
//! configuration (`SESSION_META`) and the live-variable set
//! (`LIVE_VARS`). The container, the wire primitives, and the heavy
//! payload codecs live in [`provabs_provenance::persist`] and
//! [`provabs_trees::persist`]; `Session::save` / `Session::open`
//! assemble them.

use crate::strategy::Strategy;
use provabs_provenance::fxhash::FxHashSet;
use provabs_provenance::persist::{Dec, Enc, PersistError};
use provabs_provenance::var::VarId;
use std::path::PathBuf;

/// Where a session's compiled state came from — the artifact-provenance
/// observability hook ([`Session::artifact_info`](crate::Session::artifact_info)),
/// also surfaced in the session's `Debug` output.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactOrigin {
    /// Compression ran (or will run) in this process.
    Computed,
    /// The state was opened from a saved artifact; compression never ran
    /// here and `compile_count()` stays 0 for the abstracted side.
    Opened {
        /// The artifact file the session was opened from.
        path: PathBuf,
        /// The artifact's declared format version.
        format_version: u32,
        /// Whether the zero-copy memory-mapped load path was used
        /// (`Session::open_mapped`) rather than the owned read.
        mapped: bool,
    },
}

/// The decoded `SESSION_META` payload: everything a reopened session
/// needs besides the payload sections.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SessionMeta {
    pub(crate) interned_source: bool,
    pub(crate) strategy: Strategy,
    pub(crate) bound: usize,
    pub(crate) original_size_m: usize,
    pub(crate) original_size_v: usize,
    pub(crate) compressed_size_m: usize,
    pub(crate) compressed_size_v: usize,
    /// Distinct monomials of `𝒫↓S` — what `intern_stats()` reports, so
    /// an opened session need not rebuild the working set to say it.
    pub(crate) arena_monomials: usize,
}

/// Strategy wire tags. Any unknown tag at decode is a typed error, so a
/// build with fewer strategies never mis-reads a newer artifact.
mod tag {
    pub const OPTIMAL: u32 = 0;
    pub const GREEDY: u32 = 1;
    pub const ONLINE: u32 = 2;
    pub const COMPETITOR: u32 = 3;
    pub const BRUTE: u32 = 4;
    pub const NONE: u32 = 5;
    // 6 was the retired sharded strategy: never reuse it.
}

const CTX: &str = "session meta";

fn encode_strategy(e: &mut Enc, strategy: &Strategy) {
    match strategy {
        Strategy::Optimal => e.u32(tag::OPTIMAL),
        Strategy::Greedy { incremental } => {
            e.u32(tag::GREEDY);
            e.u32(u32::from(*incremental));
        }
        Strategy::Online { fraction, seed } => {
            e.u32(tag::ONLINE);
            e.f64(*fraction);
            e.u64(*seed);
        }
        Strategy::Competitor => e.u32(tag::COMPETITOR),
        Strategy::Brute { cut_limit } => {
            e.u32(tag::BRUTE);
            e.u64(*cut_limit as u64);
            e.u64((cut_limit >> 64) as u64);
        }
        Strategy::None => e.u32(tag::NONE),
    }
}

fn decode_strategy(d: &mut Dec<'_>) -> Result<Strategy, PersistError> {
    Ok(match d.u32()? {
        tag::OPTIMAL => Strategy::Optimal,
        tag::GREEDY => Strategy::Greedy {
            incremental: d.u32()? != 0,
        },
        tag::ONLINE => Strategy::Online {
            fraction: d.f64()?,
            seed: d.u64()?,
        },
        tag::COMPETITOR => Strategy::Competitor,
        tag::BRUTE => {
            let lo = d.u64()?;
            let hi = d.u64()?;
            Strategy::Brute {
                cut_limit: (u128::from(hi) << 64) | u128::from(lo),
            }
        }
        tag::NONE => Strategy::None,
        other => {
            return Err(PersistError::malformed(
                CTX,
                format!("unknown strategy tag {other}"),
            ))
        }
    })
}

pub(crate) fn encode_meta(meta: &SessionMeta) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(u32::from(meta.interned_source));
    encode_strategy(&mut e, &meta.strategy);
    e.u64(meta.bound as u64);
    e.u64(meta.original_size_m as u64);
    e.u64(meta.original_size_v as u64);
    e.u64(meta.compressed_size_m as u64);
    e.u64(meta.compressed_size_v as u64);
    e.u64(meta.arena_monomials as u64);
    e.finish()
}

pub(crate) fn decode_meta(bytes: &[u8]) -> Result<SessionMeta, PersistError> {
    let mut d = Dec::new(bytes, CTX);
    let interned_source = match d.u32()? {
        0 => false,
        1 => true,
        other => {
            return Err(PersistError::malformed(
                CTX,
                format!("interned-source flag is {other}"),
            ))
        }
    };
    let strategy = decode_strategy(&mut d)?;
    let bound = d.count("bound", usize::MAX)?;
    let original_size_m = d.count("original |𝒫|_M", usize::MAX)?;
    let original_size_v = d.count("original |𝒫|_V", usize::MAX)?;
    let compressed_size_m = d.count("compressed |𝒫|_M", usize::MAX)?;
    let compressed_size_v = d.count("compressed |𝒫|_V", usize::MAX)?;
    let arena_monomials = d.count("arena monomials", usize::MAX)?;
    d.finish()?;
    Ok(SessionMeta {
        interned_source,
        strategy,
        bound,
        original_size_m,
        original_size_v,
        compressed_size_m,
        compressed_size_v,
        arena_monomials,
    })
}

/// Encodes the live-variable set as sorted ids — sorting makes the
/// payload (and hence the whole artifact) deterministic despite the
/// hash-set's iteration order.
pub(crate) fn encode_live_vars(live: &FxHashSet<VarId>) -> Vec<u8> {
    let mut ids: Vec<u32> = live.iter().map(|v| v.0).collect();
    ids.sort_unstable();
    let mut e = Enc::new();
    e.u64(ids.len() as u64);
    e.u32s(&ids);
    e.finish()
}

pub(crate) fn decode_live_vars(
    bytes: &[u8],
    num_table_vars: usize,
) -> Result<FxHashSet<VarId>, PersistError> {
    const CTX: &str = "live variables";
    let mut d = Dec::new(bytes, CTX);
    let count = d.count("live variable count", bytes.len())?;
    let mut out = FxHashSet::default();
    out.reserve(count);
    for _ in 0..count {
        let v = d.u32()?;
        if v as usize >= num_table_vars {
            return Err(PersistError::malformed(
                CTX,
                format!("live variable {v} outside the table"),
            ));
        }
        out.insert(VarId(v));
    }
    d.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrips_every_strategy() {
        for strategy in [
            Strategy::Optimal,
            Strategy::Greedy { incremental: true },
            Strategy::Greedy { incremental: false },
            Strategy::Online {
                fraction: 0.05,
                seed: 42,
            },
            Strategy::Competitor,
            Strategy::Brute {
                cut_limit: (7u128 << 64) | 9,
            },
            Strategy::None,
        ] {
            let meta = SessionMeta {
                interned_source: true,
                strategy,
                bound: 123,
                original_size_m: 1000,
                original_size_v: 200,
                compressed_size_m: 123,
                compressed_size_v: 40,
                arena_monomials: 77,
            };
            let back = decode_meta(&encode_meta(&meta)).expect("roundtrip");
            assert_eq!(back, meta);
        }
    }

    #[test]
    fn meta_rejects_unknown_tags_and_truncation() {
        let meta = SessionMeta {
            interned_source: false,
            strategy: Strategy::Optimal,
            bound: 1,
            original_size_m: 2,
            original_size_v: 2,
            compressed_size_m: 1,
            compressed_size_v: 1,
            arena_monomials: 1,
        };
        let good = encode_meta(&meta);
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_meta(&bad).unwrap_err(),
            PersistError::Malformed {
                context: "session meta",
                ..
            }
        ));
        // What a sharded saver wrote: tag 6, a shard count, an inner
        // greedy strategy, then the sizes.
        let mut old = Enc::new();
        old.u32(0);
        old.u32(6);
        old.u64(4);
        old.u32(1);
        old.u32(1);
        let mut old = old.finish();
        old.extend_from_slice(&good[8..]);
        match decode_meta(&old).unwrap_err() {
            PersistError::Malformed { context, detail } => {
                assert_eq!(context, "session meta");
                assert!(detail.contains("unknown strategy tag 6"), "{detail}");
            }
            other => panic!("expected a malformed-meta error, got {other:?}"),
        }
        for len in 0..good.len() {
            assert!(decode_meta(&good[..len]).is_err());
        }
        let mut trailing = good;
        trailing.push(0);
        assert!(decode_meta(&trailing).is_err());
    }

    #[test]
    fn live_vars_roundtrip_and_validate() {
        let live: FxHashSet<VarId> = [3u32, 1, 7].into_iter().map(VarId).collect();
        let bytes = encode_live_vars(&live);
        // Deterministic: re-encoding an equal set yields identical bytes.
        assert_eq!(bytes, encode_live_vars(&live.clone()));
        let back = decode_live_vars(&bytes, 8).expect("roundtrip");
        assert_eq!(back, live);
        assert!(decode_live_vars(&bytes, 7).is_err(), "id 7 out of range");
    }
}
