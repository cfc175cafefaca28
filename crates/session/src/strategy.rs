//! Strategy and size-target selection.
//!
//! A [`Strategy`] names which selection algorithm [`compress`] runs; a
//! [`Target`] says how far to compress. Both are plain data so sessions
//! can be described in configuration, cloned into sweeps, and compared in
//! tests — and both round-trip through a stable text form
//! ([`Display`](std::fmt::Display) / [`FromStr`]) so wire requests and
//! CLI flags can name them (`greedy`, `online:0.1:42`, `ratio:0.5`, …)
//! without duplicating the enums at every layer.
//!
//! Every strategy is a guarded engine over the interned provenance; the
//! oracles they are checked against live in [`provabs_core::reference`],
//! and their old spellings do not parse (ADR 021).
//!
//! [`compress`]: crate::Session::compress

use crate::error::Error;
use std::fmt;
use std::str::FromStr;

/// Which valid-variable-set selection algorithm a session runs.
///
/// Every variant maps onto exactly one documented low-level entry point
/// (listed per variant), called with the session's provenance in
/// interned form and the guard of the compress call, so façade results are
/// bit-for-bit identical to calling that function directly — the
/// `facade_equivalence` suite asserts this for each variant.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum Strategy {
    /// Algorithm 1, the optimal single-tree dynamic program
    /// ([`provabs_core::optimal::optimal_vvs`]). Requires a forest with
    /// exactly one tree.
    Optimal,
    /// Algorithm 2, the greedy multi-tree heuristic
    /// ([`provabs_core::greedy::greedy_vvs`]).
    Greedy,
    /// §6's sampling-based online scheme
    /// ([`provabs_core::online::online_compress`] with the greedy
    /// solver, which accepts any forest): the VVS is chosen on a sample
    /// with an adapted bound, then evaluated against the full provenance.
    /// The result may miss the bound — that is the scheme's documented
    /// risk, reported through [`TreeError::BoundUnattainable`] only when
    /// even the sample run fails.
    ///
    /// [`TreeError::BoundUnattainable`]: provabs_trees::error::TreeError::BoundUnattainable
    Online {
        /// Fraction of polynomials to sample in `(0, 1]`.
        fraction: f64,
        /// RNG seed for the sample.
        seed: u64,
    },
    /// The pairwise-merge summarization baseline of Ainy et al.
    /// ([`provabs_core::competitor::pairwise_summarize`]).
    Competitor,
    /// No compression: the session serves the original provenance (the
    /// identity abstraction). Useful as the uncompressed baseline and
    /// for sessions that only want the batch-evaluation engine.
    None,
}

impl Default for Strategy {
    /// The production default: the incremental greedy engine, which
    /// accepts any forest and scales to large instances.
    fn default() -> Self {
        Strategy::Greedy
    }
}

impl Strategy {
    /// Whether this strategy consults the abstraction forest at all.
    /// [`Strategy::None`] is the only one that does not.
    pub fn needs_forest(&self) -> bool {
        !matches!(self, Strategy::None)
    }
}

/// A [`Strategy`] or [`Target`] text form that does not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecParseError {
    what: &'static str,
    input: String,
}

impl SpecParseError {
    fn new(what: &'static str, input: &str) -> Self {
        Self {
            what,
            input: input.to_string(),
        }
    }
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unparseable {}: {:?}", self.what, self.input)
    }
}

impl std::error::Error for SpecParseError {}

impl fmt::Display for Strategy {
    /// The stable text form; [`Strategy::from_str`] parses it back
    /// (round-trip asserted in the unit tests). New variants must extend
    /// both sides together.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Optimal => write!(f, "optimal"),
            Strategy::Greedy => write!(f, "greedy"),
            Strategy::Online { fraction, seed } => write!(f, "online:{fraction}:{seed}"),
            Strategy::Competitor => write!(f, "competitor"),
            Strategy::None => write!(f, "none"),
        }
    }
}

impl FromStr for Strategy {
    type Err = SpecParseError;

    /// Parses the [`Display`](Strategy#impl-Display-for-Strategy) form:
    /// `optimal`, `greedy`, `online:FRACTION:SEED` (fraction in
    /// `(0, 1]`), `competitor`, `none`. The retired oracle spellings
    /// `greedy:reference` and `brute[:CUT_LIMIT]` do not parse.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || SpecParseError::new("strategy", s);
        let mut parts = s.trim().split(':');
        let head = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let no_args = |v: Strategy| if rest.is_empty() { Ok(v) } else { Err(err()) };
        match head {
            "optimal" => no_args(Strategy::Optimal),
            "greedy" => no_args(Strategy::Greedy),
            "online" => match rest.as_slice() {
                [fraction, seed] => {
                    let fraction: f64 = fraction.parse().map_err(|_| err())?;
                    let seed: u64 = seed.parse().map_err(|_| err())?;
                    if fraction > 0.0 && fraction <= 1.0 {
                        Ok(Strategy::Online { fraction, seed })
                    } else {
                        Err(err())
                    }
                }
                _ => Err(err()),
            },
            "competitor" => no_args(Strategy::Competitor),
            "none" => no_args(Strategy::None),
            _ => Err(err()),
        }
    }
}

impl fmt::Display for Target {
    /// The stable text form; [`Target::from_str`] parses it back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Monomials(b) => write!(f, "monomials:{b}"),
            Target::Ratio(r) => write!(f, "ratio:{r}"),
        }
    }
}

impl FromStr for Target {
    type Err = SpecParseError;

    /// Parses `monomials:B`, `ratio:R`, or a bare integer (shorthand for
    /// `monomials:B`). Semantic validation (a bound of 0, a non-positive
    /// ratio) stays in [`Target::resolve`], where the provenance size is
    /// known.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || SpecParseError::new("target", s);
        let s = s.trim();
        if let Ok(b) = s.parse::<usize>() {
            return Ok(Target::Monomials(b));
        }
        match s.split_once(':') {
            Some(("monomials", b)) => Ok(Target::Monomials(b.parse().map_err(|_| err())?)),
            Some(("ratio", r)) => {
                let r: f64 = r.parse().map_err(|_| err())?;
                if r.is_finite() {
                    Ok(Target::Ratio(r))
                } else {
                    Err(err())
                }
            }
            _ => Err(err()),
        }
    }
}

/// How far to compress: the bound `B` handed to the selection algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Target {
    /// An absolute monomial bound: compress until `|𝒫↓S|_M ≤ B`.
    Monomials(usize),
    /// A fraction of the original size: `B = max(1, ⌊|𝒫|_M · ratio⌋)`.
    /// `Ratio(0.5)` is the paper's default "half size" setting (§4.3).
    Ratio(f64),
}

impl Default for Target {
    fn default() -> Self {
        Target::Ratio(0.5)
    }
}

impl Target {
    /// Resolves the target against the actual provenance size, rejecting
    /// unusable bounds (`0`, or a non-positive ratio).
    pub fn resolve(self, size_m: usize) -> Result<usize, Error> {
        let bound = match self {
            Target::Monomials(b) => b,
            Target::Ratio(r) if r > 0.0 => ((size_m as f64 * r).floor() as usize).max(1),
            Target::Ratio(_) => 0,
        };
        if bound == 0 {
            return Err(Error::InvalidBound { bound, size_m });
        }
        Ok(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_configuration() {
        assert_eq!(Strategy::default(), Strategy::Greedy);
        assert_eq!(Target::default(), Target::Ratio(0.5));
    }

    #[test]
    fn target_resolution() {
        assert_eq!(Target::Monomials(4).resolve(100), Ok(4));
        assert_eq!(Target::Ratio(0.5).resolve(9), Ok(4));
        assert_eq!(Target::Ratio(0.01).resolve(10), Ok(1)); // floors to 0, clamped to 1
        assert!(matches!(
            Target::Monomials(0).resolve(8),
            Err(Error::InvalidBound {
                bound: 0,
                size_m: 8
            })
        ));
        assert!(Target::Ratio(0.0).resolve(8).is_err());
        assert!(Target::Ratio(-1.0).resolve(8).is_err());
    }

    #[test]
    fn strategy_text_round_trips() {
        let all = [
            Strategy::Optimal,
            Strategy::Greedy,
            Strategy::Online {
                fraction: 0.1,
                seed: 42,
            },
            Strategy::Competitor,
            Strategy::None,
        ];
        for s in all {
            let text = s.to_string();
            assert_eq!(text.parse::<Strategy>().as_ref(), Ok(&s), "{text}");
        }
        assert_eq!("greedy".parse::<Strategy>(), Ok(Strategy::Greedy));
        assert_eq!(
            "online:0.1:42".parse::<Strategy>(),
            Ok(Strategy::Online {
                fraction: 0.1,
                seed: 42
            })
        );
        for bad in [
            "",
            "gredy",
            "greedy:fast",
            "online",
            "online:0.1",
            "online:0:42",
            "online:1.5:42",
            "online:x:42",
            "none:really",
            // The retired shard-count form.
            "sharded:4",
            "sharded:2:greedy",
            // The retired oracles (ADR 021).
            "greedy:reference",
            "brute",
            "brute:80000",
            "brute:18446744073709551616",
        ] {
            let err = bad.parse::<Strategy>().unwrap_err();
            assert!(err.to_string().contains("strategy"), "{bad}: {err}");
        }
    }

    #[test]
    fn target_text_round_trips() {
        for t in [
            Target::Monomials(40),
            Target::Ratio(0.5),
            Target::Ratio(0.25),
        ] {
            let text = t.to_string();
            assert_eq!(text.parse::<Target>(), Ok(t), "{text}");
        }
        assert_eq!("17".parse::<Target>(), Ok(Target::Monomials(17)));
        assert_eq!("ratio:0".parse::<Target>(), Ok(Target::Ratio(0.0))); // rejected by resolve()
        for bad in ["", "half", "monomials:x", "ratio:inf", "ratio:"] {
            assert!(bad.parse::<Target>().is_err(), "{bad}");
        }
    }

    #[test]
    fn only_none_skips_the_forest() {
        assert!(Strategy::Optimal.needs_forest());
        assert!(Strategy::default().needs_forest());
        assert!(!Strategy::None.needs_forest());
    }
}
