//! The unified façade error.
//!
//! Each pipeline stage has its own error type — [`TreeError`] for forest
//! construction and the selection algorithms, [`EngineError`] for the
//! relational engine, [`ParseError`] for the polynomial text format. The
//! façade folds them into one `Result` shape so callers match on a single
//! enum (and `?` works across stage boundaries), and adds the conditions
//! only the façade can detect: an unusable size target, a missing forest,
//! and a scenario naming a variable the session has never seen.

use provabs_engine::error::EngineError;
use provabs_provenance::guard::Interrupt;
use provabs_provenance::parse::ParseError;
use provabs_provenance::persist::PersistError;
use provabs_scenario::executor::ExecError;
use provabs_trees::error::TreeError;
use std::fmt;

/// Any error the façade can produce.
///
/// Marked `#[non_exhaustive]`: future sessions (sharding, async serving,
/// multi-tenant caching) will add variants without a major version bump —
/// always keep a `_` arm when matching.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A tree/forest/VVS error from construction, validation or one of
    /// the selection algorithms (including `BoundUnattainable`).
    Tree(TreeError),
    /// A relational-engine error while deriving provenance.
    Engine(EngineError),
    /// A polynomial text-format error.
    Parse(ParseError),
    /// The resolved size target is unusable: a bound of `0` can never be
    /// met (every non-empty poly-set has at least one monomial).
    InvalidBound {
        /// The resolved bound `B`.
        bound: usize,
        /// `|𝒫|_M` of the session's provenance.
        size_m: usize,
    },
    /// The chosen strategy needs an abstraction forest but the builder
    /// was given none.
    MissingForest,
    /// A scenario names a variable that is neither in the provenance nor
    /// introduced by the abstraction forest — almost certainly a typo,
    /// since valuating it cannot affect any answer.
    UnknownVariable(String),
    /// A *coarse* scenario (posed through `ask`, a speedup report or an
    /// equivalence check) names a variable that does not occur in the
    /// compressed provenance — it was merged into a meta-variable or
    /// eliminated by compression, so valuating it would silently change
    /// nothing. Pose the scenario over the abstracted labels instead, or
    /// measure the fine-grained approximation through `accuracy_report`.
    VariableNotInAbstraction(String),
    /// A durable-artifact failure: saving, opening, or validating a
    /// persisted session (`Session::save` / `Session::open` /
    /// `Session::open_mapped`). Corrupted or truncated artifacts always
    /// surface here — never as a panic or silently-loaded garbage.
    Persist(PersistError),
    /// An evaluation was stopped by the guard it ran under — deadline
    /// expired, step budget exhausted, or the attached
    /// [`CancelToken`](provabs_provenance::guard::CancelToken) tripped —
    /// before the batch produced its answers. (Compression never surfaces
    /// this: its loops are anytime and return their best-so-far state,
    /// tagged in `Session::run_stats`.)
    Cancelled(Interrupt),
    /// A sharded session names an inner strategy the shard pipeline
    /// cannot run: only the incremental greedy engine records the
    /// per-step traces the k-way merge consumes. Use
    /// `sharded:K` / `sharded:K:greedy`, or drop sharding for the other
    /// algorithms.
    UnshardableStrategy(String),
    /// A worker thread panicked while evaluating one scenario of a batch.
    /// The panic was contained (every other scenario completed) and comes
    /// back typed instead of aborting the process.
    WorkerPanic {
        /// Index of the scenario whose evaluation panicked.
        scenario_index: usize,
        /// The rendered panic payload.
        payload: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Tree(e) => write!(f, "abstraction error: {e}"),
            Error::Engine(e) => write!(f, "engine error: {e}"),
            Error::Parse(e) => write!(f, "provenance parse error: {e}"),
            Error::InvalidBound { bound, size_m } => write!(
                f,
                "invalid size bound {bound} for a poly-set of {size_m} monomials \
                 (the bound must be at least 1)"
            ),
            Error::MissingForest => {
                write!(f, "the chosen strategy requires an abstraction forest")
            }
            Error::UnknownVariable(name) => write!(
                f,
                "scenario mentions {name:?}, which is not a variable of this session"
            ),
            Error::VariableNotInAbstraction(name) => write!(
                f,
                "scenario mentions {name:?}, which does not occur in the compressed \
                 provenance (merged or eliminated by the abstraction); use the \
                 abstracted labels, or accuracy_report for fine-grained questions"
            ),
            Error::Persist(e) => write!(f, "artifact error: {e}"),
            Error::Cancelled(reason) => {
                write!(f, "evaluation stopped before completion: {reason}")
            }
            Error::UnshardableStrategy(inner) => write!(
                f,
                "strategy {inner:?} cannot run sharded: only the incremental greedy \
                 engine records the traces the shard merge consumes"
            ),
            Error::WorkerPanic {
                scenario_index,
                payload,
            } => write!(
                f,
                "worker panicked evaluating scenario {scenario_index}: {payload}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Tree(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Parse(e) => Some(e),
            Error::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TreeError> for Error {
    fn from(e: TreeError) -> Self {
        Error::Tree(e)
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<PersistError> for Error {
    fn from(e: PersistError) -> Self {
        Error::Persist(e)
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::WorkerPanic {
                scenario_index,
                payload,
            } => Error::WorkerPanic {
                scenario_index,
                payload,
            },
            ExecError::Interrupted(reason) => Error::Cancelled(reason),
            // ExecError is #[non_exhaustive]; any future executor failure
            // still surfaces as an interruption rather than a panic.
            _ => Error::Cancelled(Interrupt::Cancelled),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let t: Error = TreeError::EmptyTree.into();
        assert!(matches!(t, Error::Tree(TreeError::EmptyTree)));
        assert!(format!("{t}").contains("abstraction error"));

        let e: Error = EngineError::UnknownTable("Cust".into()).into();
        assert!(format!("{e}").contains("engine error"));

        let p: Error = ParseError::EmptyTerm.into();
        assert!(format!("{p}").contains("parse error"));

        let b = Error::InvalidBound {
            bound: 0,
            size_m: 8,
        };
        assert!(format!("{b}").contains("invalid size bound 0"));
        assert!(format!("{}", Error::MissingForest).contains("forest"));
        let u = Error::UnshardableStrategy("brute".into());
        assert!(format!("{u}").contains("cannot run sharded"));
        assert!(format!("{}", Error::UnknownVariable("zz".into())).contains("\"zz\""));

        let a: Error = PersistError::BadMagic.into();
        assert!(matches!(a, Error::Persist(PersistError::BadMagic)));
        assert!(format!("{a}").contains("artifact error"));

        let c: Error = ExecError::Interrupted(Interrupt::DeadlineExpired).into();
        assert_eq!(c, Error::Cancelled(Interrupt::DeadlineExpired));
        assert!(format!("{c}").contains("deadline expired"));

        let w: Error = ExecError::WorkerPanic {
            scenario_index: 11,
            payload: "poisoned".into(),
        }
        .into();
        assert_eq!(
            w,
            Error::WorkerPanic {
                scenario_index: 11,
                payload: "poisoned".into()
            }
        );
        assert!(format!("{w}").contains("scenario 11"));
        assert!(format!("{w}").contains("poisoned"));
    }

    #[test]
    fn source_chains_to_the_stage_error() {
        use std::error::Error as _;
        let t: Error = TreeError::EmptyTree.into();
        assert!(t.source().is_some());
        let b = Error::InvalidBound {
            bound: 0,
            size_m: 1,
        };
        assert!(b.source().is_none());
    }
}
