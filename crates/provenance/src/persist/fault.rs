//! Deterministic filesystem fault injection for the artifact writer.
//!
//! The atomic-save claim ("readers never observe a half-written
//! artifact") is only as good as its behaviour when the filesystem
//! misbehaves — which never happens on a healthy CI box. [`FaultFs`] is
//! the seam that makes it happen on demand: a counter-based plan that
//! fails the Nth `create`/`write`/`fsync`/`rename` the writer issues,
//! either persistently (the torn-write proofs: every injection point
//! must leave the previous artifact intact and surface a typed
//! [`PersistError`](super::PersistError)) or a bounded number of times
//! (the retry-path proofs: transient errors are retried with backoff
//! and the save still lands).
//!
//! Disabled injection ([`FaultFs::disabled`]) is a `None` check per
//! filesystem call — nothing is configured, nothing is counted. A plan
//! is always an argument of the save it drives.

use std::sync::atomic::{AtomicU32, Ordering};

/// The filesystem operations
/// [`ArtifactWriter::write_atomic`](super::ArtifactWriter::write_atomic)
/// issues, in the order a save performs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// Creating the temporary sibling file.
    Create,
    /// Writing the artifact bytes into it.
    Write,
    /// `fsync`ing the temporary file before publishing.
    Sync,
    /// Renaming the temporary file over the target.
    Rename,
}

impl FaultOp {
    /// Every injection point, in save order — what the torn-write proof
    /// iterates over.
    pub const ALL: [FaultOp; 4] = [
        FaultOp::Create,
        FaultOp::Write,
        FaultOp::Sync,
        FaultOp::Rename,
    ];
}

#[derive(Debug)]
struct Plan {
    op: FaultOp,
    /// Matching operations observed so far (1-based after increment).
    seen: AtomicU32,
    /// The first matching operation to fail (1-based).
    first_fail: u32,
    /// How many consecutive matching operations fail from there
    /// (`None` = persistent: that one and every later one).
    fail_count: Option<u32>,
    transient: bool,
}

/// A deterministic fault-injection plan for the artifact writer.
///
/// Constructed per save (counters are consumed), threaded through
/// [`ArtifactWriter::write_atomic_with`](super::ArtifactWriter::write_atomic_with).
#[derive(Debug, Default)]
pub struct FaultFs {
    plan: Option<Plan>,
}

impl FaultFs {
    /// No injection: every check is a `None` test.
    pub fn disabled() -> Self {
        FaultFs::default()
    }

    /// Fails the `n`th matching operation (1-based) and every later
    /// one, with a non-transient error — the torn-write proof mode,
    /// where retries must exhaust and a typed error must surface.
    pub fn fail_nth(op: FaultOp, n: u32) -> Self {
        assert!(n >= 1, "operations are counted from 1");
        FaultFs {
            plan: Some(Plan {
                op,
                seen: AtomicU32::new(0),
                first_fail: n,
                fail_count: None,
                transient: false,
            }),
        }
    }

    /// Fails `times` matching operations starting at the `n`th, with a
    /// *transient* error (`ErrorKind::Interrupted`), then lets the rest
    /// succeed — the retry-path mode.
    pub fn fail_nth_times(op: FaultOp, n: u32, times: u32) -> Self {
        assert!(n >= 1, "operations are counted from 1");
        FaultFs {
            plan: Some(Plan {
                op,
                seen: AtomicU32::new(0),
                first_fail: n,
                fail_count: Some(times),
                transient: true,
            }),
        }
    }

    /// Called by the writer before each filesystem operation: `Ok` to
    /// proceed, or the injected error.
    pub(crate) fn check(&self, op: FaultOp) -> std::io::Result<()> {
        let Some(plan) = &self.plan else {
            return Ok(());
        };
        if plan.op != op {
            return Ok(());
        }
        let nth = plan.seen.fetch_add(1, Ordering::Relaxed) + 1;
        let failing = match plan.fail_count {
            None => nth >= plan.first_fail,
            Some(count) => nth >= plan.first_fail && nth - plan.first_fail < count,
        };
        if failing {
            let kind = if plan.transient {
                std::io::ErrorKind::Interrupted
            } else {
                std::io::ErrorKind::Other
            };
            return Err(std::io::Error::new(
                kind,
                format!("injected fault: {op:?} #{nth}"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(fs: &FaultFs, op: FaultOp, n: usize) -> Vec<Option<std::io::ErrorKind>> {
        (0..n)
            .map(|_| fs.check(op).err().map(|e| e.kind()))
            .collect()
    }

    #[test]
    fn disabled_never_injects() {
        let fs = FaultFs::disabled();
        assert_eq!(kinds(&fs, FaultOp::Write, 4), vec![None; 4]);
    }

    #[test]
    fn persistent_plan_fails_from_the_nth_onwards() {
        let fs = FaultFs::fail_nth(FaultOp::Sync, 2);
        // Other ops are untouched.
        assert!(fs.check(FaultOp::Write).is_ok());
        assert_eq!(
            kinds(&fs, FaultOp::Sync, 4),
            vec![
                None,
                Some(std::io::ErrorKind::Other),
                Some(std::io::ErrorKind::Other),
                Some(std::io::ErrorKind::Other),
            ]
        );
    }

    #[test]
    fn transient_plan_fails_a_bounded_window() {
        let fs = FaultFs::fail_nth_times(FaultOp::Rename, 1, 2);
        assert_eq!(
            kinds(&fs, FaultOp::Rename, 4),
            vec![
                Some(std::io::ErrorKind::Interrupted),
                Some(std::io::ErrorKind::Interrupted),
                None,
                None,
            ]
        );
    }
}
