//! Attempts and failures: every compress, ask, open, wire request and
//! oracle comparison counts once, and a miss of any kind fails the run.

/// How many operations ran and how many went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and comparisons attempted.
    pub attempted: u64,
    /// Those that failed: an `Err`, a non-2xx status, or a mismatch.
    pub failed: u64,
}

/// Failures described on stderr before the rest are only counted.
const REPORTED: u64 = 10;

impl Tally {
    /// Counts one attempt; `ok == false` is a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= REPORTED {
                eprintln!("FAILED: {what}");
            }
        }
        ok
    }

    /// Counts `attempted` operations of which `failed` went wrong (a
    /// client thread's own count).
    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED: {failed} of {attempted}: {what}");
        }
    }
}

/// Whether two answers are the same down to the last bit.
pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_are_counted() {
        let mut tally = Tally::default();
        assert!(tally.check(true, "fine"));
        assert!(!tally.check(false, "a deliberate miss"));
        tally.add(5, 2, "client misses");
        assert_eq!((tally.attempted, tally.failed), (7, 3));
    }

    #[test]
    fn bit_equality_is_stricter_than_numeric_equality() {
        assert!(bit_equal(&[1.5, -2.0], &[1.5, -2.0]));
        assert!(!bit_equal(&[0.0], &[-0.0]));
        assert!(!bit_equal(&[1.0], &[1.0, 1.0]));
    }
}
