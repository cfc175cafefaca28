//! Order statistics and the comparison rule.
//!
//! Every timing the benchmark reports is a median (over the rounds, of a
//! round's median over its samples); spreads are the distance between
//! the first and third quartile as Python's
//! `statistics.quantiles(values, n=4)` computes them, because that is
//! what the repository's driver uses to decide whether the benchmark is
//! steady.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes, errors).
    Lower,
    /// Larger values are better (throughput, speed-up, granularity).
    Higher,
}

impl Better {
    /// By how much `change` is *worse* than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worsening(self, base: f64, change: f64) -> f64 {
        let (from, to) = match self {
            Better::Lower => (base, change),
            Better::Higher => (change, base),
        };
        (to - from) / base.abs().max(f64::MIN_POSITIVE)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank percentile (`p` in `0..=100`); `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The first and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// What ten-or-more alternating pairs of parent and change say about one
/// metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9⁄10 of the pairs and the medians differ by more
    /// than the parent's own inter-quartile spread.
    Better,
    /// The parent wins ≥ 9⁄10 of the pairs, by more than its spread.
    Worse,
    /// Neither: the difference is inside the run-to-run noise.
    Unresolved,
}

/// The comparison rule of the choosing-metrics guide: a side wins the
/// metric only when it wins at least nine tenths of all pairs run (ties
/// count for neither) and the medians differ by more than the distance
/// between the parent's quartiles.
pub fn compare(parent: &[f64], change: &[f64], better: Better) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < 2 {
        return Verdict::Unresolved;
    }
    let (mut change_wins, mut parent_wins) = (0usize, 0usize);
    for (&p, &c) in parent.iter().zip(change) {
        let w = better.worsening(p, c);
        if w < 0.0 {
            change_wins += 1;
        } else if w > 0.0 {
            parent_wins += 1;
        }
    }
    let (q1, q3) = quartiles(&parent[..pairs]);
    let gap = (median(&change[..pairs]) - median(&parent[..pairs])).abs();
    let needed = (pairs * 9).div_ceil(10);
    if gap <= q3 - q1 {
        Verdict::Unresolved
    } else if change_wins >= needed {
        Verdict::Better
    } else if parent_wins >= needed {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 11.0) + 0.1).abs() < 1e-12);
    }

    /// Deterministic noise in `[-amp, amp]`.
    fn noise(i: usize, amp: f64) -> f64 {
        let x = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
        (x as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * amp
    }

    #[test]
    fn a_twenty_percent_shift_is_flagged() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 * (1.0 + noise(i, 0.02))).collect();
        let slower: Vec<f64> = (0..10)
            .map(|i| 120.0 * (1.0 + noise(i + 10, 0.02)))
            .collect();
        assert_eq!(compare(&parent, &slower, Better::Lower), Verdict::Worse);
        assert_eq!(compare(&parent, &slower, Better::Higher), Verdict::Better);
        assert_eq!(compare(&slower, &parent, Better::Lower), Verdict::Better);
    }

    #[test]
    fn a_three_percent_shift_inside_eight_percent_noise_is_unresolved() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 * (1.0 + noise(i, 0.08))).collect();
        let change: Vec<f64> = (0..10)
            .map(|i| 103.0 * (1.0 + noise(i + 10, 0.08)))
            .collect();
        assert_eq!(
            compare(&parent, &change, Better::Lower),
            Verdict::Unresolved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = vec![1.0; 10];
        assert_eq!(
            compare(&parent, &parent, Better::Lower),
            Verdict::Unresolved
        );
    }
}
