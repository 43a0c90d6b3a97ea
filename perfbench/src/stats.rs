//! Order statistics for latency samples and run-level summaries.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of an ascending
/// sample: the smallest value with at least `p`% of the sample at or
/// below it. `None` for an empty sample.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = rank(sorted.len(), p)?;
    sorted.get(rank - 1).copied()
}

/// The 1-based nearest rank of the `p`-th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let r = (p / 100.0 * n as f64).ceil() as usize;
    Some(r.clamp(1, n))
}

/// How many samples of `n` lie strictly beyond the nearest-rank `p`-th
/// percentile. A percentile is reported only when at least
/// [`MIN_BEYOND`] samples back it from above.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |r| n - r)
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of an unsorted sample (mean of the middle pair for even
/// sizes); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_p_percent() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50));
        assert_eq!(nearest_rank(&s, 99.0), Some(99));
        assert_eq!(nearest_rank(&s, 100.0), Some(100));
        assert_eq!(nearest_rank(&s, 0.5), Some(1));
        // Ranks round up, never interpolate.
        assert_eq!(nearest_rank(&[10, 20, 30], 50.0), Some(20));
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 50.0), Some(20));
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 51.0), Some(30));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&s, 0.0), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(0, 99.0), 0);
        // 1,000 is the smallest sample with ten beyond p99.
        assert!((1..1000).all(|n| samples_beyond(n, 99.0) < MIN_BEYOND));
        assert!(samples_beyond(1000, 99.0) >= MIN_BEYOND);
    }

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
