//! Summary statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule on sorted samples. A tail
//! percentile is reported only when at least [`TAIL_MIN_BEYOND`] samples
//! lie beyond it; [`tail_percentile`] picks the highest one that does.

/// Samples that must lie strictly above a tail percentile for it to be
/// reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The nearest rank of percentile `p` among `n` samples, `ceil(p n /
/// 100)`, with products that are whole up to rounding error (99.9 % of
/// 10 000) taken as whole.
fn rank(n: usize, p: f64) -> usize {
    let x = p * n as f64 / 100.0;
    let whole = x.round();
    (if (x - whole).abs() < 1e-9 {
        whole
    } else {
        x.ceil()
    }) as usize
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`TAIL_MIN_BEYOND`] beyond
/// percentile `p`: nearest rank puts `n - rank` samples above it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    let r = rank(n, p);
    r >= 1 && n >= r + TAIL_MIN_BEYOND
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it among `n` samples, or `None` when even p90 is not
/// supported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| tail_supported(n, p))
}

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 200 samples is rank 190: exactly 10 beyond it.
        assert!(tail_supported(200, 95.0));
        assert!(!tail_supported(199, 95.0));
        // p99 needs 1000; p99.9 needs 10 000.
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(10_000, 99.9));
        assert!(!tail_supported(9_999, 99.9));
    }

    #[test]
    fn tail_percentile_picks_the_highest_supported() {
        assert_eq!(tail_percentile(50), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(20_000), Some(99.9));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
