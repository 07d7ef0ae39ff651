//! Order statistics over timing samples.

/// Percentiles the tail helper may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a reported percentile must leave beyond it.
const MIN_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One-based nearest rank of percentile `p` in `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps binary rounding of `p` (99.9 is inexact) from
    // pushing an exact rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The value at percentile `p` (nearest rank) of `samples`; `NaN` when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// Whether percentile `p` of `n` samples leaves at least ten samples
/// beyond it.
pub fn supported(p: f64, n: usize) -> bool {
    n > 0 && n - rank(p, n) >= MIN_BEYOND
}

/// The highest percentile no greater than `cap` that leaves at least ten
/// samples beyond it, with its value: `(percentile, value)`. `None` when
/// the sample is too small even for the median (fewer than 20 samples).
pub fn tail(samples: &[f64], cap: f64) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| supported(p, samples.len()))
        .map(|p| (p, percentile(samples, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail(&ramp(1000), 99.0), Some((99.0, 990.0)));
        // One fewer and p99 leaves only 9 beyond: fall back to p90.
        assert_eq!(tail(&ramp(999), 99.0), Some((90.0, 900.0)));
        // 10 000 samples support p99.9, but the cap holds it to p99.
        assert_eq!(tail(&ramp(10_000), 99.0), Some((99.0, 9900.0)));
        assert_eq!(tail(&ramp(10_000), 100.0), Some((99.9, 9990.0)));
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail(&ramp(20), 99.0), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn supported_counts_samples_beyond_the_rank() {
        assert!(supported(90.0, 100));
        assert!(!supported(90.0, 99));
        assert!(!supported(50.0, 0));
    }
}
