//! Percentiles and medians over raw samples (no bucketing: the driver
//! keeps every latency it observes).

/// Nearest-rank percentile of an ascending slice; `None` when empty.
/// `p` is in `[0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps 0.9 × 100 = 90.00000000000001 at rank 90.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it (choosing-metrics §1); `None` below 20 samples,
/// where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In per-mille, so the count of samples beyond is exact.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Median of unsorted nanosecond samples, in microseconds; `0.0` when
/// there are none (a layer the workload never entered).
pub fn median_us(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    percentile(samples, 50.0).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
