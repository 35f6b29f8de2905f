//! Metric arithmetic: supported percentiles, ratios with their base, and
//! window deltas of the program's own histograms.

use tebaldi_obs::HistogramSnapshot;

/// Samples that must lie beyond a reported percentile for it to count.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `q` (in `0.0..=1.0`) of `sorted`, or `None`
/// when fewer than `min_beyond` samples rank above it — a tail figure
/// resting on a handful of samples is noise, not a measurement.
pub fn supported_percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= min_beyond).then(|| sorted[rank - 1])
}

/// `total` per committed transaction; 0 when nothing committed.
pub fn per_commit(total: f64, commits: u64) -> f64 {
    if commits == 0 {
        0.0
    } else {
        total / commits as f64
    }
}

/// Units that gave up after their retries, over units attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The samples `after` recorded beyond `before`: bucket counts, count and
/// sum subtract exactly; the maximum cannot be un-merged, so the later one
/// stays as the quantile cap.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = after
        .buckets
        .iter()
        .filter_map(|&(index, n)| {
            let earlier = before
                .buckets
                .iter()
                .find(|&&(i, _)| i == index)
                .map_or(0, |&(_, m)| m);
            let d = n.saturating_sub(earlier);
            (d > 0).then_some((index, d))
        })
        .collect();
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        max: after.max,
        buckets,
    }
}

/// Nanosecond quantile `q` of a histogram, in microseconds.
pub fn quantile_us(hist: &HistogramSnapshot, q: f64) -> f64 {
    hist.quantile(q) as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        // 10 000 samples: rank 9 990, exactly ten above it.
        assert_eq!(
            supported_percentile(&ramp(10_000), 0.999, MIN_BEYOND),
            Some(9_990.0)
        );
        // 9 999 samples leave only nine above rank 9 990.
        assert_eq!(supported_percentile(&ramp(9_999), 0.999, MIN_BEYOND), None);
    }

    #[test]
    fn median_and_p99_of_a_small_sample() {
        let s = ramp(2_000);
        assert_eq!(supported_percentile(&s, 0.5, MIN_BEYOND), Some(1_000.0));
        assert_eq!(supported_percentile(&s, 0.99, MIN_BEYOND), Some(1_980.0));
        assert_eq!(supported_percentile(&[], 0.5, MIN_BEYOND), None);
    }

    #[test]
    fn failed_frac_is_over_attempts() {
        assert_eq!(failed_frac(0, 1_000), 0.0);
        assert_eq!(failed_frac(5, 1_000), 0.005);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn per_commit_normalises_and_guards_zero() {
        assert_eq!(per_commit(3_000.0, 1_500), 2.0);
        assert_eq!(per_commit(3_000.0, 0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_delta_keeps_only_the_window() {
        let h = tebaldi_obs::Histogram::new();
        for _ in 0..100 {
            h.record(1_000);
        }
        let before = h.snapshot();
        for _ in 0..50 {
            h.record(1_000_000);
        }
        let delta = hist_delta(&h.snapshot(), &before);
        assert_eq!(delta.count, 50);
        assert_eq!(delta.sum, 50_000_000);
        let p50 = quantile_us(&delta, 0.5);
        assert!((p50 - 1_000.0).abs() / 1_000.0 < 0.05, "p50 {p50}");
    }
}
