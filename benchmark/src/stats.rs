//! Sample statistics: nearest-rank percentiles, the "ten samples beyond"
//! rule, and the quartile spread the agreement check prints.

/// Nearest-rank percentile of an ascending-sorted slice (always an observed
/// value); 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    s
}

/// Median (nearest rank) of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `n` and the percentiles of an ascending-sorted sample, for the run log.
pub fn describe(sorted: &[f64]) -> String {
    let at = |p: f64| percentile(sorted, p);
    format!(
        "n={} min={:.3} p25={:.3} p50={:.3} p75={:.3} p90={:.3} p99={:.3} max={:.3} ms",
        sorted.len(),
        at(0.0),
        at(25.0),
        at(50.0),
        at(75.0),
        at(90.0),
        at(99.0),
        at(100.0)
    )
}

/// Samples a percentile needs before it may be reported: at least ten
/// samples must lie beyond it (p90 needs 100, p99 needs 1000).
pub fn samples_needed(p: f64) -> usize {
    (1000.0 / (100.0 - p)).ceil() as usize
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the rule the acceptance check
/// applies to the spread between runs.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_observed_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
        // 99 samples leave only 9.9 beyond p90: not enough.
        assert!(99 < samples_needed(90.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, _, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }
}
