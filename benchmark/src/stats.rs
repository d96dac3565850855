//! Order statistics over raw samples.
//!
//! Everything the benchmark reports as a latency is a percentile of raw
//! samples (no histogram buckets), so a reported value carries all the
//! digits that were measured.

/// The `p`-th percentile (0–100) of an ascending-sorted slice, by
/// linear interpolation between the two nearest ranks. `None` when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts `samples` in place and returns the median (`None` when empty).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50.0)
}

/// First quartile, median, third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the acceptance rule for this benchmark is stated in those
/// terms, so `--repeat` and `--compare` must agree with it digit for
/// digit. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j, delta = divmod(i * (n + 1), 4), clamped into [1, n-1].
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// The spread the acceptance rule gates: the inter-quartile distance
/// as a share of the median.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest "round" percentile that still has at least ten samples
/// beyond it (p50, p90, p99, p99.9, …), with the number of samples
/// beyond it. `None` below twenty samples, where not even the median
/// qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<(f64, usize)> {
    let mut best = None;
    let mut tail = 0.5_f64; // share of samples beyond the percentile
    for _ in 0..8 {
        let beyond = (n as f64 * tail).floor() as usize;
        if beyond < 10 {
            break;
        }
        best = Some((100.0 * (1.0 - tail), beyond));
        tail = if tail == 0.5 { 0.1 } else { tail / 10.0 };
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(percentile(&xs, 50.0), Some(25.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&xs), Some(1.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some((50.0, 10)));
        assert_eq!(highest_supported_percentile(99), Some((50.0, 49)));
        assert_eq!(highest_supported_percentile(100), Some((90.0, 10)));
        assert_eq!(highest_supported_percentile(1_000), Some((99.0, 10)));
        let (p, beyond) = highest_supported_percentile(25_000).unwrap();
        assert!((p - 99.9).abs() < 1e-9 && beyond == 25);
        let (p, beyond) = highest_supported_percentile(2_000_000).unwrap();
        assert!((p - 99.999).abs() < 1e-9 && beyond == 20);
    }
}
