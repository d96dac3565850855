//! Measurement primitives: the latency histogram.
//!
//! Latency histograms store raw nanosecond samples and compute exact
//! percentiles on demand; at the scale of these experiments (≤ a few
//! million samples) this is both simpler and more accurate than bucketed
//! approximations.

use crate::time::SimDuration;

/// An exact-percentile latency histogram.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples_ns.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples_ns.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Arithmetic mean, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples_ns.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples_ns.iter().map(|&x| x as u128).sum();
        SimDuration::from_nanos((sum / self.samples_ns.len() as u128) as u64)
    }

    /// Exact percentile (`p` in `[0, 100]`), or zero when empty.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        if self.samples_ns.is_empty() {
            return SimDuration::ZERO;
        }
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
        let n = self.samples_ns.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        SimDuration::from_nanos(self.samples_ns[idx])
    }

    /// Median (p50).
    pub fn median(&mut self) -> SimDuration {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> SimDuration {
        self.percentile(99.0)
    }

    /// Largest sample, or zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples_ns.iter().copied().max().unwrap_or(0))
    }

    /// Smallest sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples_ns.iter().copied().min().unwrap_or(0))
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples_ns.extend_from_slice(&other.samples_ns);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p99(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn percentiles_are_exact() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(ms(i));
        }
        assert_eq!(h.percentile(1.0), ms(1));
        assert_eq!(h.median(), ms(50));
        assert_eq!(h.p99(), ms(99));
        assert_eq!(h.percentile(100.0), ms(100));
        assert_eq!(h.mean(), SimDuration::from_micros(50_500));
    }

    #[test]
    fn single_sample_percentiles() {
        let mut h = Histogram::new();
        h.record(ms(7));
        assert_eq!(h.median(), ms(7));
        assert_eq!(h.p99(), ms(7));
        assert_eq!(h.min(), ms(7));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(ms(1));
        b.record(ms(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), ms(2));
    }

    #[test]
    fn record_after_percentile_requery_is_correct() {
        let mut h = Histogram::new();
        h.record(ms(10));
        assert_eq!(h.median(), ms(10));
        h.record(ms(2));
        // Re-sorting must happen after the new sample.
        assert_eq!(h.percentile(1.0), ms(2));
    }
}
