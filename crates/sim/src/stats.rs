//! Statistics primitives for the probes that fold the simulator's event
//! stream into reports.
//!
//! The paper reports per-message averages (Table 4's queueing delay and
//! service time), which [`MeanAccumulator`] keeps; [`Histogram`] keeps the
//! distributions (prediction lead times, message latencies).

use crate::time::Cycle;

/// Accumulates samples and reports their arithmetic mean.
///
/// Used for the Table 4 columns (per-message queueing delay and service
/// time).
///
/// # Examples
///
/// ```
/// use ltp_sim::stats::MeanAccumulator;
///
/// let mut queueing = MeanAccumulator::new();
/// queueing.record(10.0);
/// queueing.record(30.0);
/// assert_eq!(queueing.mean(), Some(20.0));
/// assert_eq!(queueing.samples(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanAccumulator {
    sum: f64,
    samples: u64,
}

impl MeanAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        MeanAccumulator::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: f64) {
        self.sum += sample;
        self.samples += 1;
    }

    /// Records a [`Cycle`] duration as a sample.
    #[inline]
    pub fn record_cycles(&mut self, cycles: Cycle) {
        self.record(cycles.as_u64() as f64);
    }

    /// The mean of all samples, or `None` if none were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.sum / self.samples as f64)
    }

    /// The mean, or 0.0 when empty (convenient for table printing).
    pub fn mean_or_zero(&self) -> f64 {
        self.mean().unwrap_or(0.0)
    }

    /// The number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &MeanAccumulator) {
        self.sum += other.sum;
        self.samples += other.samples;
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are `[bounds[i-1], bounds[i])` with two open-ended extremes. Used
/// for distribution sanity checks (e.g. signature-table occupancy spread).
///
/// # Examples
///
/// ```
/// use ltp_sim::stats::Histogram;
///
/// let mut h = Histogram::with_bounds(&[10, 100]);
/// h.record(5);
/// h.record(50);
/// h.record(500);
/// assert_eq!(h.bucket_counts(), &[1, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    samples: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            samples: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| sample < b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.samples += 1;
        self.sum += u128::from(sample);
        if sample > self.max {
            self.max = sample;
        }
    }

    /// The ascending bucket upper bounds this histogram was built with
    /// (bucket `i` covers `[bounds[i-1], bounds[i])`; one open-ended bucket
    /// follows the last bound).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last bucket is open-ended.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_accumulator_basic() {
        let mut m = MeanAccumulator::new();
        assert_eq!(m.mean(), None);
        assert_eq!(m.mean_or_zero(), 0.0);
        m.record(2.0);
        m.record(4.0);
        m.record_cycles(Cycle::new(6));
        assert_eq!(m.mean(), Some(4.0));
        assert_eq!(m.samples(), 3);
        assert_eq!(m.sum(), 12.0);
    }

    #[test]
    fn mean_accumulator_merge() {
        let mut a = MeanAccumulator::new();
        a.record(1.0);
        let mut b = MeanAccumulator::new();
        b.record(3.0);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.samples(), 3);
        assert_eq!(a.mean(), Some(3.0));
    }

    #[test]
    fn histogram_bucketizes() {
        let mut h = Histogram::with_bounds(&[2, 4]);
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 2]);
        assert_eq!(h.samples(), 6);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 110.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::with_bounds(&[4, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one bound")]
    fn histogram_rejects_empty_bounds() {
        Histogram::with_bounds(&[]);
    }
}
