//! Descriptive statistics: online accumulators, quantiles, histograms.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Numerically stable online mean/variance accumulator (Welford's
/// algorithm), plus min/max tracking.
///
/// # Example
///
/// ```
/// use rto_stats::desc::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for the empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count.saturating_sub(1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Coefficient of variation (`std/mean`), or `None` when the mean is
    /// zero or the accumulator is empty.
    pub fn cv(&self) -> Option<f64> {
        (self.count > 0 && self.mean.abs() > 0.0).then(|| self.std_dev() / self.mean.abs())
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN),
        )
    }
}

/// A compact five-number-plus summary of a batch of samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile (type-7 interpolation).
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a batch of samples.
    ///
    /// Returns `None` for an empty batch or one containing NaN.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Summary::of_mut(&mut samples.to_vec())
    }

    /// [`Summary::of`] without its copy: the mean and deviation are taken
    /// over `samples` in the given order, then `samples` is sorted in
    /// place for the quantiles.
    ///
    /// Returns `None`, leaving `samples` as it was, for an empty batch or
    /// one containing NaN.
    pub fn of_mut(samples: &mut [f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
            return None;
        }
        let mut acc = OnlineStats::new();
        for &x in samples.iter() {
            acc.push(x);
        }
        // NaN excluded above. Values equal under `total_cmp` have equal
        // bits, so the unstable sort's order is the stable one's, without
        // its scratch buffer.
        samples.sort_unstable_by(f64::total_cmp);
        let sorted = &*samples;
        Some(Summary {
            count: sorted.len(),
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: sorted[0],
            q25: quantile_sorted(sorted, 0.25),
            median: quantile_sorted(sorted, 0.5),
            q75: quantile_sorted(sorted, 0.75),
            p95: quantile_sorted(sorted, 0.95),
            p99: quantile_sorted(sorted, 0.99),
            max: sorted[sorted.len() - 1],
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4} min={:.4} p50={:.4} p95={:.4} p99={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev,
            self.min,
            self.median,
            self.p95,
            self.p99,
            self.max
        )
    }
}

/// Computes the `q`-quantile of **sorted** data using linear interpolation
/// (R type-7, the numpy default).
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    if data.len() == 1 {
        return data[0];
    }
    let pos = q.clamp(0.0, 1.0) * (data.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    data[lo] + (data[hi] - data[lo]) * frac
}

/// Computes the `q`-quantile of unsorted data (sorts a copy).
///
/// # Panics
///
/// Panics if `data` is empty, contains NaN, or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp); // total order; NaN sorts last and is rejected below
    quantile_sorted(&sorted, q)
}

/// A fixed-bin histogram over a closed range, with underflow/overflow
/// counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo >= hi`, or bounds are not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad histogram range"
        );
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / width).clamp(0.0, u64::MAX as f64) as usize)
                .min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Bin counts (in-range only).
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded observations, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The `(lo, hi)` bounds of bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bin_bounds(&self, idx: usize) -> (f64, f64) {
        assert!(idx < self.bins.len(), "bin index out of range");
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (
            self.lo + width * idx as f64,
            self.lo + width * (idx + 1) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // population variance 4 -> sample variance 4*8/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.cv(), None);
    }

    #[test]
    fn online_stats_single() {
        let mut s = OnlineStats::new();
        s.push(3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(3.0));
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn quantile_interpolation() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 4.0);
        assert_eq!(quantile(&data, 0.5), 2.5);
        assert!((quantile(&data, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_singleton() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_bad_level_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn summary_of_batch() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&data).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert!(s.p95 > s.q75 && s.p99 > s.p95);
    }

    /// `of_mut` takes the mean in the given order, as `of` does, so the
    /// two agree bit for bit, and it leaves the batch sorted.
    #[test]
    fn summary_of_mut_matches_of_and_sorts() {
        let data: Vec<f64> = (0..97)
            .map(|i| ((i * 37) % 97) as f64 / 7.0 + 0.1)
            .collect();
        let mut batch = data.clone();
        assert_eq!(Summary::of_mut(&mut batch), Summary::of(&data));
        assert!(batch.windows(2).all(|w| w[0] <= w[1]));
        let mut nan = vec![2.0, f64::NAN, 1.0];
        assert!(Summary::of_mut(&mut nan).is_none());
        assert_eq!(nan[0], 2.0, "a rejected batch is left as it was");
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn summary_display_contains_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        let text = s.to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("mean="));
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_bounds(0), (0.0, 2.0));
        assert_eq!(h.bin_bounds(4), (8.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn online_stats_display() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        assert!(s.to_string().contains("n=1"));
    }
}
