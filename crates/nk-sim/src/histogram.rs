//! Logarithmic-bucket latency histogram.
//!
//! Table 5 of the paper reports the min / mean / stddev / median / max of
//! response times over 5 million requests. Storing every sample would be
//! wasteful, so the histogram keeps logarithmic buckets (5% relative error)
//! plus exact moments, which is plenty for reproducing the table.

/// Relative width of each bucket (5%).
const GROWTH: f64 = 1.05;

/// A latency histogram with logarithmic buckets.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// bucket i covers [GROWTH^i, GROWTH^(i+1)) in the recorded unit.
    counts: Vec<u64>,
    zero_count: u64,
    total: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            zero_count: 0,
            total: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    fn bucket_for(value: f64) -> usize {
        (value.ln() / GROWTH.ln()).floor().max(0.0) as usize
    }

    fn bucket_mid(idx: usize) -> f64 {
        GROWTH.powi(idx as i32) * (1.0 + GROWTH) / 2.0
    }

    /// Record one sample (any non-negative unit; the experiments use
    /// microseconds).
    pub fn record(&mut self, value: f64) {
        let value = value.max(0.0);
        self.total += 1;
        self.sum += value;
        self.sum_sq += value * value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value < 1.0 {
            self.zero_count += 1;
            return;
        }
        let idx = Self::bucket_for(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Population standard deviation of the samples.
    pub fn stddev(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let var = (self.sum_sq / self.total as f64 - mean * mean).max(0.0);
        var.sqrt()
    }

    /// Approximate quantile `q` in `[0, 1]` (0.5 is the median). A bucket's
    /// midpoint can lie outside the observed range, so the result is clamped
    /// to `[min, max]`: `max >= p99 >= p50 >= min` holds exactly.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero_count;
        let approx = if seen >= target {
            0.0
        } else {
            let mut buckets = self.counts.iter().enumerate();
            let hit = buckets.find(|&(_, &c)| {
                seen += c;
                seen >= target
            });
            hit.map_or(self.max, |(idx, _)| Self::bucket_mid(idx))
        };
        approx.clamp(self.min, self.max)
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.zero_count += other.zero_count;
        self.total += other.total;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.stddev(), 0.0);
    }

    #[test]
    fn moments_are_exact() {
        let mut h = Histogram::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert!((h.mean() - 5.0).abs() < 1e-9);
        assert!((h.stddev() - 2.0).abs() < 1e-9);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 9.0);
    }

    #[test]
    fn quantiles_are_close() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        let med = h.median();
        assert!((med - 5_000.0).abs() / 5_000.0 < 0.08, "median {med}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.08, "p99 {p99}");
        let p100 = h.quantile(1.0);
        assert!(p100 > 9_000.0 && p100 <= h.max() * GROWTH, "p100 {p100}");
    }

    #[test]
    fn sub_unit_samples_count_as_zero_bucket() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(0.5);
        h.record(10.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.4), 0.0);
        assert!(h.quantile(0.99) > 5.0);
    }

    /// Quantiles never leave the observed range, whatever the bucket
    /// midpoints are: 200 000 sits low in its bucket (midpoint 203 258).
    #[test]
    fn quantiles_stay_within_min_and_max() {
        for samples in [vec![200_000.0], vec![0.5, 0.7], vec![100_000.0, 300_000.0]] {
            let mut h = Histogram::new();
            samples.iter().for_each(|&v| h.record(v));
            let qs = [0.0, 0.5, 0.99, 1.0].map(|q| h.quantile(q));
            assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{samples:?}: {qs:?}");
            assert!(h.min() <= qs[0] && qs[3] <= h.max(), "{samples:?}: {qs:?}");
        }
    }

    /// Quantiles after a merge equal quantiles of the union of the sample
    /// streams — exactly, not approximately: bucket-wise addition makes the
    /// merged count array identical to the one the union would have built.
    /// This is the property the flight recorder's cross-shard latency
    /// aggregation relies on (per-host histograms merged in `HostId` order
    /// must summarize like one cluster-wide histogram).
    #[test]
    fn merged_quantiles_equal_union_quantiles() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for i in 1..=1_000 {
            a.record(i as f64);
            union.record(i as f64);
        }
        // Overlapping but shifted population, sub-unit samples included.
        for i in 0..=1_500 {
            let v = i as f64 * 2.7;
            b.record(v);
            union.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        // The bucket counts are integers, so quantiles match *exactly*; the
        // moments are f64 sums whose addition order differs, so they match
        // to rounding.
        for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), union.quantile(q), "q={q}");
        }
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.min(), union.min());
        assert_eq!(merged.max(), union.max());
        assert!((merged.mean() - union.mean()).abs() < 1e-9);
        assert!((merged.stddev() - union.stddev()).abs() < 1e-9);
    }

    /// Merging with an empty histogram is the identity in both directions —
    /// min/max/moments must not be disturbed by the empty side's sentinels.
    #[test]
    fn merge_with_empty_is_identity() {
        let mut populated = Histogram::new();
        for v in [0.5, 3.0, 42.0] {
            populated.record(v);
        }
        let mut left = populated.clone();
        left.merge(&Histogram::new());
        assert_eq!(left, populated);
        let mut right = Histogram::new();
        right.merge(&populated);
        assert_eq!(right.count(), populated.count());
        assert_eq!(right.min(), populated.min());
        assert_eq!(right.max(), populated.max());
        assert_eq!(right.median(), populated.median());
    }

    #[test]
    fn merge_combines_populations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=100 {
            a.record(i as f64);
            b.record((i * 10) as f64);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 200);
        assert_eq!(merged.max(), 1000.0);
        assert_eq!(merged.min(), 1.0);
        assert!(merged.mean() > a.mean());
    }
}
