//! Small statistics helpers shared by the workloads, the layer drives and
//! `nkbench compare`.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: the run-to-run spread reported next to every
/// measured rate. 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// The highest percentile a sample of `n` supports: the largest of
/// 50/90/99/99.9 with at least ten samples beyond it. `None` below 20
/// samples (even the median would have fewer than ten on one side).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In per-mille, so "ten beyond" is exact integer arithmetic.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Percentile (nearest-rank with linear interpolation) of raw samples.
/// Used for wall-clock step times, which are continuous.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// A histogram of virtual-time latencies in whole ticks.
///
/// The apps observe completion only at tick granularity: a sample of `k`
/// ticks means the op finished somewhere in `((k−1)·dt, k·dt]`. Percentiles
/// are therefore interpolated inside the bucket (the grouped-data
/// estimator), which keeps them a continuous function of the bucket
/// populations instead of jumping a whole `dt` when one sample moves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TickHistogram {
    /// `counts[k]` = ops that took `k` ticks.
    counts: Vec<u64>,
    total: u64,
}

impl TickHistogram {
    /// Record one op that took `ticks` ticks.
    pub fn record(&mut self, ticks: u64) {
        let k = ticks as usize;
        if self.counts.len() <= k {
            self.counts.resize(k + 1, 0);
        }
        self.counts[k] += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Bucket counts, index = ticks.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Interpolated percentile in ticks (fractional). 0 when empty.
    pub fn percentile_ticks(&self, pct: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (pct / 100.0).clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0.0;
        for (k, &c) in self.counts.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && below + c >= target {
                let lower = (k as f64 - 1.0).max(0.0);
                return lower + (k as f64 - lower) * ((target - below) / c);
            }
            below += c;
        }
        (self.counts.len() - 1) as f64
    }
}

/// FNV-1a over a byte stream, the digest every determinism check in this
/// repository uses.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold one `u64` (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 25.0), 20.0);
        assert_eq!(percentile(&v, 12.5), 15.0);
    }

    #[test]
    fn tick_histogram_interpolates_inside_the_bucket() {
        let mut h = TickHistogram::default();
        for _ in 0..100 {
            h.record(3);
        }
        // All mass in (2, 3] ticks: the median sits mid-bucket.
        assert_eq!(h.percentile_ticks(50.0), 2.5);
        assert_eq!(h.percentile_ticks(100.0), 3.0);
        for _ in 0..100 {
            h.record(5);
        }
        // Half the mass is in bucket 3, so p50 is its upper edge and p75 is
        // the middle of bucket 5.
        assert_eq!(h.percentile_ticks(50.0), 3.0);
        assert_eq!(h.percentile_ticks(75.0), 4.5);
        assert_eq!(h.len(), 200);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut f = Fnv::default();
        f.bytes(b"a");
        assert_eq!(f.0, 0xaf63_dc4c_8601_ec8c);
    }
}
