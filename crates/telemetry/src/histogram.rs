//! HDR-style log-bucketed latency histograms.
//!
//! Values (nanoseconds, bytes — any `u64`) are binned by their power of
//! two: bucket 0 holds exact zeros, bucket `i ≥ 1` holds
//! `[2^(i-1), 2^i - 1]`. 65 atomic buckets therefore cover the whole
//! `u64` range with a worst-case relative error of 2× — plenty to spot a
//! distance class regressing from "cache hop" to "board crossing" — while
//! recording stays a single relaxed atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::snapshot::{BucketCount, HistogramSnapshot};

/// Number of buckets: zeros plus one per power of two.
pub const NUM_BUCKETS: usize = 65;

/// Estimates the `q`-quantile (`0.0..=1.0`) of a log-bucketed distribution
/// given its non-empty buckets in ascending order and the total count.
///
/// The value is interpolated linearly inside the bucket holding the target
/// rank (assuming a uniform spread within it), so the estimate inherits the
/// buckets' worst-case 2× relative error. Returns 0.0 for an empty
/// distribution.
pub fn estimate_percentile<'a>(
    total: u64,
    buckets: impl IntoIterator<Item = &'a BucketCount>,
    q: f64,
) -> f64 {
    if total == 0 {
        return 0.0;
    }
    // 1-based rank of the value we are looking for.
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    let mut last_hi = 0.0f64;
    for b in buckets {
        if seen + b.count >= rank {
            let into = (rank - seen) as f64 / b.count as f64;
            return b.lo as f64 + (b.hi - b.lo) as f64 * into;
        }
        seen += b.count;
        last_hi = b.hi as f64;
    }
    last_hi
}

/// The bucket index `value` falls into.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` range of values binned into bucket `index`.
///
/// # Panics
/// Panics if `index >= NUM_BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket {index} out of range");
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A concurrent log-bucketed histogram. Cheap enough to sit on executor
/// hot paths: one relaxed `fetch_add` per recorded value (plus two for the
/// count/sum totals).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Estimated `q`-quantile of the recorded values (see
    /// [`estimate_percentile`] for the interpolation contract).
    pub fn percentile(&self, q: f64) -> f64 {
        self.snapshot().percentile(q)
    }

    /// Estimated median.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Zeroes every bucket and the totals.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy listing only non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then(|| {
                    let (lo, hi) = bucket_bounds(i);
                    BucketCount { lo, hi, count }
                })
            })
            .collect();
        HistogramSnapshot { count: self.count(), sum: self.sum(), buckets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_bounds(0), (0, 0));
        // Bucket 1 holds exactly {1}; bucket i holds [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_bounds(2), (2, 3));
        // Boundary crossings: 2^k - 1 and 2^k land in adjacent buckets.
        for k in 2..=63u32 {
            let pow = 1u64 << k;
            assert_eq!(bucket_index(pow - 1), k as usize, "2^{k}-1 below");
            assert_eq!(bucket_index(pow), k as usize + 1, "2^{k} above");
            let (lo, hi) = bucket_bounds(k as usize + 1);
            assert_eq!(lo, pow);
            assert!(hi >= pow);
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn every_value_falls_inside_its_bucket_bounds() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 4095, 4096, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn percentiles_are_estimated_within_bucket_bounds() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(0.5), 0.0, "empty histogram");
        // 100 values of 10, 10 of ~1000: p50 sits in the [8,15] bucket,
        // p99 in the [512,1023] bucket.
        for _ in 0..100 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let p50 = h.p50();
        assert!((8.0..=15.0).contains(&p50), "p50 {p50} inside the value's bucket");
        let p99 = h.p99();
        assert!((512.0..=1023.0).contains(&p99), "p99 {p99} inside the tail bucket");
        assert!(h.p90() <= p99, "percentiles are monotone");
        // q clamps: 0 -> low end, 1 -> top of the highest bucket.
        assert!(h.percentile(0.0) <= p50);
        assert!(h.percentile(1.0) >= p99);
    }

    #[test]
    fn record_and_snapshot() {
        let h = LogHistogram::new();
        for v in [0, 1, 5, 5, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1035);
        assert_eq!(h.mean(), 207.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        // Buckets: {0}, {1}, [4,7] twice, [1024,2047].
        assert_eq!(snap.buckets.len(), 4);
        assert_eq!(snap.buckets[2], BucketCount { lo: 4, hi: 7, count: 2 });
        h.reset();
        assert_eq!(h.count(), 0);
        assert!(h.snapshot().buckets.is_empty());
    }
}
