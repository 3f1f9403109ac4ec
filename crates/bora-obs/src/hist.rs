//! [`ExpHistogram`]: a fixed exponential histogram — one bucket per power
//! of two — generalized out of `bora-serve`'s per-op recorders so every
//! crate shares one percentile implementation.
//!
//! All state is atomic (relaxed), so recording from many threads needs no
//! lock and no allocation: a `fetch_add` on the bucket, sum and count plus
//! a `fetch_min` for the minimum. Percentile error is bounded by the 2x
//! bucket width, which is plenty for "did the tail blow up" questions; the
//! reported value is the bucket *ceiling*, so tails are never
//! under-reported.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of power-of-two buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// Bucket index of a sample: `ilog2(v)`, with 0 mapping to bucket 0.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        v.ilog2() as usize
    }
}

/// Upper bound of a bucket — the value reported for percentiles landing in
/// it (conservative: never under-reports the tail).
#[inline]
pub fn bucket_ceiling(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// A concurrent exponential histogram with exact count/sum/min.
#[derive(Debug)]
pub struct ExpHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for ExpHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ExpHistogram {
    pub fn new() -> Self {
        ExpHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Forget every sample: the state [`ExpHistogram::new`] starts from.
    pub fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Point-in-time copy of the histogram's state. Reads are relaxed, so
    /// a snapshot taken during concurrent recording may be off by the
    /// in-flight samples — fine for reporting, not a barrier.
    pub fn snapshot(&self) -> HistSummary {
        HistSummary {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
        }
    }

    /// Shorthand for `snapshot().percentile(p)`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    pub fn mean(&self) -> u64 {
        self.snapshot().mean()
    }
}

/// Immutable copy of an [`ExpHistogram`], carrying the full bucket array
/// so percentiles can be computed after the fact (e.g. from a snapshot
/// embedded in bench results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    /// `u64::MAX` when no samples were recorded.
    pub min: u64,
    pub buckets: [u64; BUCKETS],
}

impl Default for HistSummary {
    fn default() -> Self {
        HistSummary { count: 0, sum: 0, min: u64::MAX, buckets: [0; BUCKETS] }
    }
}

impl HistSummary {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Minimum sample, or 0 when empty (reporting-friendly).
    pub fn min_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The `p`-quantile (`0.0 < p <= 1.0`) as the ceiling of the bucket
    /// holding the ceil(count·p)-th smallest sample.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_ceiling(i);
            }
        }
        bucket_ceiling(BUCKETS - 1)
    }

    /// Combine two summaries bucket-wise, as if every sample of both had
    /// been recorded into one histogram: counts, sums and buckets add
    /// (saturating), minima take the min. This is exact — merging N
    /// nodes' summaries equals the summary of one histogram fed all N
    /// nodes' samples — which is what makes cluster-wide percentiles
    /// honest rather than an average-of-percentiles.
    pub fn merge(&self, other: &HistSummary) -> HistSummary {
        HistSummary {
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            min: self.min.min(other.min),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_add(other.buckets[i])),
        }
    }

    /// This summary minus an `earlier` one of the same histogram
    /// (per-interval deltas; `min` is kept from `self` since minima are
    /// not subtractable).
    pub fn delta_since(&self, earlier: &HistSummary) -> HistSummary {
        HistSummary {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_percentiles() {
        let h = ExpHistogram::new();
        h.record(1000);
        // count=1: every percentile is the one bucket's ceiling.
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 1000);
        assert_eq!(s.mean(), 1000);
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile(p), 1023, "p={p}");
        }
    }

    #[test]
    fn reset_forgets_every_sample() {
        let h = ExpHistogram::new();
        for v in [0, 7, 1 << 40] {
            h.record(v);
        }
        h.reset();
        assert_eq!(h.snapshot(), HistSummary::default());
        h.record(5);
        assert_eq!((h.count(), h.snapshot().min), (1, 5));
    }

    #[test]
    fn all_zero_samples() {
        let h = ExpHistogram::new();
        for _ in 0..100 {
            h.record(0);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.mean(), 0);
        // Bucket 0's ceiling is 1: the conservative upper bound for {0, 1}.
        assert_eq!(s.percentile(0.99), 1);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = ExpHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.min_or_zero(), 0);
    }

    #[test]
    fn p99_at_power_of_two_edges() {
        // Exact 2^i boundary samples: 2^i lands in bucket i (ceiling
        // 2^(i+1)-1), while 2^i - 1 lands in bucket i-1 (ceiling 2^i - 1).
        for i in [1u32, 4, 9, 20, 40, 62] {
            let h = ExpHistogram::new();
            h.record(1u64 << i);
            assert_eq!(h.percentile(0.99), (2u64 << i) - 1, "2^{i}");
            let h = ExpHistogram::new();
            h.record((1u64 << i) - 1);
            assert_eq!(h.percentile(0.99), (1u64 << i) - 1, "2^{i}-1");
        }
    }

    #[test]
    fn p99_rank_selection() {
        let h = ExpHistogram::new();
        for _ in 0..99 {
            h.record(1000); // bucket 9 → ceiling 1023
        }
        h.record(1 << 20); // single outlier: p100, not p99
        assert_eq!(h.percentile(0.99), 1023);
        assert_eq!(h.percentile(1.0), (2u64 << 20) - 1);
    }

    #[test]
    fn top_bucket_saturates_to_max() {
        let h = ExpHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 2);
        assert_eq!(s.percentile(0.5), u64::MAX);
        assert_eq!(s.percentile(1.0), u64::MAX);
        // Sum wraps only via saturation in delta, not record; here the sum
        // overflows u64 deliberately — mean is still defined (mod 2^64).
        assert_eq!(s.count, 2);
    }

    #[test]
    fn merge_is_bucket_exact() {
        // Merging per-node summaries must equal a single histogram fed
        // every node's samples — the property cluster aggregation rests on.
        let a = ExpHistogram::new();
        let b = ExpHistogram::new();
        let combined = ExpHistogram::new();
        for v in [3u64, 900, 1_000_000, 17] {
            a.record(v);
            combined.record(v);
        }
        for v in [1u64, 5_000, u64::MAX, 900] {
            b.record(v);
            combined.record(v);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
        // Identity: merging with an empty summary changes nothing.
        assert_eq!(merged.merge(&HistSummary::default()), merged);
        // Commutative.
        assert_eq!(b.snapshot().merge(&a.snapshot()), merged);
    }

    #[test]
    fn delta_since_subtracts() {
        let h = ExpHistogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(1000);
        h.record(2000);
        let d = h.snapshot().delta_since(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 3000);
        assert_eq!(d.percentile(1.0), 2047);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(ExpHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 80_000);
        assert_eq!(s.min, 0);
    }
}
