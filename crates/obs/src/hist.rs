//! Log-bucketed histogram with lock-free recording.
//!
//! HDR-style bucket scheme: values 0..16 get exact unit buckets; beyond
//! that each power-of-2 *major* bucket is split into 8 linear
//! *sub-buckets*, so the relative quantization error is bounded by
//! `2^-3 = 12.5 %`. Values at or above [`HIST_OVERFLOW_FLOOR`] saturate
//! into a single overflow bucket (the true maximum is still tracked
//! exactly). Recording is a single relaxed `fetch_add` plus min/max
//! updates — no locks, safe from any thread.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS; // 8 sub-buckets per major
const MAX_MAJOR: u32 = 31; // regular buckets cover values < 2^32

/// Total bucket count: 240 regular buckets (16 exact unit buckets plus 8
/// sub-buckets for each major 4..=31) + 1 saturating overflow bucket.
pub const HIST_BUCKETS: usize = ((MAX_MAJOR as usize - 1) * SUB) + 1;

/// Smallest value that lands in the overflow bucket (`2^32`; as
/// microseconds that is ≈ 71.6 minutes — far beyond any span we time).
pub const HIST_OVERFLOW_FLOOR: u64 = 1 << (MAX_MAJOR + 1);

/// Bucket index for `v`. Total order preserving: `a <= b` implies
/// `index(a) <= index(b)`.
#[inline]
fn index(v: u64) -> usize {
    if v < (2 * SUB) as u64 {
        return v as usize;
    }
    let major = 63 - v.leading_zeros();
    if major > MAX_MAJOR {
        return HIST_BUCKETS - 1;
    }
    let sub = (v >> (major - SUB_BITS)) as usize & (SUB - 1);
    (major as usize - 2) * SUB + sub
}

/// Value range `[lo, hi)` covered by bucket `idx` (the overflow bucket's
/// `hi` is `u64::MAX`).
fn bounds(idx: usize) -> (u64, u64) {
    if idx < 2 * SUB {
        return (idx as u64, idx as u64 + 1);
    }
    if idx >= HIST_BUCKETS - 1 {
        return (HIST_OVERFLOW_FLOOR, u64::MAX);
    }
    let major = (idx / SUB + 2) as u32;
    let sub = (idx % SUB) as u64;
    let width = 1u64 << (major - SUB_BITS);
    let lo = (1u64 << major) + sub * width;
    (lo, lo + width)
}

/// Lock-free log-bucketed histogram. Record from any thread; snapshot at
/// leisure.
#[derive(Debug)]
pub struct LogHistogram {
    counts: Box<[AtomicU64; HIST_BUCKETS]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation of `v`. Lock-free; never blocks or panics.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total observations so far (sums the buckets, so it agrees with what
    /// a concurrently taken snapshot could see).
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Point-in-time copy of the bucket counts. Concurrent recorders may
    /// land observations between bucket reads, so a snapshot is a
    /// *consistent lower bound*: every bucket holds at least the
    /// observations recorded before the snapshot began, and repeated
    /// snapshots are monotone per bucket.
    pub fn snapshot(&self) -> HistSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`LogHistogram`]'s state; supports merge and
/// percentile queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.min)
    }

    /// Exact largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.max)
    }

    /// Mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Observations recorded into the saturating overflow bucket.
    pub fn overflow(&self) -> u64 {
        self.counts[HIST_BUCKETS - 1]
    }

    /// Fold `other` into `self` (element-wise bucket add, min/max/sum
    /// combine). Merging disjoint snapshots is exact.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile for `q` in `[0, 1]`. Returns the inclusive
    /// upper bound of the bucket holding the ranked observation, so the
    /// true value `e` satisfies `e <= p <= e · 1.125` (exact for values
    /// below 16; clamped to the exact max for the overflow bucket).
    /// Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if idx == HIST_BUCKETS - 1 {
                    return self.max;
                }
                let (_, hi) = bounds(idx);
                return (hi - 1).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand percentiles.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }
    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Raw bucket counts (length [`HIST_BUCKETS`]).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_exact_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(index(v), v as usize);
        }
    }

    #[test]
    fn index_is_monotone_and_bounds_roundtrip() {
        let mut values: Vec<u64> = (0..40u32)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = index(v);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
            let (lo, hi) = bounds(idx);
            assert!(lo <= v && v < hi, "v={v} outside bucket [{lo},{hi})");
        }
    }

    #[test]
    fn bounds_tile_the_value_space() {
        // Consecutive buckets must abut exactly: no gaps, no overlap.
        for idx in 0..HIST_BUCKETS - 1 {
            let (_, hi) = bounds(idx);
            let (lo_next, _) = bounds(idx + 1);
            assert_eq!(
                hi,
                lo_next,
                "gap/overlap between buckets {idx} and {}",
                idx + 1
            );
        }
        assert_eq!(bounds(HIST_BUCKETS - 1).0, HIST_OVERFLOW_FLOOR);
    }

    #[test]
    fn records_and_reports_basic_stats() {
        let h = LogHistogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 1106);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(1000));
        assert!((s.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn overflow_bucket_saturates_not_panics() {
        let h = LogHistogram::new();
        h.record(HIST_OVERFLOW_FLOOR);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.overflow(), 3);
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), Some(u64::MAX));
        // Percentiles in the overflow bucket clamp to the exact max.
        assert_eq!(s.p99(), u64::MAX);
    }

    #[test]
    fn merge_of_disjoint_snapshots_is_exact() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in 0..100u64 {
            a.record(v);
        }
        for v in 10_000..10_100u64 {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 200);
        assert_eq!(m.min(), Some(0));
        assert_eq!(m.max(), Some(10_099));
        assert_eq!(
            m.sum(),
            (0..100u64).sum::<u64>() + (10_000..10_100u64).sum::<u64>()
        );
        // The merged median sits between the two disjoint clouds' medians.
        assert!(m.p50() >= 99 && m.p50() < 10_000 * 9 / 8);
    }

    #[test]
    fn percentile_of_empty_snapshot_is_zero() {
        // Pinned behavior: an empty snapshot answers 0 at every quantile —
        // never a panic, never the saturated `max` sentinel.
        let snap = LogHistogram::new().snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.percentile(q), 0, "q={q}");
        }
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.p999(), 0);
    }

    #[test]
    fn percentile_extremes_on_single_sample() {
        // With one observation, every quantile — including the degenerate
        // q=0.0 (rank clamps up to 1) and q=1.0 — is that sample.
        for v in [0u64, 1, 7, 1_000] {
            let h = LogHistogram::new();
            h.record(v);
            let snap = h.snapshot();
            for q in [0.0, 0.5, 1.0] {
                assert_eq!(snap.percentile(q), v, "v={v} q={q}");
            }
        }
    }

    #[test]
    fn percentiles_agree_with_exact_nearest_rank() {
        // ≤10k synthetic samples spanning several majors; the histogram's
        // answer must bracket the exact nearest-rank within one bucket.
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 9_876_543_210u64;
        for _ in 0..10_000 {
            // xorshift64 spread over [0, 2^20)
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push(x % (1 << 20));
        }
        let h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.50, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = snap.percentile(q);
            assert!(
                exact <= approx,
                "q={q}: approx {approx} below exact {exact}"
            );
            // Upper bucket edge is within 12.5 % (plus 1 for unit buckets).
            assert!(
                approx as f64 <= exact as f64 * 1.125 + 1.0,
                "q={q}: approx {approx} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn empty_snapshot_is_inert() {
        let s = HistSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_records_all_land() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(t * 100_000 + i);
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 20_000);
    }
}
