//! Per-device execution counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Flip/batch throughput counters, updated by the device and read by the
/// host (all relaxed: they are monotone counters used for reporting only).
#[derive(Debug, Default)]
pub struct DeviceStats {
    batches: AtomicU64,
    flips: AtomicU64,
    improvements: AtomicU64,
}

impl DeviceStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed batch of `flips` flips; `improved` marks whether
    /// it improved the device-wide best.
    pub fn record_batch(&self, flips: u64, improved: bool) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.flips.fetch_add(flips, Ordering::Relaxed);
        if improved {
            self.improvements.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Batches completed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Total flips performed so far.
    pub fn flips(&self) -> u64 {
        self.flips.load(Ordering::Relaxed)
    }

    /// Batches that improved the device-wide best.
    pub fn improvements(&self) -> u64 {
        self.improvements.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = DeviceStats::new();
        s.record_batch(100, true);
        s.record_batch(250, false);
        assert_eq!(s.batches(), 2);
        assert_eq!(s.flips(), 350);
        assert_eq!(s.improvements(), 1);
    }
}
