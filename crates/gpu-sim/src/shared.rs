//! Device-wide shared state: the `atomicMin` best-energy register and the
//! cooperative stop flag.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// Lock-free monotone-minimum energy register.
///
/// The paper keeps `E(BEST)` in shared memory and updates it with CUDA
/// `atomicMin`, arguing updates are rare so contention is negligible; a
/// relaxed `fetch_min` gives the same semantics here.
#[derive(Debug)]
pub struct SharedBest {
    energy: AtomicI64,
}

impl SharedBest {
    /// Start at `+∞` (`i64::MAX`).
    pub fn new() -> Self {
        Self {
            energy: AtomicI64::new(i64::MAX),
        }
    }

    /// Record `e`; returns `true` when `e` strictly improved the register.
    #[inline]
    pub fn update(&self, e: i64) -> bool {
        self.energy.fetch_min(e, Ordering::Relaxed) > e
    }

    /// Current best energy (`i64::MAX` when nothing recorded yet).
    #[inline]
    pub fn get(&self) -> i64 {
        self.energy.load(Ordering::Relaxed)
    }

    /// Min-merge a bulk leg's per-lane energies: one `fetch_min` with the
    /// lane minimum instead of one per lane. Returns `true` when the
    /// register strictly improved; `false` on an empty slice.
    #[inline]
    pub fn merge_lanes(&self, lane_energies: &[i64]) -> bool {
        match lane_energies.iter().min() {
            Some(&e) => self.update(e),
            None => false,
        }
    }
}

impl Default for SharedBest {
    fn default() -> Self {
        Self::new()
    }
}

/// Cooperative termination flag, checked by a solver run before every batch.
#[derive(Debug, Default)]
pub struct StopFlag {
    flag: AtomicBool,
}

impl StopFlag {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request termination.
    #[inline]
    pub fn stop(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has termination been requested?
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_best_monotone() {
        let b = SharedBest::new();
        assert_eq!(b.get(), i64::MAX);
        assert!(b.update(10));
        assert!(!b.update(10), "equal value is not an improvement");
        assert!(!b.update(11), "worse value is not an improvement");
        assert!(b.update(-5));
        assert_eq!(b.get(), -5);
    }

    #[test]
    fn shared_best_concurrent_minimum() {
        let b = Arc::new(SharedBest::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for v in 0..1000i64 {
                        b.update(v - t * 100);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.get(), -700);
    }

    #[test]
    fn merge_lanes_takes_the_minimum() {
        let b = SharedBest::new();
        assert!(!b.merge_lanes(&[]), "empty lane set is a no-op");
        assert_eq!(b.get(), i64::MAX);
        assert!(b.merge_lanes(&[5, -3, 8]));
        assert_eq!(b.get(), -3);
        assert!(!b.merge_lanes(&[0, -3]), "no strict improvement");
        assert!(b.merge_lanes(&[-10, 99]));
        assert_eq!(b.get(), -10);
    }

    #[test]
    fn stop_flag_transitions_once() {
        let f = StopFlag::new();
        assert!(!f.is_stopped());
        f.stop();
        assert!(f.is_stopped());
        f.stop(); // idempotent
        assert!(f.is_stopped());
    }
}
