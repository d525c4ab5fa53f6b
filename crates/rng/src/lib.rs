//! Deterministic pseudo-random number generation for the DABS solver.
//!
//! The paper's GPU implementation seeds every CUDA thread with a 64-bit seed
//! produced on the host, and each device thread then runs Xorshift for cheap
//! per-flip randomness. This crate reproduces that split:
//!
//! * [`SplitMix64`] — the seeding generator: it derives the seeds of pools,
//!   devices and units from one `u64` run seed.
//! * [`Xorshift64Star`] — Marsaglia's xorshift with the `*` output scrambler,
//!   the per-"thread" generator used inside search kernels.
//!
//! Both implement the object-safe [`Rng64`] trait, so search code can be
//! written once against any generator.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod splitmix;
mod xorshift;

pub use splitmix::SplitMix64;
pub use xorshift::Xorshift64Star;

/// A 64-bit pseudo-random generator.
///
/// The provided methods derive bounded integers, floats and Bernoulli draws
/// from the raw `next_u64` stream; implementors only supply the stream.
pub trait Rng64 {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform `u32`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, 2^53)`: the top 53 bits of one raw draw.
    #[inline]
    fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision: one
    /// [`Self::next_u53`] draw mapped by [`unit_f64`].
    #[inline]
    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u53())
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased and
    /// avoids the modulo on the hot path.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be > 0");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            // threshold = 2^64 mod bound
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    #[inline]
    fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    fn next_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.next_below(span) as i64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The float [`Rng64::next_f64`] returns for the 53-bit draw `m`:
/// `m · 2⁻⁵³`, exact for every `m < 2⁵³`. Code that branches on the integer
/// draw and needs the float too maps it here, so the two cannot drift apart.
#[inline]
pub fn unit_f64(m: u64) -> f64 {
    m as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<R: Rng64 + ?Sized> Rng64 for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Fisher–Yates shuffle of a slice, driven by any [`Rng64`].
pub fn shuffle<T, R: Rng64 + ?Sized>(slice: &mut [T], rng: &mut R) {
    for i in (1..slice.len()).rev() {
        let j = rng.next_index(i + 1);
        slice.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xorshift64Star::new(12345);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f), "f64 out of range: {f}");
        }
    }

    #[test]
    fn next_f64_is_the_mapped_53_bit_draw() {
        // Same raw stream three ways: the 53-bit draw, the float, and the
        // `(x >> 11) · 2⁻⁵³` recipe `next_f64` has always computed.
        let mut raw = Xorshift64Star::new(77);
        let mut ints = raw;
        let mut floats = raw;
        for _ in 0..10_000 {
            let m = ints.next_u53();
            assert!(m < 1 << 53);
            let f = floats.next_f64();
            assert_eq!(f.to_bits(), unit_f64(m).to_bits());
            let recipe = (raw.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(f.to_bits(), recipe.to_bits());
        }
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(unit_f64((1 << 53) - 1), 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Xorshift64Star::new(99);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = Xorshift64Star::new(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_range_inclusive_endpoints() {
        let mut rng = Xorshift64Star::new(42);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            let v = rng.next_range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xorshift64Star::new(5);
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Xorshift64Star::new(1);
        for _ in 0..100 {
            assert!(!rng.next_bool(0.0));
            assert!(rng.next_bool(1.1)); // clamp semantics: p >= 1 always true
        }
    }
}
