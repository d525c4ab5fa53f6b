//! The xorshift generator used as the per-"device thread" stream.
//!
//! The paper's GPU kernels run Marsaglia xorshift because each flip may
//! need several random numbers and the generator must be registers-only.
//! [`Xorshift64Star`] is the 64-bit xorshift with the multiplicative output
//! scrambler (Vigna's `xorshift64*`), which fixes the weak low bits of plain
//! xorshift.

use crate::{Rng64, SplitMix64};

/// `xorshift64*`: 64-bit state, period 2^64 - 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Create from a seed. A zero seed is remapped through SplitMix64 so the
    /// all-zero absorbing state can never occur.
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 {
            SplitMix64::new(0xDAB5_0DD5).next_u64() | 1
        } else {
            seed
        };
        Self { state }
    }
}

impl Rng64 for Xorshift64Star {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_zero_seed_is_safe() {
        let mut rng = Xorshift64Star::new(0);
        assert_ne!(rng.next_u64(), 0, "must not collapse to zero state");
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn xorshift_deterministic() {
        let mut a = Xorshift64Star::new(777);
        let mut b = Xorshift64Star::new(777);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_reference_first_output() {
        // xorshift64* with seed 1: x=1 -> x ^= x>>12; x ^= x<<25; x ^= x>>27
        // then * 2685821657736338717
        let mut rng = Xorshift64Star::new(1);
        let mut x: u64 = 1;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        assert_eq!(rng.next_u64(), x.wrapping_mul(0x2545_F491_4F6C_DD1D));
    }

    #[test]
    fn xorshift_uniformity_rough() {
        // Mean of 100k uniform [0,1) draws should be near 0.5.
        let mut rng = Xorshift64Star::new(31337);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn xorshift_bit_balance() {
        // Every bit position should be set roughly half the time.
        let mut rng = Xorshift64Star::new(4242);
        let n = 20_000u32;
        let mut counts = [0u32; 64];
        for _ in 0..n {
            let v = rng.next_u64();
            for (b, c) in counts.iter_mut().enumerate() {
                *c += ((v >> b) & 1) as u32;
            }
        }
        for (b, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 0.5).abs() < 0.03,
                "bit {b} set fraction {frac} out of tolerance"
            );
        }
    }
}
