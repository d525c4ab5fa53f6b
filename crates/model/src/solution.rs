//! Packed binary solution vectors.
//!
//! Solutions are the unit of traffic in DABS: they travel host→device as
//! target vectors and device→host as best-found vectors, they populate the
//! solution pools, and the genetic operations manipulate them bitwise. The
//! representation is a word-packed bitset so crossover/mutation/Hamming
//! operations run at 64 bits per instruction.

use dabs_rng::Rng64;
use std::fmt;

/// A fixed-length binary vector `x_0 x_1 … x_{n-1}`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Solution {
    n: usize,
    words: Vec<u64>,
}

impl Solution {
    /// The all-zeros vector of length `n` (the paper's initial state: with
    /// `X = 0`, `E(X) = 0` and `Δ_k(X) = W_kk`).
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            words: vec![0u64; n.div_ceil(64)],
        }
    }

    /// The all-ones vector of length `n`.
    pub fn ones(n: usize) -> Self {
        let mut s = Self::zeros(n);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.mask_tail();
        s
    }

    /// A uniformly random vector of length `n`.
    pub fn random<R: Rng64 + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut s = Self::zeros(n);
        for w in &mut s.words {
            *w = rng.next_u64();
        }
        s.mask_tail();
        s
    }

    /// Build from a slice of booleans.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut s = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                s.set(i, true);
            }
        }
        s
    }

    /// Build from a `&str` of `'0'`/`'1'` characters (test convenience;
    /// other characters are rejected with a panic).
    pub fn from_bitstring(bits: &str) -> Self {
        Self::from_bits(
            &bits
                .chars()
                .map(|c| match c {
                    '0' => false,
                    '1' => true,
                    other => panic!("invalid bit character {other:?}"),
                })
                .collect::<Vec<_>>(),
        )
    }

    /// Render as a `'0'`/`'1'` string, `x_0` first — the inverse of
    /// [`Solution::from_bitstring`] and the wire representation used by the
    /// JSON protocol.
    pub fn to_bitstring(&self) -> String {
        (0..self.n)
            .map(|i| if self.get(i) { '1' } else { '0' })
            .collect()
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Value of bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.n);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Set bit `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.n);
        let mask = 1u64 << (i & 63);
        if value {
            self.words[i >> 6] |= mask;
        } else {
            self.words[i >> 6] &= !mask;
        }
    }

    /// Flip bit `i`, returning its new value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        debug_assert!(i < self.n);
        self.words[i >> 6] ^= 1u64 << (i & 63);
        self.get(i)
    }

    /// Spin value `σ(x_i) ∈ {−1, +1}`.
    #[inline]
    pub fn spin(&self, i: usize) -> i64 {
        crate::sigma(self.get(i))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another solution of the same length.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.n, other.n, "hamming distance requires equal lengths");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterate over the indices whose bits differ from `other`.
    pub fn diff_indices<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.n, other.n);
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (a, b))| {
                let mut diff = a ^ b;
                std::iter::from_fn(move || {
                    if diff == 0 {
                        None
                    } else {
                        let bit = diff.trailing_zeros() as usize;
                        diff &= diff - 1;
                        Some((wi << 6) | bit)
                    }
                })
            })
    }

    /// Iterate over indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some((wi << 6) | bit)
                }
            })
        })
    }

    /// Uniform crossover: each bit taken from `self` or `other` according to
    /// a fresh random bit (the paper's Crossover / Xrossover primitive).
    pub fn crossover<R: Rng64 + ?Sized>(&self, other: &Self, rng: &mut R) -> Self {
        assert_eq!(self.n, other.n, "crossover requires equal lengths");
        let mut out = Self::zeros(self.n);
        for ((o, &a), &b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            let pick = rng.next_u64(); // 1 bit = take from `other`
            *o = (a & !pick) | (b & pick);
        }
        out.mask_tail();
        out
    }

    /// Access to the raw words (read-only; used by energy kernels).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Clear any bits beyond `n` in the last word so that whole-word
    /// operations (crossover, popcount) never leak phantom bits.
    fn mask_tail(&mut self) {
        let rem = self.n & 63;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Solution[{}](", self.n)?;
        let limit = self.n.min(96);
        for i in 0..limit {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.n > limit {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::Xorshift64Star;

    #[test]
    fn zeros_and_ones_counts() {
        let z = Solution::zeros(130);
        assert_eq!(z.count_ones(), 0);
        let o = Solution::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert_eq!(o.len(), 130);
    }

    #[test]
    fn ones_masks_tail_bits() {
        let o = Solution::ones(65);
        assert_eq!(o.count_ones(), 65);
        // Hamming against zeros must equal n, not 128.
        assert_eq!(o.hamming(&Solution::zeros(65)), 65);
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut s = Solution::zeros(100);
        s.set(63, true);
        s.set(64, true);
        assert!(s.get(63));
        assert!(s.get(64));
        assert!(!s.get(62));
        assert!(!s.flip(63));
        assert!(!s.get(63));
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    fn spin_values() {
        let mut s = Solution::zeros(2);
        s.set(1, true);
        assert_eq!(s.spin(0), -1);
        assert_eq!(s.spin(1), 1);
    }

    #[test]
    fn from_bitstring_parses() {
        let s = Solution::from_bitstring("10110");
        assert_eq!(s, Solution::from_bits(&[true, false, true, true, false]));
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid bit character")]
    fn from_bitstring_rejects_garbage() {
        Solution::from_bitstring("10x");
    }

    #[test]
    fn hamming_distance_examples() {
        let a = Solution::from_bitstring("1100");
        let b = Solution::from_bitstring("1010");
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn diff_indices_matches_hamming() {
        let mut rng = Xorshift64Star::new(8);
        let a = Solution::random(300, &mut rng);
        let b = Solution::random(300, &mut rng);
        let diffs: Vec<usize> = a.diff_indices(&b).collect();
        assert_eq!(diffs.len(), a.hamming(&b));
        for &i in &diffs {
            assert_ne!(a.get(i), b.get(i));
        }
        // diff_indices must be sorted ascending
        assert!(diffs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn iter_ones_matches_count() {
        let mut rng = Xorshift64Star::new(9);
        let s = Solution::random(200, &mut rng);
        let ones: Vec<usize> = s.iter_ones().collect();
        assert_eq!(ones.len(), s.count_ones());
        assert!(ones.iter().all(|&i| s.get(i)));
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut rng = Xorshift64Star::new(77);
        let s = Solution::random(10_000, &mut rng);
        let ones = s.count_ones();
        assert!((4_000..6_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn crossover_takes_bits_from_parents() {
        let mut rng = Xorshift64Star::new(3);
        let a = Solution::zeros(500);
        let b = Solution::ones(500);
        let c = a.crossover(&b, &mut rng);
        // every bit of c matches one of the parents trivially; the mix must
        // be non-degenerate
        let ones = c.count_ones();
        assert!((100..400).contains(&ones), "crossover too biased: {ones}");
        // where parents agree, child must agree
        let d = a.crossover(&a, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn crossover_tail_stays_masked() {
        let mut rng = Xorshift64Star::new(4);
        let a = Solution::zeros(65);
        let b = Solution::ones(65);
        let c = a.crossover(&b, &mut rng);
        assert!(c.count_ones() <= 65);
        assert_eq!(c.hamming(&a) + c.hamming(&b), 65);
    }

    #[test]
    fn debug_format_truncates() {
        let s = Solution::zeros(200);
        let dbg = format!("{s:?}");
        assert!(dbg.contains('…'));
        assert!(dbg.starts_with("Solution[200]"));
    }
}
