//! Dense bit-packed weight storage for the dense energy kernel.
//!
//! [`DenseStrips`] holds the off-diagonal matrix `W` row-major, with every
//! row padded to a whole number of 64-column *strips* aligned to the
//! [`crate::Solution`] word layout: strip `s` of row `i` covers columns
//! `64s … 64s+63`, exactly the bits of solution word `s`. A one-flip delta
//! update then walks one contiguous row while reading the solution one
//! machine word at a time — a strided multiply-accumulate with no index
//! chasing, branchless sign application, and a delta write pattern that is
//! itself contiguous. This is what the paper's GPU kernel does with `W` in
//! global memory; on CPUs it is what lets high-density instances beat the
//! CSR kernel's per-edge column lookups.
//!
//! The diagonal is stored as zero inside the strips (so the `j == i` lane of
//! a flip update contributes nothing) and the padding lanes beyond `n` are
//! zero too, so whole-strip arithmetic never needs a tail mask for the
//! weights — only the delta vector, whose length is exactly `n`, bounds the
//! final partial strip.

use crate::SymmetricCsr;

/// Row-major dense `W` with rows padded to 64-column strips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseStrips {
    n: usize,
    /// Columns per row after padding: `n.div_ceil(64) * 64`.
    stride: usize,
    /// `n * stride` weights; `w[i * stride + j] = W_ij`, diagonal and
    /// padding lanes zero.
    w: Vec<i64>,
}

impl DenseStrips {
    /// Materialize the mirrored CSR adjacency as padded dense rows.
    pub fn from_csr(adj: &SymmetricCsr) -> Self {
        let n = adj.n();
        let stride = n.div_ceil(64) * 64;
        let mut w = vec![0i64; n * stride];
        for i in 0..n {
            let row = &mut w[i * stride..(i + 1) * stride];
            for (j, weight) in adj.neighbors(i) {
                row[j] = weight;
            }
        }
        Self { n, stride, w }
    }

    /// Number of variables (unpadded logical columns).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Padded row width — a multiple of 64.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Heap footprint of the weight matrix in bytes.
    pub fn bytes(&self) -> usize {
        self.w.len() * std::mem::size_of::<i64>()
    }

    /// What [`Self::bytes`] will be for an `n`-variable matrix, without
    /// materializing it.
    pub fn bytes_for(n: usize) -> usize {
        n * n.div_ceil(64) * 64 * std::mem::size_of::<i64>()
    }

    /// Full padded row `i` (length [`Self::stride`]).
    #[inline]
    pub fn row(&self, i: usize) -> &[i64] {
        &self.w[i * self.stride..(i + 1) * self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_mirror_csr_and_pad_with_zeros() {
        let adj = SymmetricCsr::from_edges(5, &[(0, 1, 7), (1, 4, -3), (2, 3, 2)]).unwrap();
        let d = DenseStrips::from_csr(&adj);
        assert_eq!(d.n(), 5);
        assert_eq!(d.stride(), 64);
        assert_eq!(d.row(0)[1], 7);
        assert_eq!(d.row(1)[0], 7);
        assert_eq!(d.row(1)[4], -3);
        assert_eq!(d.row(4)[1], -3);
        // diagonal and padding stay zero
        for i in 0..5 {
            assert_eq!(d.row(i)[i], 0);
            assert!(d.row(i)[5..].iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn stride_rounds_up_to_word_multiples() {
        for (n, expect) in [(1, 64), (64, 64), (65, 128), (130, 192)] {
            let edges = [(0usize, n.max(2) - 1, 1i64)];
            let adj = SymmetricCsr::from_edges(n.max(2), &edges).unwrap();
            let d = DenseStrips::from_csr(&adj);
            if n >= 2 {
                assert_eq!(d.stride(), expect, "n = {n}");
            }
        }
    }

    #[test]
    fn bytes_accounts_padded_rows() {
        let adj = SymmetricCsr::from_edges(3, &[(0, 1, 1)]).unwrap();
        let d = DenseStrips::from_csr(&adj);
        assert_eq!(d.bytes(), 3 * 64 * 8);
        assert_eq!(DenseStrips::bytes_for(3), d.bytes());
        assert_eq!(DenseStrips::bytes_for(65), 65 * 128 * 8);
    }
}
