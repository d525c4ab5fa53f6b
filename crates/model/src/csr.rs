//! Compressed sparse row storage for symmetric weighted graphs.
//!
//! The QUBO matrix `W` is symmetric with a zero-free diagonal channel kept
//! separately; off-diagonal weights are stored CSR-style with every edge
//! mirrored `(i→j, j→i)` so that the one-flip update `Δ_k ± W_ik` can walk
//! `adj(i)` contiguously. This mirrors the GPU layout in the paper, where
//! `W` lives in global memory and each thread reads its own row.

use crate::ModelError;

/// Symmetric sparse matrix with mirrored adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetricCsr {
    n: usize,
    /// Row start offsets; `offsets[n]` is the total mirrored entry count.
    offsets: Vec<u32>,
    /// Column indices, mirrored.
    cols: Vec<u32>,
    /// Edge weights, mirrored (the weight appears once per direction).
    vals: Vec<i64>,
}

impl SymmetricCsr {
    /// Build from an undirected edge list. Duplicate `(i, j)` entries (in
    /// either orientation) are accumulated. Self-loops are rejected.
    pub fn from_edges(n: usize, edges: &[(usize, usize, i64)]) -> Result<Self, ModelError> {
        if n == 0 {
            return Err(ModelError::Empty);
        }
        for &(i, j, _) in edges {
            if i >= n {
                return Err(ModelError::NodeOutOfRange { node: i, n });
            }
            if j >= n {
                return Err(ModelError::NodeOutOfRange { node: j, n });
            }
            if i == j {
                return Err(ModelError::SelfLoop { node: i });
            }
        }

        // Two-pass counting sort into mirrored CSR, accumulating duplicates
        // per row afterwards.
        let mut degree = vec![0u32; n];
        for &(i, j, _) in edges {
            degree[i] += 1;
            degree[j] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let total = offsets[n] as usize;
        let mut cols = vec![0u32; total];
        let mut vals = vec![0i64; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(i, j, w) in edges {
            let ci = cursor[i] as usize;
            cols[ci] = j as u32;
            vals[ci] = w;
            cursor[i] += 1;
            let cj = cursor[j] as usize;
            cols[cj] = i as u32;
            vals[cj] = w;
            cursor[j] += 1;
        }

        let mut csr = Self {
            n,
            offsets,
            cols,
            vals,
        };
        csr.sort_and_merge_rows();
        Ok(csr)
    }

    /// Sort each row by column and merge duplicate columns by summing.
    fn sort_and_merge_rows(&mut self) {
        let mut new_offsets = vec![0u32; self.n + 1];
        let mut new_cols = Vec::with_capacity(self.cols.len());
        let mut new_vals = Vec::with_capacity(self.vals.len());
        let mut row: Vec<(u32, i64)> = Vec::new();
        for i in 0..self.n {
            let (s, e) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            row.clear();
            row.extend(
                self.cols[s..e]
                    .iter()
                    .copied()
                    .zip(self.vals[s..e].iter().copied()),
            );
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < row.len() {
                let col = row[k].0;
                let mut sum = 0i64;
                while k < row.len() && row[k].0 == col {
                    sum += row[k].1;
                    k += 1;
                }
                if sum != 0 {
                    new_cols.push(col);
                    new_vals.push(sum);
                }
            }
            new_offsets[i + 1] = new_cols.len() as u32;
        }
        self.offsets = new_offsets;
        self.cols = new_cols;
        self.vals = new_vals;
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges (mirrored entries / 2).
    pub fn edge_count(&self) -> usize {
        self.cols.len() / 2
    }

    /// Degree of node `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterate over `(neighbor, weight)` pairs of node `i`, ascending by
    /// neighbor index.
    #[inline]
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        let (s, e) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        self.cols[s..e]
            .iter()
            .copied()
            .map(|c| c as usize)
            .zip(self.vals[s..e].iter().copied())
    }

    /// Raw row slices `(cols, vals)` for node `i` — the hot-path accessor
    /// used by the flip kernel.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[i64]) {
        let (s, e) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (&self.cols[s..e], &self.vals[s..e])
    }

    /// Weight of edge `(i, j)`, or 0 when absent. `O(log deg(i))`.
    pub fn weight(&self, i: usize, j: usize) -> i64 {
        let (s, e) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        match self.cols[s..e].binary_search(&(j as u32)) {
            Ok(pos) => self.vals[s + pos],
            Err(_) => 0,
        }
    }

    /// Sum of `|w|` over all undirected edges — used for penalty sizing.
    pub fn total_abs_weight(&self) -> i64 {
        self.vals.iter().map(|v| v.abs()).sum::<i64>() / 2
    }

    /// Heap footprint of the row offsets, columns and weights in bytes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.offsets.capacity() + self.cols.capacity()) * size_of::<u32>()
            + self.vals.capacity() * size_of::<i64>()
    }

    /// Largest absolute edge weight.
    pub fn max_abs_weight(&self) -> i64 {
        self.vals.iter().map(|v| v.abs()).max().unwrap_or(0)
    }

    /// Iterate every undirected edge once as `(i, j, w)` with `i < j`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, usize, i64)> + '_ {
        (0..self.n).flat_map(move |i| {
            self.neighbors(i)
                .filter(move |&(j, _)| i < j)
                .map(move |(j, w)| (i, j, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SymmetricCsr {
        SymmetricCsr::from_edges(4, &[(0, 1, 5), (1, 2, -3), (0, 3, 2)]).unwrap()
    }

    #[test]
    fn mirrors_edges_both_directions() {
        let m = toy();
        assert_eq!(m.weight(0, 1), 5);
        assert_eq!(m.weight(1, 0), 5);
        assert_eq!(m.weight(2, 1), -3);
        assert_eq!(m.weight(0, 2), 0);
        assert_eq!(m.edge_count(), 3);
    }

    #[test]
    fn degrees() {
        let m = toy();
        assert_eq!(m.degree(0), 2);
        assert_eq!(m.degree(1), 2);
        assert_eq!(m.degree(2), 1);
        assert_eq!(m.degree(3), 1);
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let m = SymmetricCsr::from_edges(3, &[(0, 1, 2), (1, 0, 3), (0, 1, -1)]).unwrap();
        assert_eq!(m.weight(0, 1), 4);
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn cancelling_duplicates_drop_out() {
        let m = SymmetricCsr::from_edges(2, &[(0, 1, 2), (0, 1, -2)]).unwrap();
        assert_eq!(m.weight(0, 1), 0);
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.degree(0), 0);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            SymmetricCsr::from_edges(2, &[(1, 1, 3)]),
            Err(ModelError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            SymmetricCsr::from_edges(2, &[(0, 5, 3)]),
            Err(ModelError::NodeOutOfRange { node: 5, n: 2 })
        );
    }

    #[test]
    fn rejects_empty_model() {
        assert_eq!(SymmetricCsr::from_edges(0, &[]), Err(ModelError::Empty));
    }

    #[test]
    fn neighbors_sorted_ascending() {
        let m = SymmetricCsr::from_edges(5, &[(2, 4, 1), (2, 0, 1), (2, 3, 1), (2, 1, 1)]).unwrap();
        let cols: Vec<usize> = m.neighbors(2).map(|(j, _)| j).collect();
        assert_eq!(cols, vec![0, 1, 3, 4]);
    }

    #[test]
    fn iter_edges_yields_each_once() {
        let m = toy();
        let mut edges: Vec<(usize, usize, i64)> = m.iter_edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1, 5), (0, 3, 2), (1, 2, -3)]);
    }

    #[test]
    fn weight_stats() {
        let m = toy();
        assert_eq!(m.total_abs_weight(), 10);
        assert_eq!(m.max_abs_weight(), 5);
    }

    #[test]
    fn row_matches_neighbors() {
        let m = toy();
        let (cols, vals) = m.row(1);
        let pairs: Vec<(usize, i64)> = m.neighbors(1).collect();
        assert_eq!(cols.len(), pairs.len());
        for (k, &(j, w)) in pairs.iter().enumerate() {
            assert_eq!(cols[k] as usize, j);
            assert_eq!(vals[k], w);
        }
    }
}
