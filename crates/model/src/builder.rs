//! Incremental QUBO construction.
//!
//! Problem reductions (MaxCut, QAP one-hot penalties, …) produce a stream of
//! quadratic and linear terms, often hitting the same variable pair many
//! times. [`QuboBuilder`] accumulates terms and assembles the final
//! [`QuboModel`] in one pass.

use crate::{KernelChoice, ModelError, QuboModel};

/// Accumulates linear and quadratic terms into a QUBO model.
#[derive(Debug, Clone)]
pub struct QuboBuilder {
    n: usize,
    diag: Vec<i64>,
    edges: Vec<(usize, usize, i64)>,
    kernel: KernelChoice,
}

impl QuboBuilder {
    /// A builder for `n` binary variables, all weights zero, automatic
    /// kernel selection.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            diag: vec![0; n],
            edges: Vec::new(),
            kernel: KernelChoice::Auto,
        }
    }

    /// Override the energy-kernel backend the built model will run on
    /// (default [`KernelChoice::Auto`]: pick by density at build time).
    pub fn kernel(&mut self, choice: KernelChoice) -> &mut Self {
        self.kernel = choice;
        self
    }

    /// Number of variables.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add `w · x_i` (accumulates onto `W_ii`).
    pub fn add_linear(&mut self, i: usize, w: i64) -> &mut Self {
        assert!(i < self.n, "variable {i} out of range (n = {})", self.n);
        self.diag[i] += w;
        self
    }

    /// Add `w · x_i · x_j`. `i == j` folds onto the diagonal (since
    /// `x_i² = x_i` for binaries). Duplicate pairs accumulate.
    pub fn add_quadratic(&mut self, i: usize, j: usize, w: i64) -> &mut Self {
        assert!(i < self.n && j < self.n, "pair ({i},{j}) out of range");
        if i == j {
            self.diag[i] += w;
        } else {
            self.edges.push((i.min(j), i.max(j), w));
        }
        self
    }

    /// Add the MaxCut gadget for an edge `{i, j}` of weight `w`:
    /// `w·(2 x_i x_j − x_i − x_j)`, which contributes `−w` exactly when the
    /// edge is cut (paper §II-A).
    pub fn add_maxcut_edge(&mut self, i: usize, j: usize, w: i64) -> &mut Self {
        self.add_quadratic(i, j, 2 * w);
        self.add_linear(i, -w);
        self.add_linear(j, -w);
        self
    }

    /// Assemble the final model, merging duplicate pairs.
    pub fn build(self) -> Result<QuboModel, ModelError> {
        QuboModel::new_with_kernel(self.n, &self.edges, self.diag, self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solution;

    #[test]
    fn linear_and_quadratic_accumulate() {
        let mut b = QuboBuilder::new(3);
        b.add_linear(0, 2).add_linear(0, 3).add_quadratic(0, 1, 1);
        b.add_quadratic(1, 0, 4); // reversed orientation merges
        let q = b.build().unwrap();
        assert_eq!(q.diag(0), 5);
        assert_eq!(q.weight(0, 1), 5);
    }

    #[test]
    fn diagonal_quadratic_folds() {
        let mut b = QuboBuilder::new(2);
        b.add_quadratic(1, 1, 7);
        let q = b.build().unwrap();
        assert_eq!(q.diag(1), 7);
        assert_eq!(q.edge_count(), 0);
    }

    #[test]
    fn maxcut_gadget_counts_cut_edges() {
        // Triangle with unit weights: cut of any 1-vs-2 split is 2.
        let mut b = QuboBuilder::new(3);
        b.add_maxcut_edge(0, 1, 1);
        b.add_maxcut_edge(1, 2, 1);
        b.add_maxcut_edge(0, 2, 1);
        let q = b.build().unwrap();
        assert_eq!(q.energy(&Solution::from_bitstring("000")), 0);
        assert_eq!(q.energy(&Solution::from_bitstring("100")), -2);
        assert_eq!(q.energy(&Solution::from_bitstring("110")), -2);
        assert_eq!(q.energy(&Solution::from_bitstring("111")), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_linear() {
        QuboBuilder::new(2).add_linear(5, 1);
    }
}
