//! Incremental QUBO construction.
//!
//! Problem reductions (MaxCut, QAP one-hot penalties, …) produce a stream of
//! quadratic and linear terms, often hitting the same variable pair many
//! times. [`QuboBuilder`] accumulates terms and assembles the final
//! [`QuboModel`] in one pass. Accumulation is checked: a coefficient that
//! leaves `i64`, or a model beyond [`crate::COEFFICIENT_SUM_BOUND`], makes
//! [`QuboBuilder::build`] return [`ModelError::CoefficientRange`].

use crate::{KernelChoice, ModelError, QuboModel};

/// Accumulates linear and quadratic terms into a QUBO model.
#[derive(Debug, Clone)]
pub struct QuboBuilder {
    n: usize,
    diag: Vec<i64>,
    edges: Vec<(usize, usize, i64)>,
    kernel: KernelChoice,
    /// A term or a diagonal sum left `i64`; [`Self::build`] refuses.
    overflow: bool,
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
            overflow: false,
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
        self.add_diag(i, Some(w));
        self
    }

    /// Add `w · x_i · x_j`. `i == j` folds onto the diagonal (since
    /// `x_i² = x_i` for binaries). Duplicate pairs accumulate.
    pub fn add_quadratic(&mut self, i: usize, j: usize, w: i64) -> &mut Self {
        assert!(i < self.n && j < self.n, "pair ({i},{j}) out of range");
        if i == j {
            self.add_diag(i, Some(w));
        } else {
            self.edges.push((i.min(j), i.max(j), w));
        }
        self
    }

    /// Add the MaxCut gadget for an edge `{i, j}` of weight `w`:
    /// `w·(2 x_i x_j − x_i − x_j)`, which contributes `−w` exactly when the
    /// edge is cut (paper §II-A).
    pub fn add_maxcut_edge(&mut self, i: usize, j: usize, w: i64) -> &mut Self {
        assert!(i < self.n && j < self.n, "pair ({i},{j}) out of range");
        match w.checked_mul(2) {
            Some(w2) => {
                self.add_quadratic(i, j, w2);
            }
            None => self.overflow = true,
        }
        self.add_diag(i, w.checked_neg());
        self.add_diag(j, w.checked_neg());
        self
    }

    /// `W_ii += w`, or mark the model refused when `w` (`None`: a term
    /// that did not fit) or the sum leaves `i64`.
    fn add_diag(&mut self, i: usize, w: Option<i64>) {
        match w.and_then(|w| self.diag[i].checked_add(w)) {
            Some(sum) => self.diag[i] = sum,
            None => self.overflow = true,
        }
    }

    /// Assemble the final model, merging duplicate pairs.
    pub fn build(self) -> Result<QuboModel, ModelError> {
        if self.overflow {
            return Err(ModelError::CoefficientRange);
        }
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
    fn builds_at_the_coefficient_bound_and_refuses_past_it() {
        let b = crate::COEFFICIENT_SUM_BOUND;
        let at = |extra: i64| {
            let mut q = QuboBuilder::new(3);
            q.add_linear(0, b / 2).add_linear(0, b / 4);
            q.add_quadratic(1, 2, -(b - b / 2 - b / 4 - 1));
            q.add_quadratic(2, 2, 1 + extra);
            q.build()
        };
        let q = at(0).unwrap();
        assert_eq!(q.coefficient_mass(), b);
        let all = Solution::from_bitstring("111");
        assert_eq!(q.energy(&all), b / 2 + b / 4 - (b - b / 2 - b / 4 - 1) + 1);
        assert_eq!(at(1).unwrap_err(), ModelError::CoefficientRange);
        // The three-term document that used to wrap: 3M with M = 2^62 − 1.
        let m = i64::MAX / 2;
        let mut q = QuboBuilder::new(2);
        q.add_linear(0, m).add_linear(1, m).add_quadratic(0, 1, m);
        assert_eq!(q.build().unwrap_err(), ModelError::CoefficientRange);
    }

    #[test]
    fn accumulation_beyond_i64_is_refused() {
        let mut q = QuboBuilder::new(2);
        q.add_linear(0, i64::MAX).add_quadratic(0, 0, 1);
        assert_eq!(q.build().unwrap_err(), ModelError::CoefficientRange);
        let mut q = QuboBuilder::new(2);
        q.add_quadratic(0, 1, i64::MAX)
            .add_quadratic(1, 0, i64::MAX);
        assert_eq!(q.build().unwrap_err(), ModelError::CoefficientRange);
        let mut q = QuboBuilder::new(2);
        q.add_maxcut_edge(0, 1, i64::MAX / 2 + 1);
        assert_eq!(q.build().unwrap_err(), ModelError::CoefficientRange);
        let mut q = QuboBuilder::new(2);
        q.add_maxcut_edge(0, 1, i64::MIN);
        assert_eq!(q.build().unwrap_err(), ModelError::CoefficientRange);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_linear() {
        QuboBuilder::new(2).add_linear(5, 1);
    }
}
