//! MaxCut and its QUBO reduction (paper §II-A).
//!
//! Given a weighted undirected graph, find a bipartition `(S, S̄)` maximising
//! the total weight of crossing edges. Per edge `{i, j}` of weight `w` the
//! reduction emits `w·(2 x_i x_j − x_i − x_j)`, which evaluates to `−w` when
//! the edge is cut and `0` otherwise, so `E(X) = −cut(X)` and minimising the
//! QUBO maximises the cut.

use dabs_model::{ModelError, QuboBuilder, QuboModel, Solution};

/// A MaxCut problem instance: a weighted undirected graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxCutProblem {
    n: usize,
    edges: Vec<(usize, usize, i64)>,
    /// Optional instance label, e.g. "K2000-like(seed=1)".
    pub name: String,
}

impl MaxCutProblem {
    /// Build from an edge list. Edge endpoints must be distinct and in
    /// range; duplicates are allowed (weights accumulate in the QUBO).
    pub fn new(
        n: usize,
        edges: Vec<(usize, usize, i64)>,
        name: impl Into<String>,
    ) -> Result<Self, ModelError> {
        if n == 0 {
            return Err(ModelError::Empty);
        }
        for &(i, j, _) in &edges {
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
        Ok(Self {
            n,
            edges,
            name: name.into(),
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edges.
    pub fn edges(&self) -> &[(usize, usize, i64)] {
        &self.edges
    }

    /// The cut value of a bipartition (`x_i = 1` ⇔ node `i ∈ S`).
    pub fn cut_value(&self, x: &Solution) -> i64 {
        assert_eq!(x.len(), self.n, "partition length mismatch");
        self.edges
            .iter()
            .filter(|&&(i, j, _)| x.get(i) != x.get(j))
            .map(|&(_, _, w)| w)
            .sum()
    }

    /// Reduce to a QUBO model with `E(X) = −cut(X)`.
    pub fn to_qubo(&self) -> QuboModel {
        let mut b = QuboBuilder::new(self.n);
        for &(i, j, w) in &self.edges {
            b.add_maxcut_edge(i, j, w);
        }
        b.build().expect("validated at construction")
    }

    /// Total positive weight — an upper bound on any cut.
    pub fn positive_weight(&self) -> i64 {
        self.edges.iter().map(|&(_, _, w)| w.max(0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::{Rng64, Xorshift64Star};

    fn petersen_like() -> MaxCutProblem {
        // 5-cycle with unit weights: odd cycle, max cut = 4.
        MaxCutProblem::new(
            5,
            vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)],
            "C5",
        )
        .unwrap()
    }

    #[test]
    fn cut_value_by_hand() {
        let p = petersen_like();
        assert_eq!(p.cut_value(&Solution::from_bitstring("00000")), 0);
        assert_eq!(p.cut_value(&Solution::from_bitstring("10000")), 2);
        assert_eq!(p.cut_value(&Solution::from_bitstring("10100")), 4);
    }

    #[test]
    fn energy_is_negative_cut_for_every_assignment() {
        let p = petersen_like();
        let q = p.to_qubo();
        for v in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| (v >> i) & 1 == 1).collect();
            let x = Solution::from_bits(&bits);
            assert_eq!(q.energy(&x), -p.cut_value(&x));
        }
    }

    #[test]
    fn odd_cycle_optimum() {
        // Max cut of C5 is 4; QUBO optimum must be −4.
        let q = petersen_like().to_qubo();
        let mut best = i64::MAX;
        for v in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| (v >> i) & 1 == 1).collect();
            best = best.min(q.energy(&Solution::from_bits(&bits)));
        }
        assert_eq!(best, -4);
    }

    #[test]
    fn negative_weights_supported() {
        // A single negative edge: best cut leaves it uncut (cut value 0).
        let p = MaxCutProblem::new(2, vec![(0, 1, -3)], "neg").unwrap();
        let q = p.to_qubo();
        assert_eq!(q.energy(&Solution::from_bitstring("00")), 0);
        assert_eq!(q.energy(&Solution::from_bitstring("10")), 3);
        assert_eq!(p.cut_value(&Solution::from_bitstring("10")), -3);
    }

    #[test]
    fn random_graph_energy_cut_duality() {
        let mut rng = Xorshift64Star::new(121);
        let n = 30;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.next_bool(0.2) {
                    edges.push((i, j, if rng.next_bool(0.5) { 1 } else { -1 }));
                }
            }
        }
        let p = MaxCutProblem::new(n, edges, "rand").unwrap();
        let q = p.to_qubo();
        for _ in 0..25 {
            let x = Solution::random(n, &mut rng);
            assert_eq!(q.energy(&x), -p.cut_value(&x));
        }
    }

    #[test]
    fn complement_has_same_cut() {
        // Cut is symmetric under complementing the partition.
        let p = petersen_like();
        let mut rng = Xorshift64Star::new(122);
        for _ in 0..10 {
            let x = Solution::random(5, &mut rng);
            let mut y = x.clone();
            for i in 0..5 {
                y.flip(i);
            }
            assert_eq!(p.cut_value(&x), p.cut_value(&y));
        }
    }

    #[test]
    fn rejects_bad_edges() {
        assert!(MaxCutProblem::new(3, vec![(0, 3, 1)], "bad").is_err());
        assert!(MaxCutProblem::new(3, vec![(1, 1, 1)], "loop").is_err());
        assert!(MaxCutProblem::new(0, vec![], "empty").is_err());
    }

    #[test]
    fn positive_weight_upper_bounds_cut() {
        let p = petersen_like();
        let ub = p.positive_weight();
        let mut rng = Xorshift64Star::new(123);
        for _ in 0..20 {
            assert!(p.cut_value(&Solution::random(5, &mut rng)) <= ub);
        }
    }
}
