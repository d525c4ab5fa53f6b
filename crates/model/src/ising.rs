//! The Ising model: `H(S) = Σ_{(i,j)∈E} J_ij s_i s_j + Σ_i h_i s_i`.
//!
//! Spins are stored as bits with the map `σ(x) = 2x − 1` (bit 0 → spin −1,
//! bit 1 → spin +1), so [`Solution`] doubles as a spin vector.

use crate::{sigma, ModelError, QuboModel, Solution, SymmetricCsr};

/// An Ising model over ±1 spins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsingModel {
    couplings: SymmetricCsr,
    biases: Vec<i64>,
}

impl IsingModel {
    /// Build from an interaction edge list and dense biases.
    pub fn new(
        n: usize,
        interactions: &[(usize, usize, i64)],
        biases: Vec<i64>,
    ) -> Result<Self, ModelError> {
        if biases.len() != n {
            return Err(ModelError::SizeMismatch {
                expected: n,
                actual: biases.len(),
            });
        }
        Ok(Self {
            couplings: SymmetricCsr::from_edges(n, interactions)?,
            biases,
        })
    }

    /// Number of spins.
    #[inline]
    pub fn n(&self) -> usize {
        self.couplings.n()
    }

    /// Number of interactions.
    pub fn edge_count(&self) -> usize {
        self.couplings.edge_count()
    }

    /// Bias `h_i`.
    #[inline]
    pub fn bias(&self, i: usize) -> i64 {
        self.biases[i]
    }

    /// Interaction `J_ij` (0 when absent).
    pub fn coupling(&self, i: usize, j: usize) -> i64 {
        self.couplings.weight(i, j)
    }

    /// Sparse coupling structure.
    #[inline]
    pub fn couplings(&self) -> &SymmetricCsr {
        &self.couplings
    }

    /// The Hamiltonian `H(S)` of a spin assignment encoded as bits.
    pub fn hamiltonian(&self, spins: &Solution) -> i64 {
        assert_eq!(spins.len(), self.n(), "spin vector length mismatch");
        let mut h = 0i64;
        for (i, j, jij) in self.couplings.iter_edges() {
            h += jij * sigma(spins.get(i)) * sigma(spins.get(j));
        }
        for (i, &hi) in self.biases.iter().enumerate() {
            h += hi * sigma(spins.get(i));
        }
        h
    }

    /// Convert to the equivalent QUBO model.
    ///
    /// Returns `(qubo, offset)` such that `H(S) = E(X) + offset` for every
    /// assignment, where `x_i = (s_i + 1)/2`. This is the conversion used to
    /// feed QASP (random Ising on an annealer topology) to the QUBO solver.
    ///
    /// Derivation: substituting `s = 2x − 1`:
    /// `J s_i s_j = 4J x_i x_j − 2J x_i − 2J x_j + J`,
    /// `h s_i = 2h x_i − h`, so
    /// `W_ij = 4 J_ij`, `W_ii = 2 h_i − 2 Σ_j J_ij`,
    /// `offset = Σ J_ij − Σ h_i`.
    pub fn to_qubo(&self) -> (QuboModel, i64) {
        let n = self.n();
        let mut diag = vec![0i64; n];
        let mut edges = Vec::with_capacity(self.edge_count());
        for (i, d) in diag.iter_mut().enumerate() {
            *d = 2 * self.biases[i];
            for (j, jij) in self.couplings.neighbors(i) {
                *d -= 2 * jij;
                if i < j {
                    edges.push((i, j, 4 * jij));
                }
            }
        }
        let offset: i64 = self.couplings.iter_edges().map(|(_, _, j)| j).sum::<i64>()
            - self.biases.iter().sum::<i64>();
        let qubo = QuboModel::new(n, &edges, diag).expect("valid by construction");
        (qubo, offset)
    }

    /// The resolution of the model: the largest `r ≥ 1` such that every
    /// coupling is a multiple of … — for integer models we instead report
    /// the maximum absolute coupling, which equals the paper's resolution
    /// `r` for QASP instances generated with couplings in `[−r, r]`.
    pub fn max_abs_coupling(&self) -> i64 {
        self.couplings.max_abs_weight()
    }

    /// Maximum absolute bias.
    pub fn max_abs_bias(&self) -> i64 {
        self.biases.iter().map(|v| v.abs()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::{Rng64, Xorshift64Star};

    /// Random sparse Ising model for round-trip tests.
    fn random_ising(n: usize, seed: u64) -> IsingModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.next_bool(0.3) {
                    let mut j_w = rng.next_range_i64(-3, 3);
                    if j_w == 0 {
                        j_w = 1;
                    }
                    edges.push((i, j, j_w));
                }
            }
        }
        let biases: Vec<i64> = (0..n).map(|_| rng.next_range_i64(-4, 4)).collect();
        IsingModel::new(n, &edges, biases).unwrap()
    }

    #[test]
    fn hamiltonian_by_hand() {
        // H = 2 s0 s1 − s1 s2 + 3 s0 − s2
        let m = IsingModel::new(3, &[(0, 1, 2), (1, 2, -1)], vec![3, 0, -1]).unwrap();
        // S = (+1, −1, +1): 2(−1) − (−1) + 3 − 1 = 1
        let s = Solution::from_bitstring("101");
        assert_eq!(m.hamiltonian(&s), 1);
        // S = (−1, −1, −1): 2 − 1 − 3 + 1 = −1
        let s = Solution::from_bitstring("000");
        assert_eq!(m.hamiltonian(&s), -1);
    }

    #[test]
    fn ising_to_qubo_preserves_energies() {
        // H(S) = E(X) + offset for *every* assignment; spins and bits share
        // the encoding so the same Solution works on both sides.
        let m = random_ising(10, 42);
        let (q, offset) = m.to_qubo();
        let mut rng = Xorshift64Star::new(7);
        for _ in 0..50 {
            let x = Solution::random(10, &mut rng);
            assert_eq!(m.hamiltonian(&x), q.energy(&x) + offset);
        }
    }

    #[test]
    fn qubo_to_ising_preserves_energies() {
        // H(S) = 4 E(X) − C from QuboModel::to_ising.
        let m = random_ising(8, 5);
        let (q, _) = m.to_qubo();
        let (back, c) = q.to_ising();
        let mut rng = Xorshift64Star::new(9);
        for _ in 0..50 {
            let x = Solution::random(8, &mut rng);
            assert_eq!(back.hamiltonian(&x), 4 * q.energy(&x) - c);
        }
    }

    #[test]
    fn optimum_is_preserved_by_conversion() {
        // Exhaustively check that argmin H == argmin E on a small model.
        let m = random_ising(12, 123);
        let (q, offset) = m.to_qubo();
        let n = 12;
        let mut best_h = i64::MAX;
        let mut best_e = i64::MAX;
        for v in 0..(1u32 << n) {
            let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            let s = Solution::from_bits(&bits);
            best_h = best_h.min(m.hamiltonian(&s));
            best_e = best_e.min(q.energy(&s));
        }
        assert_eq!(best_h, best_e + offset);
    }

    #[test]
    fn conversion_shapes() {
        let m = random_ising(20, 77);
        let (q, _) = m.to_qubo();
        assert_eq!(q.n(), 20);
        assert_eq!(q.edge_count(), m.edge_count());
    }

    #[test]
    fn bias_and_coupling_accessors() {
        let m = IsingModel::new(3, &[(0, 2, -5)], vec![1, -2, 0]).unwrap();
        assert_eq!(m.bias(1), -2);
        assert_eq!(m.coupling(2, 0), -5);
        assert_eq!(m.coupling(0, 1), 0);
        assert_eq!(m.max_abs_coupling(), 5);
        assert_eq!(m.max_abs_bias(), 2);
    }

    #[test]
    fn rejects_mismatched_biases() {
        assert!(IsingModel::new(4, &[], vec![0; 3]).is_err());
    }
}
