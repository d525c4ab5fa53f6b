//! The Quantum Annealer Simulation Problem (paper §II-C).
//!
//! A QASP instance with resolution `r` is a random Ising model on an
//! annealer working graph where every interaction `J_ij` is drawn uniformly
//! from the non-zero integers in `[−r, r]` and every bias `h_i` from the
//! non-zero integers in `[−4r, 4r]` (the Advantage coupler/bias ranges
//! scaled to resolution `r`). The model is then converted to a QUBO for the
//! solvers; the Ising Hamiltonian of any answer is recoverable through the
//! stored offset.

use crate::topology::Topology;
use dabs_model::{IsingModel, QuboModel, Solution};
use dabs_rng::{Rng64, SplitMix64, Xorshift64Star};

/// A generated QASP instance.
#[derive(Debug, Clone)]
pub struct QaspInstance {
    /// The underlying random Ising model.
    ising: IsingModel,
    /// The equivalent QUBO model.
    qubo: QuboModel,
    /// `H(S) = E(X) + offset` for every assignment.
    offset: i64,
    /// The generation resolution `r`.
    pub resolution: i64,
    /// Instance label.
    pub name: String,
}

impl QaspInstance {
    /// Generate a random QASP of resolution `r ≥ 1` on `topology`.
    pub fn generate(topology: &Topology, resolution: i64, seed: u64) -> Self {
        assert!(resolution >= 1, "resolution must be at least 1");
        let mut rng = Xorshift64Star::new(SplitMix64::new(seed ^ 0x9A5).next_u64());
        let edges: Vec<(usize, usize, i64)> = topology
            .edges()
            .iter()
            .map(|&(a, b)| (a, b, nonzero_uniform(&mut rng, resolution)))
            .collect();
        let biases: Vec<i64> = (0..topology.n())
            .map(|_| nonzero_uniform(&mut rng, 4 * resolution))
            .collect();
        let ising = IsingModel::new(topology.n(), &edges, biases).expect("topology is valid");
        let (qubo, offset) = ising.to_qubo();
        Self {
            ising,
            qubo,
            offset,
            resolution,
            name: format!("QASP{resolution}({}, seed={seed})", topology.name),
        }
    }

    /// Number of spins/bits.
    pub fn n(&self) -> usize {
        self.ising.n()
    }

    /// The Ising view.
    pub fn ising(&self) -> &IsingModel {
        &self.ising
    }

    /// The QUBO view (what the solvers minimise).
    pub fn qubo(&self) -> &QuboModel {
        &self.qubo
    }

    /// Conversion offset: `H(S) = E(X) + offset`.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Hamiltonian of a QUBO solution (through the conversion identity).
    pub fn hamiltonian_of(&self, x: &Solution) -> i64 {
        self.qubo.energy(x) + self.offset
    }
}

/// Uniform non-zero integer in `[−bound, bound]`.
fn nonzero_uniform<R: Rng64>(rng: &mut R, bound: i64) -> i64 {
    debug_assert!(bound >= 1);
    // 2·bound non-zero values; map [0, 2b) skipping zero.
    let v = rng.next_below(2 * bound as u64) as i64 - bound;
    if v >= 0 {
        v + 1
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_topology() -> Topology {
        Topology::chimera(3, 3, 4)
    }

    #[test]
    fn couplings_and_biases_in_range_and_nonzero() {
        for r in [1i64, 16, 256] {
            let q = QaspInstance::generate(&small_topology(), r, 42);
            let ising = q.ising();
            for (i, j) in small_topology().edges().iter().copied() {
                let jij = ising.coupling(i, j);
                assert!(jij != 0 && jij.abs() <= r, "J({i},{j}) = {jij} for r = {r}");
            }
            for i in 0..ising.n() {
                let h = ising.bias(i);
                assert!(h != 0 && h.abs() <= 4 * r, "h({i}) = {h} for r = {r}");
            }
        }
    }

    #[test]
    fn resolution_one_alphabet() {
        // r = 1: J ∈ {−1, +1}, h ∈ {−4..−1, 1..4}.
        let q = QaspInstance::generate(&small_topology(), 1, 7);
        let ising = q.ising();
        let mut j_vals = std::collections::HashSet::new();
        for &(a, b) in small_topology().edges() {
            j_vals.insert(ising.coupling(a, b));
        }
        assert!(j_vals.is_subset(&[-1i64, 1].into_iter().collect()));
        assert_eq!(j_vals.len(), 2, "both signs should occur");
    }

    #[test]
    fn hamiltonian_identity_holds() {
        let q = QaspInstance::generate(&small_topology(), 16, 3);
        let mut rng = Xorshift64Star::new(5);
        for _ in 0..20 {
            let x = Solution::random(q.n(), &mut rng);
            assert_eq!(q.ising().hamiltonian(&x), q.hamiltonian_of(&x));
            assert_eq!(q.hamiltonian_of(&x), q.qubo().energy(&x) + q.offset());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = small_topology();
        let a = QaspInstance::generate(&t, 16, 9);
        let b = QaspInstance::generate(&t, 16, 9);
        assert_eq!(a.ising(), b.ising());
        let c = QaspInstance::generate(&t, 16, 10);
        assert_ne!(a.ising(), c.ising());
    }

    #[test]
    fn nonzero_uniform_covers_alphabet() {
        let mut rng = Xorshift64Star::new(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let v = nonzero_uniform(&mut rng, 2);
            assert!(v != 0 && v.abs() <= 2);
            seen.insert(v);
        }
        assert_eq!(seen.len(), 4, "all of −2,−1,1,2 should appear");
    }

    #[test]
    fn qubo_preserves_edge_structure() {
        let t = small_topology();
        let q = QaspInstance::generate(&t, 4, 13);
        assert_eq!(q.qubo().edge_count(), t.edge_count());
        assert_eq!(q.n(), t.n());
    }
}
