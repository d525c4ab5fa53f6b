//! Quantum-annealer working-graph topologies (paper §II-C / §VI-C).
//!
//! QASP instances live on the D-Wave Advantage 4.1 working graph: 5 627
//! operable qubits and 40 279 operable couplers of a Pegasus P16 lattice
//! (average degree ≈ 14.3, bounded degree 15, strong spatial locality).
//!
//! Per DESIGN.md we substitute an exactly-sized structural twin:
//!
//! * [`Topology::chimera`] — the exact Chimera `C(m, n, l)` lattice (the
//!   D-Wave 2000Q topology), implemented from its published definition.
//! * [`Topology::pegasus_like`] — a Chimera base augmented with local extra
//!   couplers up to Pegasus-like degree ≈ 15, then trimmed by seeded fault
//!   deletion to hit an exact node/edge budget.
//! * [`Topology::advantage_working_graph`] — the paper's 5 627 / 40 279
//!   budget applied to `pegasus_like`.
//!
//! What QASP tests (resolution sensitivity of a sparse local Ising model)
//! depends on the size/degree/locality profile, not the precise Pegasus
//! coordinate algebra, so the twin preserves the relevant behaviour.

use dabs_rng::{shuffle, Rng64, SplitMix64, Xorshift64Star};

/// An undirected simple graph listing each edge once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    edges: Vec<(usize, usize)>,
    /// Human-readable description.
    pub name: String,
}

impl Topology {
    /// Build from an explicit edge list (deduplicated, `i < j` normalised).
    pub fn new(n: usize, edges: Vec<(usize, usize)>, name: impl Into<String>) -> Self {
        let mut set = std::collections::HashSet::with_capacity(edges.len() * 2);
        let mut out = Vec::with_capacity(edges.len());
        for (a, b) in edges {
            assert!(a < n && b < n && a != b, "invalid edge ({a},{b})");
            let e = (a.min(b), a.max(b));
            if set.insert(e) {
                out.push(e);
            }
        }
        Self {
            n,
            edges: out,
            name: name.into(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edges (each once, `i < j`).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Node degrees.
    pub fn degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.n];
        for &(a, b) in &self.edges {
            d[a] += 1;
            d[b] += 1;
        }
        d
    }

    /// The exact Chimera lattice `C(m, n, l)`: an `m×n` grid of `K_{l,l}`
    /// unit cells. Within a cell the `l` "vertical" qubits (u = 0) connect
    /// to all `l` "horizontal" qubits (u = 1); vertical qubits couple to the
    /// same-index vertical qubit of the cell below, horizontal qubits to the
    /// same-index horizontal qubit of the cell to the right.
    pub fn chimera(m: usize, n: usize, l: usize) -> Self {
        assert!(m >= 1 && n >= 1 && l >= 1);
        let id = |i: usize, j: usize, u: usize, k: usize| ((i * n + j) * 2 + u) * l + k;
        let mut edges = Vec::new();
        for i in 0..m {
            for j in 0..n {
                // intra-cell K_{l,l}
                for k0 in 0..l {
                    for k1 in 0..l {
                        edges.push((id(i, j, 0, k0), id(i, j, 1, k1)));
                    }
                }
                // inter-cell couplers
                if i + 1 < m {
                    for k in 0..l {
                        edges.push((id(i, j, 0, k), id(i + 1, j, 0, k)));
                    }
                }
                if j + 1 < n {
                    for k in 0..l {
                        edges.push((id(i, j, 1, k), id(i, j + 1, 1, k)));
                    }
                }
            }
        }
        Self::new(m * n * 2 * l, edges, format!("chimera({m},{n},{l})"))
    }

    /// A Pegasus-degree graph: Chimera base plus seeded local augmentation
    /// edges until the average degree reaches `target_avg_degree`.
    /// Augmentation edges connect nodes within a window of ±(3 cells) of
    /// each other, preserving annealer-style locality.
    pub fn pegasus_like(m: usize, n: usize, target_avg_degree: f64, seed: u64) -> Self {
        let base = Self::chimera(m, n, 4);
        let nn = base.n;
        let window = 8 * n * 3; // three cell-rows of ids
        let target_edges = ((target_avg_degree * nn as f64) / 2.0).round() as usize;
        let mut rng = Xorshift64Star::new(SplitMix64::new(seed).next_u64());
        let mut set: std::collections::HashSet<(usize, usize)> =
            base.edges.iter().copied().collect();
        let mut edges = base.edges.clone();
        let mut attempts = 0usize;
        while edges.len() < target_edges && attempts < target_edges * 100 {
            attempts += 1;
            let a = rng.next_index(nn);
            let off = 1 + rng.next_index(window.min(nn - 1));
            let b = if a + off < nn {
                a + off
            } else {
                a - off.min(a)
            };
            if a == b {
                continue;
            }
            let e = (a.min(b), a.max(b));
            if set.insert(e) {
                edges.push(e);
            }
        }
        Self {
            n: nn,
            edges,
            name: format!("pegasus_like({m},{n},deg={target_avg_degree},seed={seed})"),
        }
    }

    /// Delete nodes (faults) and surplus edges to hit an exact budget:
    /// returns a graph with exactly `target_nodes` nodes (relabelled
    /// contiguously) and at most / exactly `target_edges` edges (exact
    /// whenever enough edges survive the node deletion).
    pub fn with_faults(&self, target_nodes: usize, target_edges: usize, seed: u64) -> Self {
        assert!(target_nodes <= self.n, "cannot grow the graph");
        let mut rng = Xorshift64Star::new(SplitMix64::new(seed ^ 0xFA17).next_u64());
        // choose survivors
        let mut ids: Vec<usize> = (0..self.n).collect();
        shuffle(&mut ids, &mut rng);
        ids.truncate(target_nodes);
        ids.sort_unstable();
        let mut relabel = vec![usize::MAX; self.n];
        for (new, &old) in ids.iter().enumerate() {
            relabel[old] = new;
        }
        let mut edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter_map(|&(a, b)| {
                let (ra, rb) = (relabel[a], relabel[b]);
                (ra != usize::MAX && rb != usize::MAX).then_some((ra.min(rb), ra.max(rb)))
            })
            .collect();
        shuffle(&mut edges, &mut rng);
        edges.truncate(target_edges);
        Self {
            n: target_nodes,
            edges,
            name: format!(
                "{}+faults(n={target_nodes},m={target_edges},seed={seed})",
                self.name
            ),
        }
    }

    /// The paper's D-Wave Advantage 4.1 working-graph budget:
    /// 5 627 nodes, 40 279 edges.
    pub fn advantage_working_graph(seed: u64) -> Self {
        // Chimera(27,27,4) has 5 832 nodes; augment to Pegasus degree ≈ 14.8
        // before deleting faults so the final average degree ≈ 14.3.
        Self::pegasus_like(27, 27, 15.2, seed).with_faults(5_627, 40_279, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chimera_counts() {
        // C(m,n,l): m·n·2l nodes; edges: m·n·l² internal + (m−1)·n·l + m·(n−1)·l
        let t = Topology::chimera(3, 4, 4);
        assert_eq!(t.n(), 3 * 4 * 8);
        let expect = 3 * 4 * 16 + 2 * 4 * 4 + 3 * 3 * 4;
        assert_eq!(t.edge_count(), expect);
    }

    #[test]
    fn chimera_degrees_bounded() {
        // interior qubits have degree l + 2, boundary l + 1
        let t = Topology::chimera(4, 4, 4);
        let deg = t.degrees();
        assert!(deg.iter().all(|&d| d == 5 || d == 6));
        assert_eq!(*deg.iter().max().unwrap(), 6);
    }

    #[test]
    fn chimera_2000q_size() {
        // D-Wave 2000Q: C(16,16,4) = 2048 qubits.
        let t = Topology::chimera(16, 16, 4);
        assert_eq!(t.n(), 2048);
    }

    #[test]
    fn pegasus_like_reaches_target_degree() {
        let t = Topology::pegasus_like(6, 6, 14.0, 1);
        let avg = 2.0 * t.edge_count() as f64 / t.n() as f64;
        assert!(
            (13.0..=14.5).contains(&avg),
            "average degree {avg} out of range"
        );
    }

    #[test]
    fn with_faults_exact_budget() {
        let t = Topology::pegasus_like(6, 6, 14.0, 2);
        let f = t.with_faults(250, 1500, 3);
        assert_eq!(f.n(), 250);
        assert_eq!(f.edge_count(), 1500);
        // all edges in range, no self-loops, no duplicates
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in f.edges() {
            assert!(a < b && b < 250);
            assert!(seen.insert((a, b)));
        }
    }

    #[test]
    fn advantage_working_graph_budget() {
        let t = Topology::advantage_working_graph(1);
        assert_eq!(t.n(), 5_627);
        assert_eq!(t.edge_count(), 40_279);
        let avg = 2.0 * t.edge_count() as f64 / t.n() as f64;
        assert!((14.0..=14.6).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn topologies_deterministic_per_seed() {
        let a = Topology::pegasus_like(4, 4, 12.0, 7);
        let b = Topology::pegasus_like(4, 4, 12.0, 7);
        assert_eq!(a, b);
        let c = Topology::pegasus_like(4, 4, 12.0, 8);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn new_deduplicates_and_normalises() {
        let t = Topology::new(4, vec![(2, 1), (1, 2), (0, 3)], "t");
        assert_eq!(t.edge_count(), 2);
        assert!(t.edges().contains(&(1, 2)));
    }

    #[test]
    #[should_panic(expected = "invalid edge")]
    fn new_rejects_self_loop() {
        Topology::new(4, vec![(1, 1)], "bad");
    }
}
