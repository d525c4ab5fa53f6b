//! The Quadratic Assignment Problem and its QUBO reduction (paper §II-B).
//!
//! Given `n` facilities with flows `l(i, i')` and `n` locations with
//! distances `d(j, j')`, find the assignment `g` minimising
//! `C(g) = Σ_{i,i'} l(i,i')·d(g(i), g(i'))` (ordered sum).
//!
//! The reduction one-hot encodes `g` into `N = n²` bits `x_{⟨i,j⟩}` with
//! `⟨i,j⟩ = i·n + j`, `x_{⟨i,j⟩} = 1 ⇔ g(i) = j`:
//!
//! * diagonal: `−p` on every bit,
//! * same row or same column pair: `+p`,
//! * cross pair `(i,j),(i',j')` with `i≠i'`, `j≠j'`:
//!   `l(i,i')·d(j,j') + l(i',i)·d(j',j)` (both ordered contributions),
//!
//! so `E(X) = C(g_X) − n·p` for every feasible `X`.

use dabs_model::{QuboBuilder, QuboModel, Solution};

/// A QAP instance: flow and distance matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QapInstance {
    n: usize,
    /// Row-major `n×n` flows; `flow[i*n + i']` is `l(i, i')`.
    flow: Vec<i64>,
    /// Row-major `n×n` distances; `dist[j*n + j']` is `d(j, j')`.
    dist: Vec<i64>,
    /// Instance label, e.g. "tai20a-like(seed=1)".
    pub name: String,
}

impl QapInstance {
    /// Build from row-major matrices. Diagonals are zeroed (self-flow and
    /// self-distance contribute a constant and are conventionally 0).
    pub fn new(n: usize, mut flow: Vec<i64>, mut dist: Vec<i64>, name: impl Into<String>) -> Self {
        assert!(n >= 2, "QAP needs at least two facilities");
        assert_eq!(flow.len(), n * n, "flow matrix must be n×n");
        assert_eq!(dist.len(), n * n, "distance matrix must be n×n");
        for i in 0..n {
            flow[i * n + i] = 0;
            dist[i * n + i] = 0;
        }
        Self {
            n,
            flow,
            dist,
            name: name.into(),
        }
    }

    /// Number of facilities/locations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Flow `l(i, i')`.
    #[inline]
    pub fn flow(&self, i: usize, i2: usize) -> i64 {
        self.flow[i * self.n + i2]
    }

    /// Distance `d(j, j')`.
    #[inline]
    pub fn dist(&self, j: usize, j2: usize) -> i64 {
        self.dist[j * self.n + j2]
    }

    /// Assignment cost `C(g) = Σ_{i,i'} l(i,i')·d(g(i),g(i'))` (ordered).
    pub fn cost(&self, g: &[usize]) -> i64 {
        assert_eq!(g.len(), self.n, "assignment length mismatch");
        let mut c = 0i64;
        for i in 0..self.n {
            for i2 in 0..self.n {
                c += self.flow(i, i2) * self.dist(g[i], g[i2]);
            }
        }
        c
    }

    /// Index of the QUBO bit for "facility `i` at location `j`".
    #[inline]
    pub fn bit(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    /// A penalty that provably keeps the QUBO optimum feasible:
    /// `p = 1 + max_i Σ_{i'} l(i,i') · max d` bounds the cost impact any
    /// single reassignment can have.
    pub fn auto_penalty(&self) -> i64 {
        let max_d = self.dist.iter().copied().max().unwrap_or(0);
        let max_row_flow = (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|i2| self.flow(i, i2).abs() + self.flow(i2, i).abs())
                    .sum::<i64>()
            })
            .max()
            .unwrap_or(0);
        1 + max_row_flow * max_d
    }

    /// Reduce to a QUBO on `n²` bits with penalty `p`.
    /// For feasible `X`, `E(X) = cost(g_X) − n·p`.
    pub fn to_qubo(&self, p: i64) -> QuboModel {
        let n = self.n;
        let mut b = QuboBuilder::new(n * n);
        for i in 0..n {
            for j in 0..n {
                b.add_linear(self.bit(i, j), -p);
            }
        }
        // same-row and same-column conflicts
        for i in 0..n {
            for j in 0..n {
                for j2 in (j + 1)..n {
                    b.add_quadratic(self.bit(i, j), self.bit(i, j2), p);
                }
            }
        }
        for j in 0..n {
            for i in 0..n {
                for i2 in (i + 1)..n {
                    b.add_quadratic(self.bit(i, j), self.bit(i2, j), p);
                }
            }
        }
        // flow·distance cross terms
        for i in 0..n {
            for i2 in (i + 1)..n {
                for j in 0..n {
                    for j2 in 0..n {
                        if j == j2 {
                            continue;
                        }
                        let w = self.flow(i, i2) * self.dist(j, j2)
                            + self.flow(i2, i) * self.dist(j2, j);
                        if w != 0 {
                            b.add_quadratic(self.bit(i, j), self.bit(i2, j2), w);
                        }
                    }
                }
            }
        }
        b.build().expect("valid by construction")
    }

    /// Decode a QUBO solution into an assignment.
    /// Returns `Some(g)` iff `X` is feasible (exactly one bit per row and
    /// per column).
    pub fn decode(&self, x: &Solution) -> Option<Vec<usize>> {
        assert_eq!(x.len(), self.n * self.n, "solution length mismatch");
        let n = self.n;
        let mut g = vec![usize::MAX; n];
        let mut col_used = vec![false; n];
        for (i, gi) in g.iter_mut().enumerate() {
            for (j, used) in col_used.iter_mut().enumerate() {
                if x.get(self.bit(i, j)) {
                    if *gi != usize::MAX || *used {
                        return None; // doubled row or column
                    }
                    *gi = j;
                    *used = true;
                }
            }
            if *gi == usize::MAX {
                return None; // empty row
            }
        }
        Some(g)
    }

    /// Encode an assignment as a one-hot QUBO solution.
    pub fn encode(&self, g: &[usize]) -> Solution {
        assert_eq!(g.len(), self.n);
        let mut x = Solution::zeros(self.n * self.n);
        for (i, &j) in g.iter().enumerate() {
            assert!(j < self.n, "location {j} out of range");
            x.set(self.bit(i, j), true);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::{shuffle, Rng64, Xorshift64Star};

    fn tiny() -> QapInstance {
        // n = 3, hand-made flows/distances.
        QapInstance::new(
            3,
            vec![0, 5, 2, 5, 0, 3, 2, 3, 0],
            vec![0, 8, 15, 8, 0, 13, 15, 13, 0],
            "tiny",
        )
    }

    #[test]
    fn cost_by_hand() {
        let q = tiny();
        // identity assignment: C = Σ l(i,i') d(i,i') (ordered)
        // = 2·(5·8 + 2·15 + 3·13) = 2·109 = 218
        assert_eq!(q.cost(&[0, 1, 2]), 218);
        // swap 0,1: g = [1,0,2]: 2·(5·8 + 2·13 + 3·15) = 2·111 = 222
        assert_eq!(q.cost(&[1, 0, 2]), 222);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let q = tiny();
        for g in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let x = q.encode(&g);
            assert_eq!(q.decode(&x).unwrap(), g.to_vec());
        }
    }

    #[test]
    fn decode_rejects_infeasible() {
        let q = tiny();
        // empty
        assert!(q.decode(&Solution::zeros(9)).is_none());
        // doubled row
        let mut x = Solution::zeros(9);
        x.set(q.bit(0, 0), true);
        x.set(q.bit(0, 1), true);
        assert!(q.decode(&x).is_none());
        // doubled column
        let mut x = q.encode(&[0, 1, 2]);
        x.set(q.bit(1, 0), true);
        assert!(q.decode(&x).is_none());
    }

    #[test]
    fn feasible_energy_identity() {
        // E(X) = C(g) − n·p for every permutation (the paper's invariant).
        let q = tiny();
        let p = 10_000;
        let model = q.to_qubo(p);
        let perms = [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for g in perms {
            let x = q.encode(&g);
            assert_eq!(model.energy(&x), q.cost(&g) - 3 * p, "g = {g:?}");
        }
    }

    #[test]
    fn infeasible_energy_bounded_below() {
        // Paper: E(X) ≥ −(n−1)·p for infeasible X (flows non-negative).
        let q = tiny();
        let p = 10_000;
        let model = q.to_qubo(p);
        let n2 = 9;
        for v in 0..(1u32 << n2) {
            let bits: Vec<bool> = (0..n2).map(|k| (v >> k) & 1 == 1).collect();
            let x = Solution::from_bits(&bits);
            if q.decode(&x).is_none() {
                assert!(
                    model.energy(&x) >= -(2) * p,
                    "infeasible X with E = {} below −(n−1)p",
                    model.energy(&x)
                );
            }
        }
    }

    #[test]
    fn qubo_optimum_is_feasible_and_matches_best_permutation() {
        let q = tiny();
        let p = q.auto_penalty();
        let model = q.to_qubo(p);
        // exhaustive over 2^9 assignments
        let mut best_e = i64::MAX;
        let mut best_x = Solution::zeros(9);
        for v in 0..(1u32 << 9) {
            let bits: Vec<bool> = (0..9).map(|k| (v >> k) & 1 == 1).collect();
            let x = Solution::from_bits(&bits);
            let e = model.energy(&x);
            if e < best_e {
                best_e = e;
                best_x = x;
            }
        }
        let g = q.decode(&best_x).expect("QUBO optimum must be feasible");
        // best permutation by brute force
        let perms = [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let best_cost = perms.iter().map(|g| q.cost(g)).min().unwrap();
        assert_eq!(q.cost(&g), best_cost);
        assert_eq!(best_e, best_cost - 3 * p);
    }

    #[test]
    fn random_instance_feasible_identity() {
        let mut rng = Xorshift64Star::new(131);
        let n = 6;
        let flow: Vec<i64> = (0..n * n).map(|_| rng.next_range_i64(0, 9)).collect();
        let dist: Vec<i64> = (0..n * n).map(|_| rng.next_range_i64(0, 9)).collect();
        let q = QapInstance::new(n, flow, dist, "rand6");
        let p = 5_000;
        let model = q.to_qubo(p);
        for _ in 0..20 {
            let mut g: Vec<usize> = (0..n).collect();
            shuffle(&mut g, &mut rng);
            let x = q.encode(&g);
            assert_eq!(model.energy(&x), q.cost(&g) - (n as i64) * p);
        }
    }

    #[test]
    fn auto_penalty_is_positive() {
        assert!(tiny().auto_penalty() > 0);
    }
}
