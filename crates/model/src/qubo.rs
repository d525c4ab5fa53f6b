//! The QUBO model: `E(X) = Σ_{i<j} W_ij x_i x_j + Σ_i W_ii x_i`.

use crate::{
    DenseStrips, IsingModel, KernelChoice, KernelKind, ModelError, Solution, SymmetricCsr,
    DENSE_AUTO_MAX_N, DENSE_DENSITY_THRESHOLD,
};
use std::sync::OnceLock;

/// The largest coefficient mass a model may carry:
/// `Σ_i |W_ii| + Σ_{i<j} |W_ij| ≤ i64::MAX / 2` (2^62 − 1).
///
/// Every energy and every one-flip gain of such a model is at most its
/// mass in magnitude, so each sum on the search path fits `i64`, including
/// the kernels' `energy`/`init`, which accumulate the quadratic part twice.
/// [`QuboModel::new_with_kernel`] refuses a model beyond it with
/// [`ModelError::CoefficientRange`].
pub const COEFFICIENT_SUM_BOUND: i64 = i64::MAX / 2;

/// A Quadratic Unconstrained Binary Optimization model.
///
/// Off-diagonal weights live in a mirrored [`SymmetricCsr`] — the canonical
/// storage every query API (weights, edge iteration, I/O, Ising conversion)
/// reads. The *energy kernel* run by [`crate::IncrementalState`] is selected
/// per model ([`Self::kernel_kind`]): dense instances additionally
/// materialize a [`DenseStrips`] matrix so the flip hot loop runs over
/// contiguous rows. The diagonal (linear) weights `W_ii` are a dense vector,
/// since most reductions assign a weight to every node.
#[derive(Debug, Clone, Eq)]
pub struct QuboModel {
    adj: SymmetricCsr,
    diag: Vec<i64>,
    kind: KernelKind,
    /// `Σ|W_ii| + Σ_{i<j}|W_ij|`, at most [`COEFFICIENT_SUM_BOUND`].
    mass: i64,
    /// Every off-diagonal weight fits the `i32` dense strips, recorded at
    /// construction so [`Self::select_kernel`] stays O(1).
    dense_eligible: bool,
    /// Lazily-materialized strip matrix, populated on first
    /// [`Self::dense_strips`] access while `kind == KernelKind::Dense`.
    /// Laziness matters on construction paths that build with `Auto` and
    /// re-select afterwards (`ProblemSpec.kernel`, CLI `--kernel`): a
    /// `csr` override on an auto-dense instance must not pay a transient
    /// `n² × 4`-byte allocation it immediately throws away.
    dense: OnceLock<DenseStrips>,
}

/// Model identity is the weights, not the execution backend: two models with
/// the same terms compare equal even when one was forced onto a different
/// kernel (the parity suite depends on exactly that).
impl PartialEq for QuboModel {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj && self.diag == other.diag
    }
}

impl QuboModel {
    /// Build from an off-diagonal edge list and dense diagonal, selecting
    /// the energy kernel automatically ([`KernelChoice::Auto`]).
    pub fn new(
        n: usize,
        edges: &[(usize, usize, i64)],
        diag: Vec<i64>,
    ) -> Result<Self, ModelError> {
        Self::new_with_kernel(n, edges, diag, KernelChoice::Auto)
    }

    /// Build with an explicit kernel choice. Duplicate pairs sum; a sum
    /// beyond `i64`, or a coefficient mass beyond [`COEFFICIENT_SUM_BOUND`],
    /// is [`ModelError::CoefficientRange`].
    pub fn new_with_kernel(
        n: usize,
        edges: &[(usize, usize, i64)],
        diag: Vec<i64>,
        kernel: KernelChoice,
    ) -> Result<Self, ModelError> {
        if diag.len() != n {
            return Err(ModelError::SizeMismatch {
                expected: n,
                actual: diag.len(),
            });
        }
        let adj = SymmetricCsr::from_edges(n, edges)?;
        // One pass over the merged weights: the coefficient mass, and
        // whether the dense strips can hold every off-diagonal weight.
        let mut mass: u128 = diag.iter().map(|w| u128::from(w.unsigned_abs())).sum();
        let mut dense_eligible = true;
        for (_, _, w) in adj.iter_edges() {
            mass += u128::from(w.unsigned_abs());
            dense_eligible &= i32::try_from(w).is_ok();
        }
        let mass = i64::try_from(mass)
            .ok()
            .filter(|&m| m <= COEFFICIENT_SUM_BOUND)
            .ok_or(ModelError::CoefficientRange)?;
        let mut model = Self {
            adj,
            diag,
            kind: KernelKind::Csr,
            mass,
            dense_eligible,
            dense: OnceLock::new(),
        };
        model.select_kernel(kernel);
        Ok(model)
    }

    /// (Re)select the energy kernel. `Auto` applies the density policy:
    /// dense when `density() ≥` [`DENSE_DENSITY_THRESHOLD`] and
    /// `n ≤` [`DENSE_AUTO_MAX_N`]. An explicit choice is honored whenever
    /// the model is dense-eligible: every off-diagonal weight fits the
    /// `i32` lanes of [`DenseStrips`]. A model that is not keeps the CSR
    /// kernel under every choice, which computes the same results.
    ///
    /// Selection itself is O(1): the `n² × 4`-byte strip matrix is only
    /// materialized when a dense kernel view is actually taken (so forcing
    /// `Dense` far beyond the auto ceiling defers its memory bill to solve
    /// time — still a deliberate act). Selecting `Csr` drops any cached
    /// matrix.
    pub fn select_kernel(&mut self, choice: KernelChoice) {
        let dense = self.dense_eligible
            && match choice {
                KernelChoice::Csr => false,
                KernelChoice::Dense => true,
                KernelChoice::Auto => {
                    self.n() <= DENSE_AUTO_MAX_N && self.density() >= DENSE_DENSITY_THRESHOLD
                }
            };
        if dense {
            self.kind = KernelKind::Dense;
        } else {
            self.dense = OnceLock::new();
            self.kind = KernelKind::Csr;
        }
    }

    /// The backend this model selected.
    #[inline]
    pub fn kernel_kind(&self) -> KernelKind {
        self.kind
    }

    /// The coefficient mass `Σ|W_ii| + Σ_{i<j}|W_ij|`, which bounds every
    /// energy and gain in magnitude (at most [`COEFFICIENT_SUM_BOUND`]).
    pub fn coefficient_mass(&self) -> i64 {
        self.mass
    }

    /// Dense strip storage, when the dense backend is selected —
    /// materialized on first access (thread-safe; concurrent block workers
    /// race benignly on the `OnceLock`).
    pub fn dense_strips(&self) -> Option<&DenseStrips> {
        (self.kind == KernelKind::Dense).then(|| {
            self.dense.get_or_init(|| {
                DenseStrips::from_csr(&self.adj).expect("dense is selected only when eligible")
            })
        })
    }

    /// Whether the dense strip matrix has actually been allocated (memory
    /// introspection; selection alone never materializes it).
    pub fn dense_materialized(&self) -> bool {
        self.dense.get().is_some()
    }

    /// Heap bytes this model holds once solved on its selected kernel: the
    /// CSR arrays and the diagonal, plus the dense strip matrix whenever
    /// the dense kernel is selected — counted before it is materialized,
    /// since the first solve allocates it.
    pub fn heap_bytes(&self) -> usize {
        let dense = match self.kind {
            KernelKind::Dense => DenseStrips::bytes_for(self.n()),
            KernelKind::Csr => 0,
        };
        self.adj.heap_bytes() + self.diag.capacity() * std::mem::size_of::<i64>() + dense
    }

    /// Off-diagonal fill ratio `m / (n(n−1)/2)` ∈ [0, 1].
    pub fn density(&self) -> f64 {
        let n = self.n();
        if n < 2 {
            return 0.0;
        }
        let pairs = (n as f64) * ((n - 1) as f64) / 2.0;
        self.edge_count() as f64 / pairs
    }

    /// Number of binary variables.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.n()
    }

    /// Number of off-diagonal (quadratic) terms.
    pub fn edge_count(&self) -> usize {
        self.adj.edge_count()
    }

    /// Diagonal weight `W_ii`.
    #[inline]
    pub fn diag(&self, i: usize) -> i64 {
        self.diag[i]
    }

    /// All diagonal weights.
    #[inline]
    pub fn diag_slice(&self) -> &[i64] {
        &self.diag
    }

    /// Off-diagonal weight `W_ij` (0 when absent).
    pub fn weight(&self, i: usize, j: usize) -> i64 {
        assert_ne!(i, j, "use diag() for diagonal weights");
        self.adj.weight(i, j)
    }

    /// Sparse adjacency (mirrored).
    #[inline]
    pub fn adjacency(&self) -> &SymmetricCsr {
        &self.adj
    }

    /// Neighbors `(j, W_ij)` of node `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.adj.neighbors(i)
    }

    /// Direct energy evaluation, `O(n + m)`.
    ///
    /// This is the expensive computation the incremental state exists to
    /// avoid (the paper's `O(n²)` direct cost for dense models); it is used
    /// for initialisation and as the ground truth in consistency checks.
    pub fn energy(&self, x: &Solution) -> i64 {
        assert_eq!(x.len(), self.n(), "solution length mismatch");
        let mut linear = 0i64;
        let mut quad_twice = 0i64;
        for i in x.iter_ones() {
            linear += self.diag[i];
            let (cols, vals) = self.adj.row(i);
            for (k, &j) in cols.iter().enumerate() {
                if x.get(j as usize) {
                    quad_twice += vals[k];
                }
            }
        }
        linear + quad_twice / 2
    }

    /// Direct computation of the one-flip gain
    /// `Δ_i(X) = E(f_i(X)) − E(X)`, `O(deg(i))`.
    pub fn delta(&self, x: &Solution, i: usize) -> i64 {
        let (cols, vals) = self.adj.row(i);
        let mut s = self.diag[i];
        for (k, &j) in cols.iter().enumerate() {
            if x.get(j as usize) {
                s += vals[k];
            }
        }
        // flipping 0→1 adds s, flipping 1→0 removes it
        if x.get(i) {
            -s
        } else {
            s
        }
    }

    /// Convert to the equivalent Ising model.
    ///
    /// Returns `(ising, offset)` with `H(S) = 4·E(X) − offset`, where `S` is
    /// the spin vector `s_i = σ(x_i)`. The factor 4 keeps all coefficients
    /// integral (`J_ij = W_ij`, `h_i = 2 W_ii + Σ_j W_ij`).
    ///
    /// Panics when the [`Self::coefficient_mass`] exceeds `i64::MAX / 4`:
    /// below it `4·E(X)` and every partial sum of `H(S)` fit `i64`, beyond
    /// it they need not.
    pub fn to_ising(&self) -> (IsingModel, i64) {
        assert!(
            self.mass <= i64::MAX / 4,
            "coefficient mass {} is beyond the Ising conversion's bound i64::MAX / 4",
            self.mass
        );
        let n = self.n();
        let mut h = vec![0i64; n];
        let mut edges = Vec::with_capacity(self.edge_count());
        for (i, hi) in h.iter_mut().enumerate() {
            *hi = 2 * self.diag[i];
            for (j, w) in self.neighbors(i) {
                *hi += w;
                if i < j {
                    edges.push((i, j, w));
                }
            }
        }
        // 4·E(X) = Σ_{i<j} W_ij (s_i s_j + s_i + s_j + 1) + Σ_i 2 W_ii (s_i + 1)
        //        = H(S) + C,  C = Σ_{i<j} W_ij + 2 Σ_i W_ii
        let c: i64 =
            edges.iter().map(|&(_, _, w)| w).sum::<i64>() + 2 * self.diag.iter().sum::<i64>();
        let ising = IsingModel::new(n, &edges, h).expect("valid by construction");
        (ising, c)
    }

    /// Largest absolute weight (diagonal or off-diagonal); useful for
    /// scaling penalties and annealing schedules.
    pub fn max_abs_weight(&self) -> i64 {
        self.adj
            .max_abs_weight()
            .max(self.diag.iter().map(|v| v.abs()).max().unwrap_or(0))
    }

    /// A crude lower bound on the energy: the sum of every negative term.
    /// `E(X) ≥ lower_bound()` for all `X`; used by branch-and-bound and as a
    /// sanity check in tests.
    pub fn lower_bound(&self) -> i64 {
        let neg_edges: i64 = self.adj.iter_edges().map(|(_, _, w)| w.min(0)).sum();
        let neg_diag: i64 = self.diag.iter().map(|&v| v.min(0)).sum();
        neg_edges + neg_diag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalState;
    use dabs_rng::{Rng64, Xorshift64Star};

    /// The QUBO model of the paper's Fig. 1(2):
    /// 5 nodes, edges (0,1)=4, (0,3)=-6, (0,4)=-6(?), … — we use our own toy
    /// models here; the Fig. 1 Ising/QUBO equivalence is covered by the
    /// conversion round-trip tests in `ising.rs`.
    fn toy() -> QuboModel {
        // E(X) = 2 x0 x1 - 3 x1 x2 + x0 - 2 x2
        QuboModel::new(3, &[(0, 1, 2), (1, 2, -3)], vec![1, 0, -2]).unwrap()
    }

    #[test]
    fn energy_enumerated_by_hand() {
        let q = toy();
        let cases = [
            ("000", 0),
            ("100", 1),
            ("010", 0),
            ("001", -2),
            ("110", 3),
            ("011", -5),
            ("101", -1),
            ("111", -2),
        ];
        for (bits, expect) in cases {
            assert_eq!(
                q.energy(&Solution::from_bitstring(bits)),
                expect,
                "E({bits})"
            );
        }
    }

    #[test]
    fn delta_matches_energy_difference() {
        let q = toy();
        for bits in ["000", "100", "010", "001", "110", "011", "101", "111"] {
            let x = Solution::from_bitstring(bits);
            for i in 0..3 {
                let mut y = x.clone();
                y.flip(i);
                assert_eq!(q.delta(&x, i), q.energy(&y) - q.energy(&x), "Δ_{i}({bits})");
            }
        }
    }

    #[test]
    fn zero_vector_energy_and_deltas() {
        // Paper: X = 0 ⇒ E = 0 and Δ_k = W_kk.
        let q = toy();
        let z = Solution::zeros(3);
        assert_eq!(q.energy(&z), 0);
        for i in 0..3 {
            assert_eq!(q.delta(&z, i), q.diag(i));
        }
    }

    #[test]
    fn random_delta_consistency() {
        let mut rng = Xorshift64Star::new(11);
        let n = 40;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.next_bool(0.2) {
                    edges.push((i, j, rng.next_range_i64(-9, 9)));
                }
            }
        }
        let diag: Vec<i64> = (0..n).map(|_| rng.next_range_i64(-9, 9)).collect();
        let q = QuboModel::new(n, &edges, diag).unwrap();
        for _ in 0..20 {
            let x = Solution::random(n, &mut rng);
            let e = q.energy(&x);
            for i in 0..n {
                let mut y = x.clone();
                y.flip(i);
                assert_eq!(q.delta(&x, i), q.energy(&y) - e);
            }
        }
    }

    #[test]
    fn lower_bound_holds_exhaustively() {
        let q = toy();
        let lb = q.lower_bound();
        for v in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| (v >> i) & 1 == 1).collect();
            assert!(q.energy(&Solution::from_bits(&bits)) >= lb);
        }
    }

    #[test]
    fn rejects_mismatched_diag() {
        assert!(QuboModel::new(3, &[], vec![0, 0]).is_err());
    }

    #[test]
    fn weight_accessors() {
        let q = toy();
        assert_eq!(q.weight(0, 1), 2);
        assert_eq!(q.weight(1, 0), 2);
        assert_eq!(q.weight(0, 2), 0);
        assert_eq!(q.diag(2), -2);
        assert_eq!(q.max_abs_weight(), 3);
        assert_eq!(q.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "use diag()")]
    fn weight_panics_on_diagonal_query() {
        toy().weight(1, 1);
    }

    #[test]
    fn kernel_selection_is_lazy_about_dense_storage() {
        // A complete triangle auto-selects dense, but the strip matrix must
        // not exist until a dense kernel view is actually taken — so a CSR
        // override after an Auto build never pays a transient n² allocation.
        let mut q = QuboModel::new(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)], vec![0; 3]).unwrap();
        assert_eq!(q.kernel_kind(), crate::KernelKind::Dense);
        assert!(!q.dense_materialized(), "selection alone must not allocate");
        q.select_kernel(crate::KernelChoice::Csr);
        assert_eq!(q.kernel_kind(), crate::KernelKind::Csr);
        assert!(q.dense_strips().is_none());
        assert!(!q.dense_materialized());
        // Back to dense: still lazy until first access, then cached.
        q.select_kernel(crate::KernelChoice::Dense);
        assert!(!q.dense_materialized());
        assert!(q.dense_strips().is_some());
        assert!(q.dense_materialized());
    }

    #[test]
    fn heap_bytes_counts_dense_strips_once_selected() {
        let mut q = toy();
        q.select_kernel(crate::KernelChoice::Csr);
        let sparse = q.heap_bytes();
        assert!(sparse >= q.adjacency().heap_bytes() + 3 * 8);
        q.select_kernel(crate::KernelChoice::Dense);
        let dense = q.heap_bytes();
        // One padded 64-column row of 4-byte weights per variable.
        assert_eq!(dense - sparse, 3 * 64 * 4);
        // Materializing the strips moves no figure: they were already
        // counted at selection.
        let strips = q.dense_strips().expect("dense selected").bytes();
        assert_eq!(q.heap_bytes(), dense);
        assert_eq!(strips, 3 * 64 * 4);
    }

    /// A complete model on `n` variables with ±9 weights, the two given
    /// weights on pairs (0, 1) and (1, 2), and `diag` on every diagonal.
    fn complete_with(n: usize, w01: i64, w12: i64, diag: i64, kernel: KernelChoice) -> QuboModel {
        let mut rng = Xorshift64Star::new(0xD1A6);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let w = match (i, j) {
                    (0, 1) => w01,
                    (1, 2) => w12,
                    _ => rng.next_range_i64(-9, 9),
                };
                edges.push((i, j, w));
            }
        }
        let diag = (0..n)
            .map(|i| if i % 2 == 0 { diag } else { -diag })
            .collect();
        QuboModel::new_with_kernel(n, &edges, diag, kernel).unwrap()
    }

    #[test]
    fn weights_at_the_i32_edges_stay_dense_and_walk_like_csr() {
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        for n in [3, 70] {
            // The diagonal lives outside the strips, so it may go far
            // beyond i32.
            let q = complete_with(n, lo, hi, 1 << 40, KernelChoice::Auto);
            assert_eq!(q.kernel_kind(), KernelKind::Dense, "n={n}");
            let strips = q.dense_strips().unwrap();
            assert_eq!((strips.row(0)[1], strips.row(2)[1]), (i32::MIN, i32::MAX));
            let mut rng = Xorshift64Star::new(0xED6E + n as u64);
            let start = Solution::random(n, &mut rng);
            let mut csr = IncrementalState::from_solution(&q, start.clone());
            let mut dense = IncrementalState::from_solution_dense(&q, start);
            for step in 0..300 {
                // Bits 0–2 carry the extreme weights: flip them often.
                let i = if step % 2 == 0 {
                    step / 2 % 3
                } else {
                    rng.next_index(n)
                };
                assert_eq!(csr.flip(i), dense.flip(i), "n={n} step {step}");
                assert_eq!(csr.deltas(), dense.deltas(), "n={n} step {step}");
                csr.assert_consistent();
                dense.assert_consistent();
            }
        }
    }

    #[test]
    fn weights_beyond_i32_keep_the_csr_kernel() {
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        for (w01, w12) in [(hi + 1, 5), (-3, lo - 1)] {
            for choice in [KernelChoice::Auto, KernelChoice::Dense] {
                let mut q = complete_with(40, w01, w12, 7, choice);
                assert_eq!(q.kernel_kind(), KernelKind::Csr, "{choice:?}");
                assert!(q.dense_strips().is_none());
                q.select_kernel(KernelChoice::Dense);
                assert_eq!(q.kernel_kind(), KernelKind::Csr, "reselected {choice:?}");
                // No strip bytes are counted for a kernel it cannot run.
                let forced = q.heap_bytes();
                q.select_kernel(KernelChoice::Csr);
                assert_eq!(q.heap_bytes(), forced);
            }
        }
        // The same shape within i32 goes dense, so the refusal is the width.
        assert_eq!(
            complete_with(40, hi, lo, 7, KernelChoice::Auto).kernel_kind(),
            KernelKind::Dense
        );
    }

    #[test]
    fn coefficient_mass_is_bounded() {
        let b = COEFFICIENT_SUM_BOUND;
        // Mass exactly at the bound builds; one more is refused, whether the
        // extra unit sits on the diagonal or on an edge.
        let q = QuboModel::new(2, &[(0, 1, -(b / 2))], vec![b - b / 2 - 1, 1]).unwrap();
        assert_eq!(q.coefficient_mass(), b);
        for (edge, diag) in [
            (-(b / 2), vec![b - b / 2, 1]),
            (-(b / 2) - 1, vec![b - b / 2, 0]),
        ] {
            let e = QuboModel::new(2, &[(0, 1, edge)], diag).unwrap_err();
            assert_eq!(e, ModelError::CoefficientRange);
        }
        // Every energy and gain of the model at the bound is exact.
        for bits in ["00", "10", "01", "11"] {
            let x = Solution::from_bitstring(bits);
            let mut st = IncrementalState::from_solution(&q, x.clone());
            st.assert_consistent();
            st.flip(0);
            st.flip(1);
            st.assert_consistent();
        }
        assert_eq!(q.energy(&Solution::from_bitstring("11")), b - 2 * (b / 2));
        // |W| of i64::MIN alone is beyond it, and no sum wraps to hide it.
        assert!(QuboModel::new(1, &[], vec![i64::MIN]).is_err());
        let edges = [(0, 1, i64::MAX), (0, 2, i64::MAX), (1, 2, i64::MAX)];
        assert!(QuboModel::new(3, &edges, vec![0; 3]).is_err());
    }

    #[test]
    #[should_panic(expected = "Ising conversion")]
    fn to_ising_refuses_a_mass_beyond_a_quarter_of_i64() {
        let q = QuboModel::new(1, &[], vec![i64::MAX / 4 + 1]).unwrap();
        let _ = q.to_ising();
    }
}
