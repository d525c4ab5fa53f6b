//! Pluggable energy-kernel backends (the hot path behind
//! [`crate::IncrementalState`]).
//!
//! The paper's §III-A one-flip update `Δ_k ← Δ_k + W_ik σ(x_i) σ(x_k)` costs
//! `O(deg(i))` — but *how* those `deg(i)` terms are visited decides the
//! constant factor. Two backends implement [`QuboKernel`]:
//!
//! * [`CsrKernel`] — walks the mirrored CSR row of `i`: optimal for sparse
//!   instances where `deg(i) ≪ n`, but every entry costs a column-index
//!   load and a scattered `Δ_j` write.
//! * [`DenseKernel`] — walks a padded dense row in 64-column strips aligned
//!   to the solution words ([`crate::DenseStrips`]): every lane is a
//!   branchless sign-select + add over contiguous memory, so high-density
//!   instances (QAP one-hot squares, dense MaxCut) trade `n` cheap lanes
//!   for `deg(i)` expensive ones.
//!
//! [`QuboModel`] auto-selects a backend at build time from the instance
//! density ([`DENSE_DENSITY_THRESHOLD`], bounded by [`DENSE_AUTO_MAX_N`]);
//! [`KernelChoice`] overrides it from `QuboBuilder::kernel`, the server's
//! `ProblemSpec`, or the CLI's `--kernel` flag. Both kernels compute
//! *identical* `i64` energies and deltas — the cross-backend parity suite
//! (`tests/props_model.rs`, `tests/solver_parity.rs`) holds them to
//! bit-identical trajectories.

use crate::isa::{self, Tier};
use crate::segments::SegmentAggregates;
use crate::{DenseStrips, QuboModel, Solution, SymmetricCsr};

/// Auto-selection density threshold: models with
/// `nnz / (n(n−1)/2) ≥ threshold` get the dense kernel.
pub const DENSE_DENSITY_THRESHOLD: f64 = 0.25;

/// Auto-selection size ceiling: beyond this the dense matrix
/// (`n² × 8` bytes, ≈ 134 MiB at 4096) is only built on explicit request.
pub const DENSE_AUTO_MAX_N: usize = 4096;

/// Caller-facing backend selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelChoice {
    /// Pick by density at model build ([`DENSE_DENSITY_THRESHOLD`]).
    #[default]
    Auto,
    /// Force the CSR sparse kernel.
    Csr,
    /// Force the dense bit-packed kernel. Costs `n² × 8` bytes of weights —
    /// callers going far beyond n ≈ [`DENSE_AUTO_MAX_N`] should know why.
    Dense,
}

impl KernelChoice {
    /// Wire/CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Csr => "csr",
            KernelChoice::Dense => "dense",
        }
    }

    /// Parse the wire/CLI spelling.
    pub fn from_name(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(KernelChoice::Auto),
            "csr" => Ok(KernelChoice::Csr),
            "dense" => Ok(KernelChoice::Dense),
            other => Err(format!("unknown kernel {other:?} (auto|csr|dense)")),
        }
    }
}

/// The backend a model actually selected (no `Auto` left at this point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    Csr,
    Dense,
}

impl KernelKind {
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Csr => "csr",
            KernelKind::Dense => "dense",
        }
    }
}

/// An energy kernel: everything [`crate::IncrementalState`] needs from the
/// weight matrix, exposed so the flip hot loop monomorphizes per backend.
///
/// Implementors are cheap `Copy` views borrowing storage owned by the
/// [`QuboModel`]; cloning one hands an independent handle to another
/// resident state (block worker, inline device) without touching weights.
pub trait QuboKernel: Copy {
    /// Number of binary variables.
    fn n(&self) -> usize;

    /// Diagonal (linear) weights `W_ii`.
    fn diag(&self) -> &[i64];

    /// Backend name for logs and benches.
    fn kernel_name(&self) -> &'static str;

    /// Direct energy evaluation `E(X)`, `O(n + m)` — initialisation and
    /// ground truth only; never on the flip path.
    fn energy(&self, x: &Solution) -> i64;

    /// Single-pass initialisation: fill `delta[k] = Δ_k(X)` for every bit
    /// and return `E(X)`, touching each stored weight exactly once
    /// (`O(n + m)`; the dense backend's `m` is `n²`).
    fn init(&self, x: &Solution, delta: &mut [i64]) -> i64;

    /// Neighbour update for flipping bit `i` (paper Eq. 4):
    /// `delta[j] += W_ij · σ(x_i) · σ(x_j)` for all `j ≠ i`, evaluated on
    /// the **pre-flip** vector `x`. Does not touch `delta[i]`, the energy,
    /// or `x` itself — [`crate::IncrementalState::flip`] owns those.
    fn apply_flip(&self, x: &Solution, i: usize, delta: &mut [i64]);

    /// [`QuboKernel::apply_flip`] plus segment-aggregate maintenance: the
    /// backend reports exactly the Δ-segments it dirtied so selection never
    /// has to re-derive state globally.
    ///
    /// * CSR runs tighten-or-mark maintenance per updated entry of the
    ///   mirrored row ([`SegmentAggregates::update`]): a segment goes dirty
    ///   only when an update destroys its recorded extremum, so a flip
    ///   dirties ≈ `deg(i)/32` segments in expectation, not `deg(i)`;
    /// * dense keeps this default (update, then mark all): every lane
    ///   changes anyway, and the first selection query re-reduces the
    ///   whole array in one branchless pass — fusing the reduction into
    ///   the strip update was measured ~30 % slower per flip (with
    ///   baseline codegen) and taxed selection-free consumers (see the
    ///   note on the dense impl);
    /// * the default is correct for any backend.
    ///
    /// Like `apply_flip`, this must not touch `delta[i]` — the caller
    /// negates it and updates `i`'s aggregates afterwards.
    #[inline]
    fn apply_flip_seg(
        &self,
        x: &Solution,
        i: usize,
        delta: &mut [i64],
        segs: &mut SegmentAggregates,
    ) {
        self.apply_flip(x, i, delta);
        segs.mark_all();
    }
}

/// CSR sparse backend: a view over the model's mirrored adjacency.
#[derive(Debug, Clone, Copy)]
pub struct CsrKernel<'m> {
    adj: &'m SymmetricCsr,
    diag: &'m [i64],
}

impl<'m> CsrKernel<'m> {
    /// View over `model`'s CSR storage (always available).
    pub fn new(model: &'m QuboModel) -> Self {
        Self {
            adj: model.adjacency(),
            diag: model.diag_slice(),
        }
    }

    /// The mirrored adjacency this kernel walks — shared with the batch
    /// kernel so both visit identical rows.
    pub(crate) fn adjacency(&self) -> &'m SymmetricCsr {
        self.adj
    }
}

impl QuboKernel for CsrKernel<'_> {
    #[inline]
    fn n(&self) -> usize {
        self.adj.n()
    }

    #[inline]
    fn diag(&self) -> &[i64] {
        self.diag
    }

    fn kernel_name(&self) -> &'static str {
        "csr"
    }

    fn energy(&self, x: &Solution) -> i64 {
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

    fn init(&self, x: &Solution, delta: &mut [i64]) -> i64 {
        let mut linear = 0i64;
        let mut quad_twice = 0i64;
        for (i, d) in delta.iter_mut().enumerate() {
            let (cols, vals) = self.adj.row(i);
            let mut s = 0i64;
            for (k, &j) in cols.iter().enumerate() {
                if x.get(j as usize) {
                    s += vals[k];
                }
            }
            if x.get(i) {
                *d = -(self.diag[i] + s);
                linear += self.diag[i];
                quad_twice += s;
            } else {
                *d = self.diag[i] + s;
            }
        }
        linear + quad_twice / 2
    }

    #[inline]
    fn apply_flip(&self, x: &Solution, i: usize, delta: &mut [i64]) {
        let sig_i = x.spin(i);
        let (cols, vals) = self.adj.row(i);
        // Explicit load/compute/store instead of `delta[j] += …`: breaking
        // the read-modify-write lets the scattered loads issue ahead of the
        // dependent stores, and measures ~2× the flip throughput of the
        // fused form on random sparse rows.
        for (k, &jc) in cols.iter().enumerate() {
            let j = jc as usize;
            let old = delta[j];
            delta[j] = old + vals[k] * sig_i * x.spin(j);
        }
    }

    #[inline]
    fn apply_flip_seg(
        &self,
        x: &Solution,
        i: usize,
        delta: &mut [i64],
        segs: &mut SegmentAggregates,
    ) {
        let sig_i = x.spin(i);
        let (cols, vals) = self.adj.row(i);
        // Per-entry tighten-or-mark aggregate maintenance: a segment goes
        // dirty only when an update destroys its recorded extremum
        // (≈ deg(i)/32 expected segments per flip, not deg(i)).
        for (k, &jc) in cols.iter().enumerate() {
            let j = jc as usize;
            let old = delta[j];
            let new = old + vals[k] * sig_i * x.spin(j);
            delta[j] = new;
            segs.update(j, old, new);
        }
    }
}

/// Dense bit-packed backend: a view over the model's padded strip matrix.
#[derive(Debug, Clone, Copy)]
pub struct DenseKernel<'m> {
    dense: &'m DenseStrips,
    diag: &'m [i64],
}

impl<'m> DenseKernel<'m> {
    /// View over `model`'s dense storage, if it selected the dense backend.
    pub fn try_new(model: &'m QuboModel) -> Option<Self> {
        model.dense_strips().map(|dense| Self {
            dense,
            diag: model.diag_slice(),
        })
    }

    /// Like [`Self::try_new`], panicking when the model holds no dense
    /// storage. Use after checking `model.kernel_kind()`, or force the
    /// backend with `KernelChoice::Dense` at build time.
    pub fn new(model: &'m QuboModel) -> Self {
        Self::try_new(model)
            .expect("model has no dense kernel storage (build it with KernelChoice::Dense)")
    }

    /// The padded strip matrix this kernel walks — shared with the batch
    /// kernel so both visit identical rows.
    pub(crate) fn strips(&self) -> &'m DenseStrips {
        self.dense
    }
}

/// The dense strip update: `delta[j] += ±row[j]` for every `j < delta.len()`,
/// negated where bit `j` of `words ^ flip_mask` is set. One portable body
/// that [`isa::dense_update`] compiles once per instruction-set tier.
#[inline(always)]
pub(crate) fn dense_update_body(row: &[i64], words: &[u64], flip_mask: u64, delta: &mut [i64]) {
    let n = delta.len();
    let full = n >> 6;
    for (wi, &word) in words.iter().enumerate().take(full) {
        let m = word ^ flip_mask;
        let base = wi << 6;
        let strip = &row[base..base + 64];
        let dst = &mut delta[base..base + 64];
        for b in 0..64 {
            let neg = (((m >> b) & 1) as i64).wrapping_neg();
            dst[b] += sign_select(strip[b], neg);
        }
    }
    let rem = n & 63;
    if rem != 0 {
        let m = words[full] ^ flip_mask;
        let base = full << 6;
        for b in 0..rem {
            let neg = (((m >> b) & 1) as i64).wrapping_neg();
            delta[base + b] += sign_select(row[base + b], neg);
        }
    }
}

/// Branchless conditional negate: `w` when mask bit is 0, `−w` when 1.
#[inline(always)]
pub(crate) fn sign_select(w: i64, neg: i64) -> i64 {
    // neg ∈ {0, −1}: (w ^ 0) − 0 = w; (w ^ −1) − (−1) = !w + 1 = −w.
    (w ^ neg) - neg
}

impl QuboKernel for DenseKernel<'_> {
    #[inline]
    fn n(&self) -> usize {
        self.dense.n()
    }

    #[inline]
    fn diag(&self) -> &[i64] {
        self.diag
    }

    fn kernel_name(&self) -> &'static str {
        "dense"
    }

    fn energy(&self, x: &Solution) -> i64 {
        let mut linear = 0i64;
        let mut quad_twice = 0i64;
        for i in x.iter_ones() {
            linear += self.diag[i];
            let row = self.dense.row(i);
            for (wi, &word) in x.words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    quad_twice += row[(wi << 6) | b];
                    bits &= bits - 1;
                }
            }
        }
        linear + quad_twice / 2
    }

    fn init(&self, x: &Solution, delta: &mut [i64]) -> i64 {
        let mut linear = 0i64;
        let mut quad_twice = 0i64;
        for (i, d) in delta.iter_mut().enumerate() {
            let row = self.dense.row(i);
            let mut s = 0i64;
            for (wi, &word) in x.words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    s += row[(wi << 6) | b];
                    bits &= bits - 1;
                }
            }
            if x.get(i) {
                *d = -(self.diag[i] + s);
                linear += self.diag[i];
                quad_twice += s;
            } else {
                *d = self.diag[i] + s;
            }
        }
        linear + quad_twice / 2
    }

    #[inline]
    fn apply_flip(&self, x: &Solution, i: usize, delta: &mut [i64]) {
        let n = self.dense.n();
        // σ(x_i)σ(x_j) = +1 iff x_i == x_j, so the lanes to negate are
        // `word ^ broadcast(x_i)`. The diagonal lane is stored as zero, so
        // `j == i` safely contributes nothing.
        let flip_mask = if x.get(i) { !0u64 } else { 0u64 };
        isa::dense_update(
            Tier::detected(),
            self.dense.row(i),
            x.words(),
            flip_mask,
            &mut delta[..n],
        );
    }

    // `apply_flip_seg` deliberately stays on the default
    // (update-then-mark-all) path. A fused variant that re-reduced each
    // 64-lane strip inside the update pass measured ~30 % slower per dense
    // flip — the extra compares break the tight sign-select/add pipeline —
    // which taxed every dense flip (including selection-free consumers
    // like SA and the kernel throughput sweep) and tripped the
    // `kernel_sweep` dense ≥ 2× CSR contract. That was measured with
    // baseline (SSE2) codegen, before the update and the refresh got their
    // AVX2/AVX-512 clones; it has not been re-measured since. Marking
    // everything and letting the first selection query run one branchless
    // `O(n)` refresh keeps the flip at full speed and still replaces the
    // strategies' two branchy scans with aggregate reductions.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuboBuilder;
    use dabs_rng::{Rng64, Xorshift64Star};

    fn random_model(n: usize, density: f64, seed: u64, choice: KernelChoice) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = QuboBuilder::new(n);
        b.kernel(choice);
        for i in 0..n {
            b.add_linear(i, rng.next_range_i64(-9, 9));
            for j in (i + 1)..n {
                if rng.next_bool(density) {
                    b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn choice_names_round_trip() {
        for c in [KernelChoice::Auto, KernelChoice::Csr, KernelChoice::Dense] {
            assert_eq!(KernelChoice::from_name(c.name()).unwrap(), c);
        }
        assert!(KernelChoice::from_name("gpu").is_err());
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
    }

    #[test]
    fn sign_select_is_a_conditional_negate() {
        for w in [-5i64, 0, 7, i64::MAX, i64::MIN + 1] {
            assert_eq!(sign_select(w, 0), w);
            assert_eq!(sign_select(w, -1), -w);
        }
    }

    #[test]
    fn kernels_agree_on_energy_and_init() {
        for (n, density) in [(3, 1.0), (30, 0.1), (64, 0.5), (65, 0.9), (130, 0.5)] {
            let q = random_model(n, density, 9_000 + n as u64, KernelChoice::Dense);
            let csr = CsrKernel::new(&q);
            let dense = DenseKernel::new(&q);
            let mut rng = Xorshift64Star::new(7_000 + n as u64);
            for _ in 0..8 {
                let x = Solution::random(n, &mut rng);
                assert_eq!(csr.energy(&x), dense.energy(&x), "energy n={n}");
                assert_eq!(csr.energy(&x), q.energy(&x), "vs model n={n}");
                let mut da = vec![0i64; n];
                let mut db = vec![0i64; n];
                let ea = csr.init(&x, &mut da);
                let eb = dense.init(&x, &mut db);
                assert_eq!(ea, eb, "init energy n={n}");
                assert_eq!(da, db, "init deltas n={n}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_flip_updates() {
        // Word-boundary sizes stress the strip tail handling.
        for n in [5usize, 63, 64, 65, 128, 129] {
            let q = random_model(n, 0.6, 400 + n as u64, KernelChoice::Dense);
            let csr = CsrKernel::new(&q);
            let dense = DenseKernel::new(&q);
            let mut rng = Xorshift64Star::new(500 + n as u64);
            let mut x = Solution::random(n, &mut rng);
            let mut da = vec![0i64; n];
            let mut db = vec![0i64; n];
            csr.init(&x, &mut da);
            dense.init(&x, &mut db);
            for _ in 0..200 {
                let i = rng.next_index(n);
                csr.apply_flip(&x, i, &mut da);
                dense.apply_flip(&x, i, &mut db);
                da[i] = -da[i];
                db[i] = -db[i];
                x.flip(i);
                assert_eq!(da, db, "n={n}");
            }
            // ground truth after the walk
            for (i, &d) in da.iter().enumerate() {
                assert_eq!(d, q.delta(&x, i), "n={n} bit {i}");
            }
        }
    }

    #[test]
    fn dense_kernel_requires_dense_storage() {
        let q = random_model(10, 0.1, 1, KernelChoice::Csr);
        assert!(DenseKernel::try_new(&q).is_none());
        assert!(CsrKernel::new(&q).n() == 10);
    }
}
