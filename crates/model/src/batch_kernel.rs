//! Bit-sliced batch kernel: B resident candidates advanced per weight sweep.
//!
//! The paper's bulk search amortises every weight load over many candidate
//! solutions per kernel launch. The scalar hot path ([`crate::IncrementalState`])
//! amortises each CSR/dense row load over exactly **one** candidate; this
//! module holds `B ∈ {64, 128, 192, 256}` candidates in structure-of-arrays
//! form and updates all `B` Δ-arrays in a single sweep over row `i`:
//!
//! * **bit-sliced x** — one `u64` *lane word* per 64 candidates per variable
//!   (`x[i·wpv + w]`, bit `ℓ` of word `w` = candidate `w·64 + ℓ`), the
//!   column-major transpose of `B` packed [`Solution`]s;
//! * **column-major Δ** — `delta[j·B + ℓ]`, so the `B` gains of one
//!   variable are contiguous and the inner lane loop vectorises;
//! * **branchless accumulate** — per weight `W_ij`, the lanes to negate are
//!   `x_i ^ x_j` (σ_iσ_j = +1 iff the bits agree) and the lanes to touch
//!   are the caller's accept mask, both applied with
//!   `sign_select`-style mask arithmetic: no branches in the lane loop.
//!
//! The execution model is deliberately SIMT-lockstep: every lane considers
//! the **same** variable `i` with per-lane predication (the accept mask),
//! exactly like a warp with divergence-free predicated flips. That is what
//! lets one `(cols, vals)` row walk serve the whole batch — and what makes
//! each lane's trajectory *bit-identical* to an independent scalar
//! [`crate::IncrementalState`] run replaying the same accept decisions,
//! the contract the parity tests at the bottom of this file pin for both
//! backends at word-boundary sizes.

use crate::kernel::sign_select;
use crate::{CsrKernel, DenseKernel, QuboKernel, Solution};

/// Smallest supported batch width: one lane word.
pub const MIN_BATCH_LANES: usize = 64;

/// Largest supported batch width: four lane words. Beyond this the Δ matrix
/// (`n·B × 8` bytes) stops fitting in L2 for the paper-scale instances and
/// per-sweep throughput regresses.
pub const MAX_BATCH_LANES: usize = 256;

/// Is `lanes` a legal batch width (multiple of 64 in `[64, 256]`)?
pub fn valid_lanes(lanes: usize) -> bool {
    lanes.is_multiple_of(64) && (MIN_BATCH_LANES..=MAX_BATCH_LANES).contains(&lanes)
}

/// A [`QuboKernel`] that can update all `B` Δ-arrays of a bit-sliced batch
/// in one sweep over the weights of row `i`.
pub trait BatchKernel: QuboKernel {
    /// Masked bulk neighbour update for flipping bit `i` in the accepting
    /// lanes: for every stored weight `W_ij` (`j ≠ i`) and every lane `ℓ`
    /// with `accept` bit `ℓ` set,
    /// `delta[j·B + ℓ] += W_ij · σ(x_i^ℓ) · σ(x_j^ℓ)`, evaluated on the
    /// **pre-flip** bit-sliced `x`. Must not touch row `i` of `delta` —
    /// [`BatchState::step`] negates the accepted lanes' `Δ_i` itself.
    ///
    /// `x` is the full `n·wpv` bit-sliced array, `accept` is `wpv` lane
    /// words, `delta` is the full `n·(wpv·64)` column-major gain matrix.
    fn batch_apply_flip(&self, x: &[u64], wpv: usize, i: usize, accept: &[u64], delta: &mut [i64]);
}

/// Per-word accepted-lane index lists, extracted once per flip so the
/// per-neighbour inner loop reads a flat `u8` stream instead of re-walking
/// the mask bits with a serial `trailing_zeros` chain for every weight.
struct AcceptLists {
    /// Lane indices (0..64) of the accepted bits, word-major.
    idx: [[u8; 64]; MAX_BATCH_LANES / 64],
    /// Accepted count per word.
    len: [usize; MAX_BATCH_LANES / 64],
}

impl AcceptLists {
    #[inline]
    fn build(accept: &[u64]) -> Self {
        let mut lists = AcceptLists {
            idx: [[0u8; 64]; MAX_BATCH_LANES / 64],
            len: [0; MAX_BATCH_LANES / 64],
        };
        for (wi, &acc) in accept.iter().enumerate() {
            let mut m = acc;
            let mut k = 0usize;
            while m != 0 {
                lists.idx[wi][k] = m.trailing_zeros() as u8;
                m &= m - 1;
                k += 1;
            }
            lists.len[wi] = k;
        }
        lists
    }
}

/// The shared inner lane loop: add `±w` into the accepted lanes of one
/// 64-lane gain word, sign from `sgn` (bit set ⇒ `x_i ≠ x_j` ⇒ `−w`). The
/// work tracks accepted lanes, not the lane width, and the `& 63` keeps
/// the array access provably in bounds without a checked index.
#[inline(always)]
fn accumulate_lane_word(dst: &mut [i64; 64], w: i64, sgn: u64, bits: &[u8]) {
    for &b in bits {
        let b = (b & 63) as usize;
        let neg = (((sgn >> b) & 1) as i64).wrapping_neg();
        dst[b] += sign_select(w, neg);
    }
}

/// Explicit AVX-512 lane loops, used when the CPU supports them. The batch
/// accumulate is exactly the predicated-SIMT model the module docs describe,
/// and AVX-512's masked ops express it directly: `vpmovm2q` expands eight
/// sign bits to per-lane all-ones (so `(w ^ neg) − neg` is the vector
/// [`sign_select`]) and `vpaddq {k}` adds only into accepted lanes — eight
/// gains per instruction with no gather/scatter, since Δ is column-major.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Runtime CPU check, from the crate's shared tier detection: F for
    /// masked 64-bit add/compare, DQ for the `vpmovm2q` mask-to-vector
    /// expansion.
    pub(super) fn available() -> bool {
        crate::isa::Tier::detected().is_avx512()
    }

    /// AVX-512 body of [`super::apply_row`]: per neighbour `j` and lane
    /// word, eight masked 8×i64 `±w` adds. Callers must have verified
    /// [`available`] — hence the `unsafe fn`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn apply_row(
        x: &[u64],
        wpv: usize,
        xi: &[u64],
        accept: &[u64],
        delta: &mut [i64],
        row: impl Iterator<Item = (usize, i64)>,
    ) {
        let lanes = wpv << 6;
        for (j, w) in row {
            let xj = &x[j * wpv..(j + 1) * wpv];
            let dj = &mut delta[j * lanes..(j + 1) * lanes];
            let wv = _mm512_set1_epi64(w);
            for wi in 0..wpv {
                let acc = accept[wi];
                if acc == 0 {
                    continue;
                }
                // Lanes where x_i == x_j get +w (σ_iσ_j = +1), others −w.
                let sgn = xi[wi] ^ xj[wi];
                let word: &mut [i64] = &mut dj[wi << 6..(wi << 6) + 64];
                let p = word.as_mut_ptr();
                for c in 0..8 {
                    let a = ((acc >> (c * 8)) & 0xff) as __mmask8;
                    if a == 0 {
                        continue;
                    }
                    let neg = _mm512_movm_epi64(((sgn >> (c * 8)) & 0xff) as __mmask8);
                    // (w ^ neg) − neg = ±w per lane: the vector sign_select.
                    let addend = _mm512_sub_epi64(_mm512_xor_si512(wv, neg), neg);
                    // SAFETY: `p` points at a 64-element slice and
                    // `c·8 + 8 ≤ 64`, so the unaligned 8×i64 load and store
                    // stay in bounds.
                    unsafe {
                        let d = _mm512_loadu_epi64(p.add(c * 8));
                        _mm512_storeu_epi64(p.add(c * 8), _mm512_mask_add_epi64(d, a, d, addend));
                    }
                }
            }
        }
    }

    /// AVX-512 body of [`super::BatchState::accept_mask_le`]: build one
    /// 64-lane accept word from eight `vpcmpleq` mask compares. `d` and
    /// `thresholds` hold 64 gains/thresholds per output word. Callers must
    /// have verified [`available`].
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn accept_mask_le(d: &[i64], thresholds: &[i64], out: &mut [u64]) {
        for (wi, o) in out.iter_mut().enumerate() {
            let base = wi << 6;
            let mut m = 0u64;
            for c in 0..8 {
                let off = base + c * 8;
                // SAFETY: the caller passes 64 gains and thresholds per
                // output word, so `off + 8 ≤ 64·out.len()` keeps both
                // unaligned 8×i64 loads in bounds.
                let (dv, tv) = unsafe {
                    (
                        _mm512_loadu_epi64(d.as_ptr().add(off)),
                        _mm512_loadu_epi64(thresholds.as_ptr().add(off)),
                    )
                };
                m |= (_mm512_cmple_epi64_mask(dv, tv) as u64) << (c * 8);
            }
            *o = m;
        }
    }
}

/// Walk one weight row: for every neighbour `j` with weight `w`, update the
/// accepted lanes of `delta[j·lanes..]` on the pre-flip bit-sliced `x`.
/// Dispatches to the AVX-512 loop when the CPU has it; the portable
/// accept-list path ([`apply_row_portable`]) is the fallback and the
/// behavioural reference.
#[inline(always)]
fn apply_row(
    x: &[u64],
    wpv: usize,
    xi: &[u64],
    accept: &[u64],
    delta: &mut [i64],
    row: impl Iterator<Item = (usize, i64)>,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: `simd::available()` just confirmed AVX-512F/DQ at runtime.
        #[allow(unsafe_code)]
        unsafe {
            simd::apply_row(x, wpv, xi, accept, delta, row)
        };
        return;
    }
    apply_row_portable(x, wpv, xi, accept, delta, row);
}

/// The accept-list row walk every CPU without AVX-512 runs.
#[inline(always)]
fn apply_row_portable(
    x: &[u64],
    wpv: usize,
    xi: &[u64],
    accept: &[u64],
    delta: &mut [i64],
    row: impl Iterator<Item = (usize, i64)>,
) {
    let lanes = wpv << 6;
    let lists = AcceptLists::build(accept);
    for (j, w) in row {
        let xj = &x[j * wpv..(j + 1) * wpv];
        let dj = &mut delta[j * lanes..(j + 1) * lanes];
        for wi in 0..wpv {
            let cnt = lists.len[wi];
            if cnt == 0 {
                continue;
            }
            // Lanes where x_i == x_j get +w (σ_iσ_j = +1), others −w.
            let sgn = xi[wi] ^ xj[wi];
            let dst: &mut [i64; 64] = (&mut dj[wi << 6..(wi << 6) + 64]).try_into().unwrap();
            accumulate_lane_word(dst, w, sgn, &lists.idx[wi][..cnt]);
        }
    }
}

impl BatchKernel for CsrKernel<'_> {
    fn batch_apply_flip(&self, x: &[u64], wpv: usize, i: usize, accept: &[u64], delta: &mut [i64]) {
        let (cols, vals) = self.adjacency().row(i);
        let xi = &x[i * wpv..(i + 1) * wpv];
        let row = cols.iter().zip(vals).map(|(&jc, &w)| (jc as usize, w));
        apply_row(x, wpv, xi, accept, delta, row);
    }
}

impl BatchKernel for DenseKernel<'_> {
    fn batch_apply_flip(&self, x: &[u64], wpv: usize, i: usize, accept: &[u64], delta: &mut [i64]) {
        let n = self.n();
        let row = self.strips().row(i);
        let xi = &x[i * wpv..(i + 1) * wpv];
        // The diagonal lane is stored as zero, so j == i contributes
        // nothing — same invariant the scalar dense kernel leans on.
        let row = (0..n).map(move |j| (j, row[j])).filter(|&(_, w)| w != 0);
        apply_row(x, wpv, xi, accept, delta, row);
    }
}

/// The mask loop of [`BatchState::accept_mask_le`] every CPU without
/// AVX-512 runs: bit `b` of word `wi` is `d[64·wi + b] ≤ thresholds[64·wi + b]`.
#[inline(always)]
fn accept_mask_le_portable(d: &[i64], thresholds: &[i64], out: &mut [u64]) {
    for (wi, o) in out.iter_mut().enumerate() {
        let base = wi << 6;
        let mut m = 0u64;
        for b in 0..64 {
            m |= u64::from(d[base + b] <= thresholds[base + b]) << b;
        }
        *o = m;
    }
}

/// `B` resident candidates in SoA form: bit-sliced vectors, column-major
/// gains, per-lane energies and running bests. The batch analogue of `B`
/// independent [`crate::IncrementalState`]s — and contractually
/// bit-identical to them lane by lane (see module docs).
#[derive(Debug, Clone)]
pub struct BatchState<K: BatchKernel> {
    kernel: K,
    n: usize,
    lanes: usize,
    /// Lane words per variable (`lanes / 64`).
    wpv: usize,
    /// Bit-sliced candidates, `n·wpv` words; see module docs for layout.
    x: Vec<u64>,
    /// Column-major gains, `delta[j·lanes + ℓ]`.
    delta: Vec<i64>,
    /// Current energy per lane.
    energy: Vec<i64>,
    /// Best (minimum) energy each lane has visited since seeding.
    best_energy: Vec<i64>,
    /// Accepted flips per lane.
    lane_flips: Vec<u64>,
    /// Total accepted flips across lanes.
    flips: u64,
}

impl<K: BatchKernel> BatchState<K> {
    /// A batch of `lanes` all-zeros candidates: every lane starts at energy
    /// 0 with `Δ_j = W_jj`, matching `IncrementalState::with_kernel`.
    pub fn new(kernel: K, lanes: usize) -> Self {
        assert!(
            valid_lanes(lanes),
            "batch lanes {lanes} invalid (multiple of 64 in [{MIN_BATCH_LANES}, {MAX_BATCH_LANES}])"
        );
        let n = kernel.n();
        let wpv = lanes >> 6;
        let mut delta = vec![0i64; n * lanes];
        for (j, &d) in kernel.diag().iter().enumerate() {
            delta[j * lanes..(j + 1) * lanes].fill(d);
        }
        Self {
            kernel,
            n,
            lanes,
            wpv,
            x: vec![0u64; n * wpv],
            delta,
            energy: vec![0; lanes],
            best_energy: vec![0; lanes],
            lane_flips: vec![0; lanes],
            flips: 0,
        }
    }

    /// Number of variables.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of candidate lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of `u64` lane words (`lanes / 64`) — the length callers size
    /// accept masks to.
    pub fn lane_words(&self) -> usize {
        self.wpv
    }

    /// Re-seed lane `ℓ` from a packed solution: scatters its bits into the
    /// lane column and recomputes the lane's gains and energy with the
    /// scalar `kernel.init`, so the lane is exactly an `IncrementalState`
    /// built from `sol`. `O(n + m)` — seeding cost, not sweep cost.
    pub fn seed_lane(&mut self, lane: usize, sol: &Solution) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        assert_eq!(sol.len(), self.n, "solution size mismatch");
        let (word, bit) = (lane >> 6, (lane & 63) as u32);
        let mask = 1u64 << bit;
        for k in 0..self.n {
            let slot = &mut self.x[k * self.wpv + word];
            *slot = (*slot & !mask) | (u64::from(sol.get(k)) << bit);
        }
        let mut scratch = vec![0i64; self.n];
        let e = self.kernel.init(sol, &mut scratch);
        for (k, &d) in scratch.iter().enumerate() {
            self.delta[k * self.lanes + lane] = d;
        }
        self.energy[lane] = e;
        self.best_energy[lane] = e;
        self.lane_flips[lane] = 0;
    }

    /// The `B` gains of variable `i`, one per lane.
    pub fn deltas_of(&self, i: usize) -> &[i64] {
        &self.delta[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Build the accept mask for variable `i`: bit `ℓ` set iff
    /// `Δ_i^ℓ ≤ thresholds[ℓ]`. Branchless per lane; `out` must hold
    /// [`Self::lane_words`] words.
    pub fn accept_mask_le(&self, i: usize, thresholds: &[i64], out: &mut [u64]) {
        debug_assert_eq!(thresholds.len(), self.lanes);
        debug_assert_eq!(out.len(), self.wpv);
        let d = self.deltas_of(i);
        #[cfg(target_arch = "x86_64")]
        if simd::available() {
            // SAFETY: `simd::available()` just confirmed AVX-512F/DQ at
            // runtime; `d` and `thresholds` hold 64 entries per out word.
            #[allow(unsafe_code)]
            unsafe {
                simd::accept_mask_le(d, thresholds, out)
            };
            return;
        }
        accept_mask_le_portable(d, thresholds, out);
    }

    /// Predicated lockstep flip of variable `i` on the lanes in `accept`:
    /// per accepted lane the exact scalar `flip` sequence — energy `+= Δ_i`,
    /// neighbour gains updated on pre-flip bits, `Δ_i` negated, bit
    /// toggled — all other lanes untouched. Returns the number of lanes
    /// that flipped. `O(deg(i) · wpv)` when any lane accepts, `O(wpv)`
    /// when none does.
    pub fn step(&mut self, i: usize, accept: &[u64]) -> u32 {
        debug_assert_eq!(accept.len(), self.wpv);
        let popcnt: u32 = accept.iter().map(|w| w.count_ones()).sum();
        if popcnt == 0 {
            return 0;
        }
        // Neighbour gains first: batch_apply_flip reads pre-flip x and
        // must not see Δ_i already negated.
        self.kernel
            .batch_apply_flip(&self.x, self.wpv, i, accept, &mut self.delta);
        let di = &mut self.delta[i * self.lanes..(i + 1) * self.lanes];
        for (wi, &acc) in accept.iter().enumerate() {
            if acc == 0 {
                continue;
            }
            let base = wi << 6;
            let mut m = acc;
            while m != 0 {
                let l = base + m.trailing_zeros() as usize;
                m &= m - 1;
                let d = di[l];
                // Accepted lanes: energy += Δ_i, Δ_i ← −Δ_i, flips += 1.
                self.energy[l] += d;
                di[l] = -d;
                self.best_energy[l] = self.best_energy[l].min(self.energy[l]);
                self.lane_flips[l] += 1;
            }
            self.x[i * self.wpv + wi] ^= acc;
        }
        self.flips += popcnt as u64;
        popcnt
    }

    /// Gather lane `ℓ`'s current candidate back into a packed solution.
    pub fn lane_solution(&self, lane: usize) -> Solution {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let (word, bit) = (lane >> 6, (lane & 63) as u32);
        let mut sol = Solution::zeros(self.n);
        for k in 0..self.n {
            if (self.x[k * self.wpv + word] >> bit) & 1 == 1 {
                sol.set(k, true);
            }
        }
        sol
    }

    /// Lane `ℓ`'s current energy.
    pub fn lane_energy(&self, lane: usize) -> i64 {
        self.energy[lane]
    }

    /// Lane `ℓ`'s best energy since seeding.
    pub fn lane_best_energy(&self, lane: usize) -> i64 {
        self.best_energy[lane]
    }

    /// Current energies of all lanes.
    pub fn energies(&self) -> &[i64] {
        &self.energy
    }

    /// Best-seen energies of all lanes.
    pub fn best_energies(&self) -> &[i64] {
        &self.best_energy
    }

    /// Accepted flips per lane.
    pub fn lane_flip_counts(&self) -> &[u64] {
        &self.lane_flips
    }

    /// Total accepted flips across all lanes.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// The lane with the lowest **current** energy and that energy.
    /// Current (not best-seen) so the winner's extracted
    /// [`Self::lane_solution`] matches the reported value exactly.
    pub fn argmin_lane(&self) -> (usize, i64) {
        let mut best = (0usize, self.energy[0]);
        for (l, &e) in self.energy.iter().enumerate().skip(1) {
            if e < best.1 {
                best = (l, e);
            }
        }
        best
    }

    /// `max |Δ_i|` of lane `ℓ` — the threshold-schedule amplitude seed.
    pub fn max_abs_delta(&self, lane: usize) -> i64 {
        (0..self.n)
            .map(|i| self.delta[i * self.lanes + lane].abs())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IncrementalState, KernelChoice, QuboBuilder, QuboModel};
    use dabs_rng::{Rng64, SplitMix64, Xorshift64Star};

    fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = QuboBuilder::new(n);
        b.kernel(KernelChoice::Dense);
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
    fn lane_width_validation() {
        for ok in [64, 128, 192, 256] {
            assert!(valid_lanes(ok), "{ok}");
        }
        for bad in [0, 1, 32, 63, 65, 96, 320, 512] {
            assert!(!valid_lanes(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "batch lanes")]
    fn constructor_rejects_bad_widths() {
        let q = random_model(8, 0.5, 1);
        let _ = BatchState::new(CsrKernel::new(&q), 96);
    }

    #[test]
    fn zero_seed_matches_scalar_zero_state() {
        let q = random_model(40, 0.4, 2);
        let bs = BatchState::new(CsrKernel::new(&q), 64);
        let st = IncrementalState::new(&q);
        for l in 0..64 {
            assert_eq!(bs.lane_energy(l), st.energy());
            assert_eq!(bs.lane_solution(l), *st.solution());
        }
        for i in 0..40 {
            assert!(bs.deltas_of(i).iter().all(|&d| d == st.delta(i)));
        }
    }

    #[test]
    fn seed_and_extract_round_trip() {
        let q = random_model(65, 0.3, 3);
        let mut bs = BatchState::new(CsrKernel::new(&q), 128);
        let mut rng = Xorshift64Star::new(11);
        for l in [0usize, 1, 63, 64, 65, 127] {
            let sol = Solution::random(65, &mut rng);
            bs.seed_lane(l, &sol);
            assert_eq!(bs.lane_solution(l), sol, "lane {l}");
            assert_eq!(bs.lane_energy(l), q.energy(&sol), "lane {l}");
        }
    }

    /// Satellite 4 grid — every lane of the batch kernel bit-identical to
    /// a scalar `IncrementalState` replaying the same accept decisions, at
    /// densities .05/.5/.95 and word-boundary sizes, both backends.
    #[test]
    fn cross_lane_parity_grid() {
        for &n in &[63usize, 64, 65, 129] {
            for &density in &[0.05f64, 0.5, 0.95] {
                let q = random_model(n, density, 7_700 + n as u64);
                cross_lane_parity_case(&q, CsrKernel::new(&q), n, density);
                cross_lane_parity_case(&q, DenseKernel::new(&q), n, density);
            }
        }
    }

    fn cross_lane_parity_case<K: BatchKernel>(q: &QuboModel, kernel: K, n: usize, density: f64) {
        const LANES: usize = 128;
        const STEPS: usize = 120;
        let tag = format!("n={n} density={density} kernel={}", kernel.kernel_name());
        let mut seeder = SplitMix64::new(0xBA7C4 + n as u64);
        let mut bs = BatchState::new(kernel, LANES);
        let mut scalars: Vec<_> = (0..LANES)
            .map(|l| {
                let mut rng = Xorshift64Star::new(seeder.next_u64());
                let sol = Solution::random(n, &mut rng);
                bs.seed_lane(l, &sol);
                IncrementalState::from_solution_with(q, kernel, sol)
            })
            .collect();
        let mut bests: Vec<i64> = scalars.iter().map(|s| s.energy()).collect();
        let mut mask_rng = Xorshift64Star::new(0xACCE57 + n as u64);
        let mut accept = vec![0u64; bs.lane_words()];
        for step in 0..STEPS {
            let i = mask_rng.next_index(n);
            for a in accept.iter_mut() {
                *a = mask_rng.next_u64();
            }
            bs.step(i, &accept);
            for (l, st) in scalars.iter_mut().enumerate() {
                if (accept[l >> 6] >> (l & 63)) & 1 == 1 {
                    st.flip(i);
                    bests[l] = bests[l].min(st.energy());
                }
            }
            if step % 40 == 39 || step == STEPS - 1 {
                for (l, st) in scalars.iter().enumerate() {
                    assert_eq!(bs.lane_energy(l), st.energy(), "{tag} lane {l} step {step}");
                    assert_eq!(
                        bs.lane_best_energy(l),
                        bests[l],
                        "{tag} lane {l} step {step}"
                    );
                    assert_eq!(
                        bs.lane_flip_counts()[l],
                        st.flips(),
                        "{tag} lane {l} step {step}"
                    );
                    for i in 0..n {
                        assert_eq!(
                            bs.deltas_of(i)[l],
                            st.delta(i),
                            "{tag} lane {l} var {i} step {step}"
                        );
                    }
                }
            }
        }
        // Final solutions and ground-truth energies.
        for (l, st) in scalars.iter().enumerate() {
            let sol = bs.lane_solution(l);
            assert_eq!(sol, *st.solution(), "{tag} lane {l} final");
            assert_eq!(
                q.energy(&sol),
                bs.lane_energy(l),
                "{tag} lane {l} ground truth"
            );
        }
    }

    /// A bulk row walk with its mask loop: one path through the kernel.
    #[derive(Debug, Clone, Copy)]
    enum RowWalk {
        Portable,
        #[cfg(target_arch = "x86_64")]
        Avx512,
    }

    #[allow(unsafe_code)]
    impl RowWalk {
        /// Every path this CPU runs. Prints which ran and notes a path the
        /// CPU lacks (run with `--nocapture` to see it).
        fn available(test: &str) -> Vec<RowWalk> {
            #[allow(unused_mut)]
            let mut paths = vec![RowWalk::Portable];
            #[cfg(target_arch = "x86_64")]
            if simd::available() {
                paths.push(RowWalk::Avx512);
            }
            println!("{test}: row walks run: {paths:?}");
            if paths.len() == 1 {
                println!("{test}: CPU lacks avx512; its loops are skipped");
            }
            paths
        }

        fn apply_row(
            self,
            x: &[u64],
            i: usize,
            accept: &[u64],
            delta: &mut [i64],
            row: &[(usize, i64)],
        ) {
            let wpv = accept.len();
            let xi = &x[i * wpv..(i + 1) * wpv];
            let row = row.iter().copied();
            match self {
                RowWalk::Portable => apply_row_portable(x, wpv, xi, accept, delta, row),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `available` lists this path only when
                // `simd::available()` confirmed AVX-512F/DQ.
                RowWalk::Avx512 => unsafe { simd::apply_row(x, wpv, xi, accept, delta, row) },
            }
        }

        fn accept_mask_le(self, d: &[i64], thresholds: &[i64], out: &mut [u64]) {
            match self {
                RowWalk::Portable => accept_mask_le_portable(d, thresholds, out),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as in `apply_row`; `d` and `thresholds` hold 64
                // entries per out word.
                RowWalk::Avx512 => unsafe { simd::accept_mask_le(d, thresholds, out) },
            }
        }
    }

    /// Accept masks of `wpv` words: empty, full, the last lane alone,
    /// alternating empty and full words, and random, sparse and chunky ones
    /// (chunky masks have empty 8-lane chunks, which the AVX-512 walk skips).
    fn accept_masks(wpv: usize, rng: &mut Xorshift64Star) -> Vec<Vec<u64>> {
        let mut last = vec![0u64; wpv];
        last[wpv - 1] = 1 << 63;
        let alternating = (0..wpv).map(|w| if w % 2 == 0 { 0 } else { !0 }).collect();
        let mut masks = vec![vec![0u64; wpv], vec![!0u64; wpv], last, alternating];
        for _ in 0..4 {
            let mut random = Vec::new();
            let mut sparse = Vec::new();
            let mut chunky = Vec::new();
            for _ in 0..wpv {
                random.push(rng.next_u64());
                sparse.push(rng.next_u64() & rng.next_u64() & rng.next_u64());
                let mut m = rng.next_u64();
                for c in 0..8 {
                    if rng.next_bool(0.5) {
                        m &= !(0xffu64 << (8 * c));
                    }
                }
                chunky.push(m);
            }
            masks.extend([random, sparse, chunky]);
        }
        masks
    }

    /// Both bulk row walks and both mask loops, on every path this CPU runs,
    /// against a naive per-lane update at the grid's word-boundary sizes and
    /// every lane width. `cross_lane_parity_grid` reaches only the path
    /// `simd::available()` picks, so without this an AVX-512 host never
    /// runs the portable loops and any other host never runs the AVX-512
    /// ones.
    #[test]
    fn tier_parity_bulk_row_walks() {
        let paths = RowWalk::available("tier_parity_bulk_row_walks");
        let mut rng = Xorshift64Star::new(0xB01C);
        for n in [63usize, 64, 65, 129] {
            for lanes in [64usize, 128, 192, 256] {
                let wpv = lanes / 64;
                let x: Vec<u64> = (0..n * wpv).map(|_| rng.next_u64()).collect();
                let delta: Vec<i64> = (0..n * lanes)
                    .map(|_| rng.next_range_i64(-1000, 1000))
                    .collect();
                for density in [0.05, 0.5, 0.95] {
                    let i = rng.next_index(n);
                    let mut row = Vec::new();
                    for j in (0..n).filter(|&j| j != i) {
                        if rng.next_bool(density) {
                            row.push((j, rng.next_range_i64(-9, 9)));
                        }
                    }
                    for accept in accept_masks(wpv, &mut rng) {
                        let mut want = delta.clone();
                        for &(j, w) in &row {
                            for l in 0..lanes {
                                let (word, bit) = (l >> 6, l & 63);
                                if (accept[word] >> bit) & 1 == 1 {
                                    let differ =
                                        ((x[i * wpv + word] ^ x[j * wpv + word]) >> bit) & 1;
                                    want[j * lanes + l] += if differ == 1 { -w } else { w };
                                }
                            }
                        }
                        for &path in &paths {
                            let mut got = delta.clone();
                            path.apply_row(&x, i, &accept, &mut got, &row);
                            assert_eq!(
                                got, want,
                                "{path:?} n={n} lanes={lanes} density={density} accept={accept:x?}"
                            );
                        }
                    }
                }
                // Gains and thresholds from a narrow range tie often, and
                // the extremes pin the signed compare.
                let pick = |rng: &mut Xorshift64Star| match rng.next_index(8) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.next_range_i64(-3, 3),
                };
                for _ in 0..8 {
                    let d: Vec<i64> = (0..lanes).map(|_| pick(&mut rng)).collect();
                    let t: Vec<i64> = (0..lanes).map(|_| pick(&mut rng)).collect();
                    let mut want = vec![0u64; wpv];
                    for l in 0..lanes {
                        want[l >> 6] |= u64::from(d[l] <= t[l]) << (l & 63);
                    }
                    for &path in &paths {
                        let mut got = vec![!0u64; wpv];
                        path.accept_mask_le(&d, &t, &mut got);
                        assert_eq!(got, want, "{path:?} lanes={lanes}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_accept_mask_is_a_no_op() {
        let q = random_model(30, 0.5, 5);
        let mut bs = BatchState::new(CsrKernel::new(&q), 64);
        let before = bs.clone();
        assert_eq!(bs.step(7, &[0u64]), 0);
        assert_eq!(bs.energies(), before.energies());
        assert_eq!(bs.flips(), 0);
        for i in 0..30 {
            assert_eq!(bs.deltas_of(i), before.deltas_of(i));
        }
    }

    #[test]
    fn argmin_lane_tracks_current_energy() {
        let q = random_model(20, 0.6, 6);
        let mut bs = BatchState::new(CsrKernel::new(&q), 64);
        let mut rng = Xorshift64Star::new(17);
        let mut best = (0usize, i64::MAX);
        for l in 0..64 {
            let sol = Solution::random(20, &mut rng);
            bs.seed_lane(l, &sol);
            let e = q.energy(&sol);
            if e < best.1 {
                best = (l, e);
            }
        }
        assert_eq!(bs.argmin_lane(), best);
    }
}
