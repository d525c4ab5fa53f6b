//! Incremental one-flip search state (the paper's §III-A).
//!
//! [`IncrementalState`] maintains, for a current vector `X`:
//!
//! * the energy `E(X)`,
//! * every one-flip gain `Δ_k(X) = E(f_k(X)) − E(X)`.
//!
//! After flipping bit `i`, the update rules are (paper Eqs. 4–5):
//!
//! ```text
//! Δ_k ← Δ_k + W_ik · σ(x_i) · σ(x_k)   for k ≠ i   (σ of the pre-flip x_i)
//! Δ_i ← −Δ_i
//! E   ← E + Δ_i(old)
//! ```
//!
//! so a flip costs `O(deg(i))` instead of the `O(n²)` direct evaluation.
//! Every search algorithm in `dabs-search` and every annealing baseline runs
//! on this state.
//!
//! The state is generic over a [`QuboKernel`] backend so the flip loop
//! monomorphizes per weight layout: [`CsrKernel`] (the default, and the only
//! choice before the backend layer existed) chases the mirrored CSR row of
//! the flipped bit, while [`crate::DenseKernel`] streams a padded dense row
//! in 64-column strips. Both produce bit-identical energies and deltas; the
//! backend only changes how fast they appear.
//!
//! On top of the Δ array the state maintains a lazy
//! [`SegmentAggregates`] layer (per-64-gain `min`/`max`, dirty-tracked by
//! the kernels — see [`crate::segments`]), which turns the selection
//! primitives every search strategy uses ([`IncrementalState::min_delta`],
//! [`IncrementalState::min_max_argmin`], [`IncrementalState::select_le`],
//! [`IncrementalState::window_argmin`], …) from `O(n)` re-scans into
//! `O(n/64 + dirty)` reductions (plus a branch-free 64-lane pass over each
//! segment an aggregate cannot settle for a threshold selection), while
//! keeping their results **bit-identical** to a sequential scan (same
//! tie-breaks, same reservoir-sampling RNG stream — the parity suite in
//! `tests/solver_parity.rs` enforces this against the reference scan path
//! in `dabs_search::reference`).

use crate::segments::{seg_count, seg_of, SegmentAggregates, SEG_SHIFT};
use crate::{CsrKernel, DenseKernel, QuboKernel, QuboModel, Solution};
use dabs_rng::Rng64;

/// Current solution, its energy, and all one-flip gains.
#[derive(Debug, Clone)]
pub struct IncrementalState<'m, K: QuboKernel = CsrKernel<'m>> {
    model: &'m QuboModel,
    kernel: K,
    x: Solution,
    energy: i64,
    delta: Vec<i64>,
    segs: SegmentAggregates,
    /// Scratch for the threshold selections: one candidate mask per
    /// segment (see [`IncrementalState::select_le`]), owned by the state
    /// so a selection allocates nothing.
    masks: Vec<u64>,
    flips: u64,
}

impl<'m> IncrementalState<'m, CsrKernel<'m>> {
    /// CSR-backed state from the all-zeros vector: `E = 0`, `Δ_k = W_kk`.
    pub fn new(model: &'m QuboModel) -> Self {
        Self::with_kernel(model, CsrKernel::new(model))
    }

    /// CSR-backed state from an arbitrary vector (`O(n + m)` single-pass
    /// initialisation).
    pub fn from_solution(model: &'m QuboModel, x: Solution) -> Self {
        Self::from_solution_with(model, CsrKernel::new(model), x)
    }
}

impl<'m> IncrementalState<'m, DenseKernel<'m>> {
    /// Dense-backed state from the all-zeros vector. Panics when `model`
    /// did not build dense storage (`KernelChoice::Dense`, or `Auto` on a
    /// dense instance).
    pub fn new_dense(model: &'m QuboModel) -> Self {
        Self::with_kernel(model, DenseKernel::new(model))
    }

    /// Dense-backed state from an arbitrary vector.
    pub fn from_solution_dense(model: &'m QuboModel, x: Solution) -> Self {
        Self::from_solution_with(model, DenseKernel::new(model), x)
    }
}

impl<'m, K: QuboKernel> IncrementalState<'m, K> {
    /// Start from the all-zeros vector on an explicit kernel:
    /// `E = 0`, `Δ_k = W_kk` — no weight pass needed.
    pub fn with_kernel(model: &'m QuboModel, kernel: K) -> Self {
        assert_eq!(kernel.n(), model.n(), "kernel/model size mismatch");
        Self {
            x: Solution::zeros(model.n()),
            energy: 0,
            delta: kernel.diag().to_vec(),
            segs: SegmentAggregates::all_dirty(model.n()),
            masks: vec![0; seg_count(model.n())],
            model,
            kernel,
            flips: 0,
        }
    }

    /// Start from an arbitrary vector on an explicit kernel. Uses the
    /// kernel's single-pass `O(n + m)` initialisation: energy and all `n`
    /// gains come out of one sweep over the stored weights (the old path
    /// swept them twice — once for `E(X)`, once more for the `Δ_k`).
    pub fn from_solution_with(model: &'m QuboModel, kernel: K, x: Solution) -> Self {
        assert_eq!(kernel.n(), model.n(), "kernel/model size mismatch");
        assert_eq!(x.len(), model.n(), "solution length mismatch");
        let mut delta = vec![0i64; model.n()];
        let energy = kernel.init(&x, &mut delta);
        Self {
            segs: SegmentAggregates::all_dirty(model.n()),
            masks: vec![0; seg_count(model.n())],
            model,
            kernel,
            x,
            energy,
            delta,
            flips: 0,
        }
    }

    /// The model this state evaluates.
    #[inline]
    pub fn model(&self) -> &'m QuboModel {
        self.model
    }

    /// Name of the kernel backend driving the flips.
    #[inline]
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.kernel_name()
    }

    /// Number of bits.
    #[inline]
    pub fn n(&self) -> usize {
        self.delta.len()
    }

    /// Current energy `E(X)`.
    #[inline]
    pub fn energy(&self) -> i64 {
        self.energy
    }

    /// Current vector.
    #[inline]
    pub fn solution(&self) -> &Solution {
        &self.x
    }

    /// Gain of flipping bit `k`.
    #[inline]
    pub fn delta(&self, k: usize) -> i64 {
        self.delta[k]
    }

    /// All gains (hot-path accessor for the scan-style algorithms).
    #[inline]
    pub fn deltas(&self) -> &[i64] {
        &self.delta
    }

    /// Value of bit `i`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        self.x.get(i)
    }

    /// Total flips applied to this state since creation (the paper counts
    /// search effort in flips; batch termination is `≥ b·n` flips).
    #[inline]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Lifetime lazy segment re-reductions performed by this state's
    /// aggregates (see [`SegmentAggregates::reductions`]).
    #[inline]
    pub fn seg_reductions(&self) -> u64 {
        self.segs.reductions()
    }

    /// Flip bit `i`, updating the energy, all gains, and the dirtied
    /// segment aggregates. Returns the new energy. `O(deg(i))` (dense
    /// backend: `O(n)` cheap contiguous lanes).
    pub fn flip(&mut self, i: usize) -> i64 {
        let d_i = self.delta[i];
        self.energy += d_i;
        // Δ_j += W_ij σ(x_i_pre) σ(x_j) for all j ≠ i — the backend's job,
        // which also reports (or inline-repairs) the segments it dirtied.
        self.kernel
            .apply_flip_seg(&self.x, i, &mut self.delta, &mut self.segs);
        self.delta[i] = -d_i;
        self.segs.update(i, d_i, -d_i);
        self.x.flip(i);
        self.flips += 1;
        self.energy
    }

    /// Bring both sides of the segment aggregates up to date
    /// (`O(dirty × 64)`, no-op when clean).
    #[inline]
    fn refresh(&mut self) {
        self.segs.refresh(&self.delta);
    }

    /// Bring only the min/argmin side up to date — what every min-bound
    /// primitive needs; max staleness is left for the (rarer) max readers.
    #[inline]
    fn refresh_min(&mut self) {
        self.segs.refresh_min(&self.delta);
    }

    /// Index of a minimum-gain bit and its gain (`argmin_k Δ_k`). Ties break
    /// to the lowest index, matching a sequential scan. `O(n/64 + dirty)`
    /// via the segment aggregates.
    pub fn min_delta(&mut self) -> (usize, i64) {
        self.refresh_min();
        let mut seg = 0usize;
        let mut mn = self.segs.min_of(0);
        for s in 1..self.segs.segments() {
            let m = self.segs.min_of(s);
            if m < mn {
                mn = m;
                seg = s;
            }
        }
        (self.segs.argmin_of(seg), mn)
    }

    /// `(min Δ, max Δ)` over all bits — used by MaxMin's threshold schedule.
    pub fn min_max_delta(&mut self) -> (i64, i64) {
        let (_, lo, hi) = self.min_max_argmin();
        (lo, hi)
    }

    /// `(argmin, min Δ, max Δ)` in one aggregate pass — the fused "pass 1"
    /// of the MaxMin-style strategies. The argmin ties break to the lowest
    /// index, exactly like the sequential scan it replaces.
    pub fn min_max_argmin(&mut self) -> (usize, i64, i64) {
        self.refresh();
        let mut seg = 0usize;
        let mut lo = self.segs.min_of(0);
        let mut hi = self.segs.max_of(0);
        for s in 1..self.segs.segments() {
            let m = self.segs.min_of(s);
            if m < lo {
                lo = m;
                seg = s;
            }
            let x = self.segs.max_of(s);
            hi = if x > hi { x } else { hi };
        }
        (self.segs.argmin_of(seg), lo, hi)
    }

    /// Smallest strictly positive gain, or `i64::MAX` when no gain is
    /// positive — PositiveMin's threshold. A segment whose min is positive
    /// resolves from the aggregate alone (its min *is* its smallest
    /// positive); every other segment is folded branch-free over its 64
    /// gains. At a local minimum of a sparse unit-weight instance (the
    /// G-set shapes) 91–100% of the segments hold a gain ≤ 0, many of them
    /// exactly 0, so this is an `O(n)` fold there, not `O(n/64)`.
    pub fn positive_min_delta(&mut self) -> i64 {
        self.refresh_min();
        self.segs.positive_min(&self.delta)
    }

    /// Reservoir-sample uniformly among `{k : Δ_k ≤ bound ∧ allowed(k)}` in
    /// index order. Each segment's candidates come as one branch-free
    /// 64-bit mask (empty, without reading a gain, when the segment's min
    /// exceeds the bound), and only candidates are tested and drawn for,
    /// so the RNG stream and the choice are bit-identical to a full
    /// sequential scan. Returns `None` when no candidate survives
    /// `allowed`.
    pub fn select_le<R: Rng64 + ?Sized>(
        &mut self,
        bound: i64,
        rng: &mut R,
        allowed: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        self.refresh_min();
        self.segs.le_masks(&self.delta, bound, &mut self.masks);
        reservoir(&self.masks, rng, allowed)
    }

    /// [`IncrementalState::select_le`] against a floating-point threshold
    /// (MaxMin's `d ~ Uniform[minΔ, D(t)]`), with the candidate test
    /// `(Δ_k as f64) ≤ bound` evaluated exactly as the scan did.
    pub fn select_le_f64<R: Rng64 + ?Sized>(
        &mut self,
        bound: f64,
        rng: &mut R,
        allowed: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        // While |bound| < 2⁵², `(d as f64) ≤ bound ⟺ d ≤ ⌊bound⌋` for
        // every i64 `d`, so the integer masks apply: an i64 with |d| ≤ 2⁵³
        // converts exactly, and an integer `d` is ≤ bound iff it is
        // ≤ ⌊bound⌋; one beyond ±2⁵³ converts to a value beyond ±2⁵³ (the
        // conversion is monotone and ±2⁵³ are representable), on the same
        // side of `bound` as `d` itself. The integer compare also keeps a
        // per-gain int→float conversion out of the mask loop.
        const EXACT: f64 = (1u64 << 52) as f64;
        if bound.abs() < EXACT {
            return self.select_le(bound.floor() as i64, rng, allowed);
        }
        // Beyond it (and for a NaN bound, which admits nothing) the masks
        // take the float test itself, in a scalar loop: conversion is
        // monotone, so a segment whose min fails it holds no candidate.
        self.refresh_min();
        self.segs.masks_by(
            &self.delta,
            &mut self.masks,
            |mn| (mn as f64) <= bound,
            |d| (d as f64) <= bound,
        );
        reservoir(&self.masks, rng, allowed)
    }

    /// Argmin over the cyclic window `[start, start + width)` (mod `n`),
    /// visited in window order — CyclicMin's selection. Returns
    /// `(allowed_argmin, unrestricted_argmin)`; the first is `usize::MAX`
    /// when `allowed` rejects the whole window. Both argmins break ties to
    /// the earliest window position, exactly like the element-wise sweep;
    /// whole segments inside the window are skipped when their aggregate
    /// min cannot improve either running minimum.
    pub fn window_argmin(
        &mut self,
        start: usize,
        width: usize,
        allowed: impl Fn(usize) -> bool,
    ) -> (usize, usize) {
        let n = self.n();
        debug_assert!(start < n && width >= 1 && width <= n);
        self.refresh_min();
        let mut arg = usize::MAX;
        let mut min_d = i64::MAX;
        let mut arg_any = usize::MAX;
        let mut min_any = i64::MAX;
        let scan_range = |lo: usize,
                          hi: usize,
                          arg: &mut usize,
                          min_d: &mut i64,
                          arg_any: &mut usize,
                          min_any: &mut i64| {
            let mut k = lo;
            while k < hi {
                let seg = seg_of(k);
                let (_, seg_hi) = self.segs.bounds(seg);
                let chunk_hi = seg_hi.min(hi);
                // A whole in-window segment whose min cannot beat the
                // allowed minimum cannot beat the unrestricted one either
                // (min_any ≤ min_d always) — skip it outright.
                if k == seg << SEG_SHIFT && chunk_hi == seg_hi && self.segs.min_of(seg) >= *min_d {
                    k = chunk_hi;
                    continue;
                }
                for j in k..chunk_hi {
                    let d = self.delta[j];
                    if d < *min_any {
                        *min_any = d;
                        *arg_any = j;
                    }
                    if d < *min_d && allowed(j) {
                        *min_d = d;
                        *arg = j;
                    }
                }
                k = chunk_hi;
            }
        };
        let end = start + width;
        if end <= n {
            scan_range(start, end, &mut arg, &mut min_d, &mut arg_any, &mut min_any);
        } else {
            scan_range(start, n, &mut arg, &mut min_d, &mut arg_any, &mut min_any);
            scan_range(0, end - n, &mut arg, &mut min_d, &mut arg_any, &mut min_any);
        }
        (arg, arg_any)
    }

    /// The best energy among all one-bit neighbours: `E(X) + min_k Δ_k`
    /// (Step 1 of the paper's incremental search algorithm). Returns
    /// `(bit, neighbour_energy)`.
    pub fn best_neighbor(&mut self) -> (usize, i64) {
        let (k, d) = self.min_delta();
        (k, self.energy + d)
    }

    /// Replace the current vector wholesale (`O(n + m)` single-pass
    /// re-init). Keeps the flip counter.
    pub fn reset_to(&mut self, x: Solution) {
        assert_eq!(x.len(), self.model.n());
        self.energy = self.kernel.init(&x, &mut self.delta);
        self.segs.mark_all();
        self.x = x;
    }

    /// Debug-build consistency check: recompute energy, all gains, and the
    /// segment aggregates from scratch — via the model's direct CSR
    /// evaluation, which is independent of the active kernel backend — and
    /// compare. Test helper; panics on divergence.
    pub fn assert_consistent(&mut self) {
        let e = self.model.energy(&self.x);
        assert_eq!(e, self.energy, "incremental energy diverged");
        assert_eq!(
            self.kernel.energy(&self.x),
            self.energy,
            "kernel energy diverged"
        );
        for i in 0..self.n() {
            assert_eq!(
                self.model.delta(&self.x, i),
                self.delta[i],
                "Δ_{i} diverged"
            );
        }
        self.refresh();
        self.segs.assert_matches(&self.delta);
    }
}

/// Reservoir-sample one index uniformly among the set bits of `masks`
/// (bit `k` of word `s` stands for gain `64·s + k`) that pass `allowed`.
///
/// Exactness: words are visited in ascending order and the bits of a word
/// from lowest to highest (`trailing_zeros`), which is index order.
/// `allowed(k)` is evaluated only on candidates and `next_below(count)`
/// drawn once per allowed candidate, so the draws and the choice are those
/// of the naive scan over every gain (`tests/props_model.rs`).
#[inline(always)]
fn reservoir<R: Rng64 + ?Sized>(
    masks: &[u64],
    rng: &mut R,
    allowed: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut chosen = None;
    let mut count = 0u64;
    for (s, &mask) in masks.iter().enumerate() {
        let mut bits = mask;
        while bits != 0 {
            let k = (s << SEG_SHIFT) | bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if allowed(k) {
                count += 1;
                if rng.next_below(count) == 0 {
                    chosen = Some(k);
                }
            }
        }
    }
    chosen
}

/// Tracks the best (lowest-energy) solution observed during a search,
/// including one-bit neighbours (the paper's `BEST` / `E(BEST)` registers
/// kept in shared memory, updated via `atomicMin`).
#[derive(Debug, Clone)]
pub struct BestTracker {
    best: Solution,
    best_energy: i64,
}

impl BestTracker {
    /// Start from an explicit solution/energy pair.
    pub fn new(solution: Solution, energy: i64) -> Self {
        Self {
            best: solution,
            best_energy: energy,
        }
    }

    /// Start "empty": any observation will replace it.
    pub fn unbounded(n: usize) -> Self {
        Self {
            best: Solution::zeros(n),
            best_energy: i64::MAX,
        }
    }

    /// Record the state's current vector if it improves the best.
    #[inline]
    pub fn observe<K: QuboKernel>(&mut self, state: &IncrementalState<'_, K>) {
        if state.energy() < self.best_energy {
            self.best_energy = state.energy();
            self.best = state.solution().clone();
        }
    }

    /// Record the state's best one-bit neighbour if it improves the best
    /// (Step 1 of the incremental search algorithm). Costs `O(n/64 + dirty)`
    /// for the aggregate argmin plus `O(n)` for the clone only when an
    /// improvement is found — the same "atomicMin rarely fires" argument as
    /// the paper's §V. Takes the state mutably because the argmin may
    /// refresh dirty segment aggregates.
    pub fn observe_neighborhood<K: QuboKernel>(&mut self, state: &mut IncrementalState<'_, K>) {
        let (k, e) = state.best_neighbor();
        if e < self.best_energy {
            let mut sol = state.solution().clone();
            sol.flip(k);
            self.best_energy = e;
            self.best = sol;
        }
        // the current point itself also counts
        self.observe(state);
    }

    /// Record the one-bit neighbour `f_k(X)` if it improves the best.
    /// Used by algorithms that already know their argmin bit, so the `O(n)`
    /// rescan of [`Self::observe_neighborhood`] is skipped.
    #[inline]
    pub fn observe_neighbor<K: QuboKernel>(&mut self, state: &IncrementalState<'_, K>, k: usize) {
        let e = state.energy() + state.delta(k);
        if e < self.best_energy {
            let mut sol = state.solution().clone();
            sol.flip(k);
            self.best_energy = e;
            self.best = sol;
        }
    }

    /// Record an explicit solution/energy pair (e.g. from another worker).
    #[inline]
    pub fn observe_value(&mut self, solution: &Solution, energy: i64) {
        if energy < self.best_energy {
            self.best_energy = energy;
            self.best = solution.clone();
        }
    }

    /// Best energy so far.
    #[inline]
    pub fn energy(&self) -> i64 {
        self.best_energy
    }

    /// Best solution so far.
    #[inline]
    pub fn solution(&self) -> &Solution {
        &self.best
    }

    /// Consume into `(solution, energy)`.
    pub fn into_parts(self) -> (Solution, i64) {
        (self.best, self.best_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuboBuilder;
    use dabs_rng::{Rng64, Xorshift64Star};

    fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = QuboBuilder::new(n);
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
    fn initial_state_matches_paper() {
        let q = random_model(20, 0.3, 1);
        let mut st = IncrementalState::new(&q);
        assert_eq!(st.energy(), 0);
        for i in 0..20 {
            assert_eq!(st.delta(i), q.diag(i));
        }
        st.assert_consistent();
    }

    #[test]
    fn flips_stay_consistent() {
        let q = random_model(30, 0.25, 2);
        let mut st = IncrementalState::new(&q);
        let mut rng = Xorshift64Star::new(3);
        for _ in 0..200 {
            st.flip(rng.next_index(30));
        }
        st.assert_consistent();
        assert_eq!(st.flips(), 200);
    }

    #[test]
    fn double_flip_is_identity() {
        let q = random_model(15, 0.4, 4);
        let mut st = IncrementalState::new(&q);
        let before_e = st.energy();
        let before_d: Vec<i64> = st.deltas().to_vec();
        st.flip(7);
        st.flip(7);
        assert_eq!(st.energy(), before_e);
        assert_eq!(st.deltas(), &before_d[..]);
    }

    #[test]
    fn flip_returns_new_energy() {
        let q = random_model(10, 0.5, 5);
        let mut st = IncrementalState::new(&q);
        let expect = st.energy() + st.delta(3);
        assert_eq!(st.flip(3), expect);
    }

    #[test]
    fn from_solution_matches_fresh_flips() {
        let q = random_model(25, 0.3, 6);
        let mut rng = Xorshift64Star::new(7);
        let x = Solution::random(25, &mut rng);
        let mut st = IncrementalState::from_solution(&q, x.clone());
        st.assert_consistent();
        assert_eq!(st.energy(), q.energy(&x));
    }

    #[test]
    fn min_delta_and_minmax() {
        let q = random_model(40, 0.2, 8);
        let mut rng = Xorshift64Star::new(9);
        let mut st = IncrementalState::from_solution(&q, Solution::random(40, &mut rng));
        let (k, d) = st.min_delta();
        assert_eq!(d, *st.deltas().iter().min().unwrap());
        assert_eq!(st.delta(k), d);
        let (lo, hi) = st.min_max_delta();
        assert_eq!(lo, d);
        assert_eq!(hi, *st.deltas().iter().max().unwrap());
    }

    #[test]
    fn best_neighbor_energy() {
        let q = random_model(12, 0.5, 10);
        let mut rng = Xorshift64Star::new(11);
        let mut st = IncrementalState::from_solution(&q, Solution::random(12, &mut rng));
        let (k, e) = st.best_neighbor();
        let mut y = st.solution().clone();
        y.flip(k);
        assert_eq!(q.energy(&y), e);
        // no neighbour beats it
        for i in 0..12 {
            let mut z = st.solution().clone();
            z.flip(i);
            assert!(q.energy(&z) >= e);
        }
    }

    #[test]
    fn reset_to_reinitialises() {
        let q = random_model(16, 0.4, 12);
        let mut rng = Xorshift64Star::new(13);
        let mut st = IncrementalState::new(&q);
        st.flip(0);
        st.flip(5);
        let y = Solution::random(16, &mut rng);
        st.reset_to(y.clone());
        assert_eq!(st.energy(), q.energy(&y));
        st.assert_consistent();
    }

    #[test]
    fn select_le_f64_beyond_2_pow_52_takes_the_float_test() {
        // Gains near ±2⁵⁴ do not all convert to f64 exactly, so past the
        // integer path the masks must apply `(Δ as f64) ≤ bound` itself,
        // rounding included, and draw exactly as the float scan does.
        let n = 130;
        let mut rng = Xorshift64Star::new(23);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            let big = (1i64 << 54) + rng.next_range_i64(-9, 9);
            b.add_linear(i, if rng.next_bool(0.5) { big } else { -big });
        }
        let q = b.build().unwrap();
        let st0 = IncrementalState::from_solution(&q, Solution::random(n, &mut rng));
        let edge = (1i64 << 54) as f64;
        for bound in [
            edge,
            edge + 4.0,
            -edge,
            -edge - 4.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let mut st = st0.clone();
            let allowed = |k: usize| !k.is_multiple_of(3);
            let mut fast_rng = Xorshift64Star::new(24);
            let mut scan_rng = Xorshift64Star::new(24);
            let fast = st.select_le_f64(bound, &mut fast_rng, allowed);
            let mut scan = None;
            let mut count = 0u64;
            for (k, &d) in st.deltas().iter().enumerate() {
                if (d as f64) <= bound && allowed(k) {
                    count += 1;
                    if scan_rng.next_below(count) == 0 {
                        scan = Some(k);
                    }
                }
            }
            assert_eq!(fast, scan, "bound {bound}");
            assert_eq!(fast_rng.next_u64(), scan_rng.next_u64(), "bound {bound}");
        }
    }

    #[test]
    fn best_tracker_observes_improvements() {
        let q = random_model(10, 0.5, 14);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(10);
        best.observe(&st);
        assert_eq!(best.energy(), 0);
        let mut rng = Xorshift64Star::new(15);
        let mut lowest = 0i64;
        for _ in 0..100 {
            st.flip(rng.next_index(10));
            best.observe(&st);
            lowest = lowest.min(st.energy());
        }
        assert_eq!(best.energy(), lowest);
        assert_eq!(q.energy(best.solution()), best.energy());
    }

    #[test]
    fn best_tracker_sees_one_bit_neighbours() {
        let q = random_model(10, 0.5, 16);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(10);
        best.observe_neighborhood(&mut st);
        let (_, e) = st.best_neighbor();
        assert_eq!(best.energy(), e.min(st.energy()));
        assert_eq!(q.energy(best.solution()), best.energy());
    }

    #[test]
    fn dense_model_consistency_walk() {
        let q = random_model(50, 1.0, 17);
        let mut st = IncrementalState::new(&q);
        let mut rng = Xorshift64Star::new(18);
        for step in 0..500 {
            st.flip(rng.next_index(50));
            if step % 97 == 0 {
                st.assert_consistent();
            }
        }
        st.assert_consistent();
    }

    #[test]
    fn single_pass_init_matches_the_old_two_pass_path() {
        // Regression for the `from_solution` rewrite: the single-pass
        // kernel init must equal the old reference computation — a full
        // `model.energy(&x)` sweep followed by n independent
        // `model.delta(&x, i)` evaluations — on both backends, across
        // densities and word-boundary sizes.
        for (n, density) in [(25, 0.05), (63, 0.3), (64, 0.95), (65, 0.5), (100, 1.0)] {
            let mut q = random_model(n, density, 600 + n as u64);
            q.select_kernel(crate::KernelChoice::Dense);
            let mut rng = Xorshift64Star::new(700 + n as u64);
            for _ in 0..5 {
                let x = Solution::random(n, &mut rng);
                let old_energy = q.energy(&x);
                let old_delta: Vec<i64> = (0..n).map(|i| q.delta(&x, i)).collect();
                let csr = IncrementalState::from_solution(&q, x.clone());
                assert_eq!(csr.energy(), old_energy, "csr energy n={n}");
                assert_eq!(csr.deltas(), &old_delta[..], "csr deltas n={n}");
                let dense = IncrementalState::from_solution_dense(&q, x.clone());
                assert_eq!(dense.energy(), old_energy, "dense energy n={n}");
                assert_eq!(dense.deltas(), &old_delta[..], "dense deltas n={n}");
            }
        }
    }

    #[test]
    fn dense_backed_state_walks_consistently() {
        let mut q = random_model(70, 0.8, 19);
        q.select_kernel(crate::KernelChoice::Dense);
        assert_eq!(q.kernel_kind(), crate::KernelKind::Dense);
        let mut st = IncrementalState::new_dense(&q);
        assert_eq!(st.kernel_name(), "dense");
        let mut rng = Xorshift64Star::new(20);
        for step in 0..400 {
            st.flip(rng.next_index(70));
            if step % 89 == 0 {
                st.assert_consistent();
            }
        }
        st.assert_consistent();
    }

    #[test]
    fn reset_to_reinitialises_dense_state() {
        let mut q = random_model(33, 0.7, 21);
        q.select_kernel(crate::KernelChoice::Dense);
        let mut rng = Xorshift64Star::new(22);
        let mut st = IncrementalState::new_dense(&q);
        st.flip(3);
        st.flip(17);
        let y = Solution::random(33, &mut rng);
        st.reset_to(y.clone());
        assert_eq!(st.energy(), q.energy(&y));
        st.assert_consistent();
    }
}
