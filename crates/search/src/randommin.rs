//! RandomMin search (paper §III-A-5).
//!
//! At iteration `t` of `T`, every bit becomes a *candidate* independently
//! with probability `p(t) = max((t/T)³, c)` where `c = 32/n`; the candidate
//! with minimum gain is flipped. Early iterations sample few bits (diverse,
//! frequently uphill flips); late iterations sample nearly all bits
//! (converging to greedy) — the same annealing shape as MaxMin/CyclicMin
//! with a different randomisation.
//!
//! Candidates are drawn with geometric gap-skipping, so an iteration costs
//! `O(n·p(t))` expected rather than `O(n)` Bernoulli draws. Each gap is
//! `⌊ln u / ln(1 − p)⌋` for one uniform draw `u`; [`GapSampler`] returns
//! exactly that integer, draw for draw, while calling libm `ln` on only a
//! sliver of the draws.

use crate::{cubic, TabuList};
use dabs_model::{BestTracker, IncrementalState, QuboKernel};
use dabs_rng::{unit_f64, Rng64};
use std::f64::consts::LN_2;

/// Run RandomMin for `total_flips` flips. Returns the flips performed.
pub fn random_min<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    let n = state.n();
    let floor_p = (32.0 / n as f64).min(1.0);
    let t_max = total_flips;
    for t in 1..=t_max {
        let p = cubic(t as f64 / t_max as f64).max(floor_p).min(1.0);
        let gaps = GapSampler::new(p);

        // Geometric skipping over 0..n: next candidate index jumps by
        // 1 + gap.
        let mut arg = usize::MAX;
        let mut min_d = i64::MAX;
        let mut i = gaps.next(rng);
        while i < n {
            let d = state.delta(i);
            if d < min_d && !tabu.is_tabu(i) {
                min_d = d;
                arg = i;
            }
            i += 1 + gaps.next(rng);
        }
        // No usable candidate (empty sample or all tabu): retry with a
        // single uniformly random non-tabu bit so the flip count stays
        // exact.
        let bit = if arg == usize::MAX {
            fallback_bit(state, tabu, rng)
        } else {
            arg
        };
        if arg != usize::MAX {
            best.observe_neighbor(state, arg);
        }
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
    }
    t_max
}

/// Budget for the estimate's absolute error in `ln u`: over 100× the
/// proven bound (series truncation < 3·10⁻⁸, rounding < 10⁻¹³).
const EST_ERR: f64 = 4e-6;
/// Budget for the relative rounding of both quotients: the old path's
/// (libm `ln` ≤ 1 ulp, then the division: < 1.5·2⁻⁵²) plus the new path's
/// (`1/ln q`, then the product: < 2·2⁻⁵³) is below 2⁻⁵⁰.
const ROUND_REL: f64 = 1.0 / (1u64 << 48) as f64;
/// `|ln u|` for the smallest nonzero draw, `u = 2⁻⁵³`: every quotient the
/// fast path sees is at most this over `|ln q|`.
const LN_U_MAX: f64 = 53.0 * LN_2;
/// Bits of `√½`, where [`ln_estimate`] splits the exponent.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
const MANTISSA: u64 = (1 << 52) - 1;

/// Geometric(`p`) gaps between RandomMin candidates: the number of indices
/// skipped before the next one, built once per iteration.
///
/// It returns exactly the gap RandomMin has always computed,
/// [`gap_ln`]`(u, p) = ⌊ln u / ln q⌋` with `q = 1 − p`, from the same
/// draw. The contract that keeps every gap, candidate and flip identical:
///
/// * **Same draw.** `next_f64()` is `unit_f64(next_u53())`. The sampler
///   reads the 53-bit integer `m` and maps it the same way, so
///   `u = m·2⁻⁵³` exactly: one draw per gap, and none when `p ≥ 1`.
/// * **Gap 0.** If `m ≥ ⌈q(1 + 2⁻³⁰)·2⁵³⌉`, then `ln u ≥ ln q + 2⁻³²`.
///   With `|ln q| ≤ 53 ln 2` (`q ≥ 2⁻⁵³`), the old quotient stays below
///   `1 − 2⁻³⁹` through its own rounding, so its floor is 0. One integer
///   compare decides it.
/// * **Estimate.** Otherwise split `u = 2ᵏ·f` with `f ∈ [√½, √2)`. With
///   `r = f − 1` (exact) and `s = r/(2 + r)`, `ln f = 2 atanh s`, and the
///   odd series through `s⁷` errs by at most `2|s|⁹/(9(1 − s²)) < 3·10⁻⁸`
///   since `|s| ≤ 3 − 2√2`. Then `y = (k ln 2 + ln f) · (1/ln q)`.
/// * **Tolerance.** The floor of `y` is accepted only when `y` is farther
///   than `tol` from every integer. `tol·|ln q|` covers the estimate's
///   error ([`EST_ERR`]), plus the old path's rounding (≈ 2⁻⁵⁰·y) and the
///   new path's (≈ 2⁻⁵²·y) at [`ROUND_REL`]`·y`; since `y ≤ 53 ln 2/|ln q|`
///   for `m ≥ 1`, those `y` terms fold into one constant per iteration.
/// * **Fallback.** Draws too close to call, and `m = 0` (which the old
///   code clamps to `f64::MIN_POSITIVE`), evaluate the old expression
///   verbatim on the same `u` in the cold [`gap_ln`]: about one draw in
///   10³ at `p = 1/128` and one in 10⁴ at `p = 1/15`, fewer as `p` grows.
/// * **Floor.** An accepted `y` is positive, so truncation is its floor:
///   no libm `floor` (baseline x86-64 has no `roundsd`).
///
/// Where those bounds cannot hold (`q` rounds to 1, so `ln q = 0`, or the
/// band would cover half the unit interval), every draw takes the
/// fallback.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapSampler {
    p: f64,
    /// `p ≥ 1`: every index is a candidate and no draw is made.
    certain: bool,
    /// Smallest 53-bit draw whose gap is certainly 0 (`u64::MAX`: none).
    zero_min: u64,
    inv_ln_q: f64,
    /// The estimate's floor stands when `|frac(y) − ½| < half_band`, i.e.
    /// `frac(y) ∈ (tol, 1 − tol)`; negative when the estimate is off.
    half_band: f64,
}

impl GapSampler {
    pub(crate) fn new(p: f64) -> Self {
        let q = 1.0 - p;
        let ln_q = q.ln();
        let tol = (EST_ERR + ROUND_REL * LN_U_MAX) / -ln_q;
        // `ln_q < 0` rejects q ≥ 1 and NaN; the y bound keeps truncation
        // exact in an i64 with room to spare.
        let fast = ln_q < 0.0 && tol < 0.25 && LN_U_MAX / -ln_q < (1u64 << 52) as f64;
        let two_53 = (1u64 << 53) as f64;
        let zero_min = (q * (1.0 + 1.0 / (1u64 << 30) as f64) * two_53).ceil();
        Self {
            p,
            certain: p >= 1.0,
            zero_min: if fast {
                zero_min.min(two_53) as u64
            } else {
                u64::MAX
            },
            inv_ln_q: 1.0 / ln_q,
            half_band: if fast { 0.5 - tol } else { -1.0 },
        }
    }

    /// The next gap, drawing one 53-bit number unless `p ≥ 1`.
    #[inline]
    pub(crate) fn next<R: Rng64 + ?Sized>(&self, rng: &mut R) -> usize {
        if self.certain {
            return 0;
        }
        let m = rng.next_u53();
        match self.fast_gap(m) {
            Some(g) => g,
            None => gap_ln(unit_f64(m), self.p),
        }
    }

    /// The gap for draw `m` when the fast path can call it exactly; `None`
    /// sends the draw to [`gap_ln`].
    #[inline]
    fn fast_gap(&self, m: u64) -> Option<usize> {
        if m >= self.zero_min {
            return Some(0);
        }
        if m == 0 {
            return None;
        }
        let y = ln_estimate(unit_f64(m)) * self.inv_ln_q;
        let k = y as i64;
        let frac = y - k as f64;
        // A negative y truncates up and leaves frac ≤ 0, so an accepted k
        // is never negative.
        ((frac - 0.5).abs() < self.half_band).then_some(k as usize)
    }
}

/// `ln u` for a normal positive `u`, to within 3·10⁻⁸ (see
/// [`GapSampler`]).
#[inline]
fn ln_estimate(u: f64) -> f64 {
    // Offsetting the bits by √½'s makes the exponent roll over at √2
    // instead of 2: u = 2^k · f with f in [√½, √2).
    let ix = u.to_bits().wrapping_sub(SQRT_HALF_BITS);
    let k = ((ix as i64) >> 52) as f64;
    let f = f64::from_bits((ix & MANTISSA) + SQRT_HALF_BITS);
    let r = f - 1.0;
    let s = r / (2.0 + r);
    let z = s * s;
    let ln_f = 2.0 * s * (1.0 + z * (1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0))));
    k * LN_2 + ln_f
}

/// The gap as RandomMin has always computed it, on the draw `u`
/// (`next_f64()`): `⌊ln u / ln(1 − p)⌋` with `u = 0` clamped to
/// `f64::MIN_POSITIVE`. Kept verbatim, and cold: [`GapSampler`] calls it
/// only for the draws its estimate cannot call.
#[cold]
#[inline(never)]
fn gap_ln(u: f64, p: f64) -> usize {
    let u = u.max(f64::MIN_POSITIVE);
    let g = (u.ln() / (1.0 - p).ln()).floor();
    if g >= usize::MAX as f64 {
        usize::MAX
    } else {
        g as usize
    }
}

/// Uniformly random bit, preferring non-tabu ones.
pub(crate) fn fallback_bit<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &IncrementalState<'_, K>,
    tabu: &TabuList,
    rng: &mut R,
) -> usize {
    let n = state.n();
    for _ in 0..8 {
        let k = rng.next_index(n);
        if !tabu.is_tabu(k) {
            return k;
        }
    }
    rng.next_index(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::skip_ln;
    use crate::testutil::{brute_force_optimum, random_model};
    use dabs_rng::Xorshift64Star;
    use proptest::prelude::*;

    #[test]
    fn performs_requested_flips_and_stays_consistent() {
        let q = random_model(64, 0.2, 61);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(64);
        let mut tabu = TabuList::new(64, 8);
        let mut rng = Xorshift64Star::new(62);
        let used = random_min(&mut st, &mut best, &mut tabu, &mut rng, 777);
        assert_eq!(used, 777);
        assert_eq!(st.flips(), 777);
        st.assert_consistent();
    }

    #[test]
    fn finds_optimum_of_small_model() {
        let q = random_model(13, 0.6, 63);
        let opt = brute_force_optimum(&q);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(13);
        let mut tabu = TabuList::new(13, 4);
        let mut rng = Xorshift64Star::new(64);
        random_min(&mut st, &mut best, &mut tabu, &mut rng, 6_000);
        assert_eq!(best.energy(), opt);
    }

    #[test]
    fn geometric_skip_mean_matches_probability() {
        // E[gap] = (1-p)/p; sample mean over many draws should be close.
        let mut rng = Xorshift64Star::new(65);
        let p = 0.2;
        let gaps = GapSampler::new(p);
        let trials = 50_000;
        let total: usize = (0..trials).map(|_| gaps.next(&mut rng)).sum();
        let mean = total as f64 / trials as f64;
        let expect = (1.0 - p) / p;
        assert!(
            (mean - expect).abs() < 0.15,
            "mean gap {mean}, expected {expect}"
        );
    }

    #[test]
    fn skip_handles_p_one() {
        let mut rng = Xorshift64Star::new(66);
        let untouched = rng;
        assert_eq!(GapSampler::new(1.0).next(&mut rng), 0);
        assert_eq!(rng, untouched, "p = 1 draws nothing");
    }

    #[test]
    fn late_iterations_approach_greedy() {
        // At t = T, p = 1, so the flip must be the global (non-tabu) argmin.
        let q = random_model(30, 0.4, 67);
        let mut st = IncrementalState::new(&q);
        let mut tabu = TabuList::new(30, 0);
        let mut rng = Xorshift64Star::new(68);
        // run T-1 of T flips manually via the public fn on a clone, then
        // check: single-iteration call with t_max = 1 gives p = 1 → argmin.
        let (argmin, _) = st.min_delta();
        let mut best = BestTracker::unbounded(30);
        random_min(&mut st, &mut best, &mut tabu, &mut rng, 1);
        assert_eq!(st.flips(), 1);
        // starting from the zero vector, the flipped bit must now be 1
        assert!(st.bit(argmin), "p=1 iteration must flip the global argmin");
    }

    // -- Gap exactness: the sampler against the reference `ln` gap --------

    /// An RNG whose every raw draw is one fixed value: feeds both gap
    /// paths the same chosen 53-bit draw through their real entry points.
    struct Fixed(u64);

    impl Rng64 for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Compare both paths on the 53-bit draw `m`; returns whether the
    /// fallback had to call it.
    fn gap_matches(p: f64, m: u64) -> bool {
        let gaps = GapSampler::new(p);
        // Low bits are dropped by the 53-bit draw; set some to show it.
        let raw = (m << 11) | 0x5A5;
        let new = gaps.next(&mut Fixed(raw));
        let old = skip_ln(&mut Fixed(raw), p);
        assert_eq!(new, old, "p={p:e} m={m}");
        gaps.fast_gap(m).is_none()
    }

    /// Same-seed streams: every gap equal, and both RNGs left at the same
    /// position. Returns the fallback count.
    fn stream_matches(p: f64, seed: u64, draws: usize) -> usize {
        let gaps = GapSampler::new(p);
        let mut a = Xorshift64Star::new(seed);
        let mut b = a;
        let mut probe = a;
        let mut fallbacks = 0;
        for d in 0..draws {
            if !gaps.certain && gaps.fast_gap(probe.next_u53()).is_none() {
                fallbacks += 1;
            }
            assert_eq!(gaps.next(&mut a), skip_ln(&mut b, p), "p={p:e} draw {d}");
        }
        assert_eq!(a, b, "p={p:e}: RNG position");
        fallbacks
    }

    /// Every `p` the cubic schedule gives an n-bit model on a leg of
    /// `⌈0.1·n⌉` flips, as `random_min` computes it.
    fn schedule(n: usize) -> Vec<f64> {
        let floor_p = (32.0 / n as f64).min(1.0);
        let t_max = (n as u64).div_ceil(10);
        (1..=t_max)
            .map(|t| cubic(t as f64 / t_max as f64).max(floor_p).min(1.0))
            .collect()
    }

    #[test]
    fn gap_matches_reference_at_every_schedule_p() {
        let mut fallbacks = 0;
        let mut draws = 0;
        for n in [9usize, 31, 32, 33, 81, 200, 224, 300, 480, 800, 4096] {
            for (t, p) in schedule(n).into_iter().enumerate() {
                fallbacks += stream_matches(p, 0x6A9 ^ ((n as u64) << 16) ^ t as u64, 2_000);
                draws += 2_000;
            }
        }
        assert!(fallbacks * 100 < draws, "{fallbacks} of {draws} fell back");
    }

    #[test]
    fn gap_matches_reference_over_200k_draws_per_p() {
        for p in [
            1e-6, 1e-4, 0.0078125, 0.04, 0.0667, 0.1, 0.16, 0.25, 0.395, 0.5, 0.75, 0.9, 0.999, 1.0,
        ] {
            stream_matches(p, p.to_bits(), 200_000);
        }
    }

    #[test]
    fn gap_matches_reference_on_adversarial_draws() {
        // The draws on and beside a gap boundary: u = ⌊q^k·2⁵³⌋·2⁻⁵³ is
        // where ln u / ln q crosses the integer k, so the estimate must not
        // call it and the fallback must.
        let two_53 = (1u64 << 53) as f64;
        let mut fallbacks = 0usize;
        let mut ps: Vec<f64> = [9usize, 33, 81, 224, 480, 4096]
            .into_iter()
            .flat_map(schedule)
            .collect();
        ps.extend([1e-9, 1e-5, 0.5, 0.999_999]);
        for p in ps {
            assert!(gap_matches(p, 0) || p >= 1.0, "m = 0 is the clamped draw");
            for m in [1, (1 << 53) - 1] {
                fallbacks += gap_matches(p, m) as usize;
            }
            let q = 1.0 - p;
            let estimating = GapSampler::new(p).half_band > 0.0;
            for k in 1..=64 {
                let qk = q.powi(k);
                let edge = (qk * two_53) as u64;
                for delta in -2i64..=2 {
                    let m = edge.saturating_add_signed(delta).min((1 << 53) - 1);
                    let fell_back = gap_matches(p, m);
                    fallbacks += fell_back as usize;
                    // y sits within 2⁻³³/|ln q| of k here, far inside the
                    // band: the fast path must have declined it.
                    if estimating && delta == 0 && qk >= 1.0 / (1u64 << 20) as f64 {
                        assert!(fell_back, "p={p:e} k={k}: boundary draw not sent to ln");
                    }
                }
            }
        }
        assert!(fallbacks > 0);
    }

    #[test]
    fn estimate_error_is_inside_its_proven_bound() {
        // The tolerance budget (EST_ERR) is > 100× this bound; the test
        // shows the bound itself holds on a spread of draws.
        let mut rng = Xorshift64Star::new(0xE57);
        let mut worst = 0.0f64;
        for _ in 0..200_000 {
            let u = unit_f64(rng.next_u53().max(1));
            worst = worst.max((ln_estimate(u) - u.ln()).abs());
        }
        for m in [1u64, 2, 3, (1 << 52) - 1, 1 << 52, (1 << 53) - 1] {
            let u = unit_f64(m);
            worst = worst.max((ln_estimate(u) - u.ln()).abs());
        }
        assert!(worst < 3e-8, "estimate error {worst:e}");
    }

    #[test]
    fn degenerate_probabilities_take_the_fallback_everywhere() {
        // q rounds to 1 (ln q = 0) or the band would be too wide: the
        // estimate is off and every draw is the verbatim expression.
        for p in [1e-300, 1e-17, 1e-7] {
            let gaps = GapSampler::new(p);
            assert!(gaps.fast_gap(12_345).is_none(), "p={p:e}");
            assert!(gap_matches(p, 1 << 52), "p={p:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gap_matches_reference_for_random_p_and_seed(
            mantissa in 1u64..(1u64 << 53),
            scale in 0u32..24,
            seed in any::<u64>(),
        ) {
            // p = mantissa·2⁻⁵³ scaled down by 2^scale: log-spread over
            // [2⁻⁷⁶, 1), which covers the schedule's floor 32/n for every n
            // the solver takes and the degenerate range beyond it.
            let p = unit_f64(mantissa) / (1u64 << scale) as f64;
            stream_matches(p, seed, 2_000);
        }
    }
}
