//! Geometric gaps for RandomMin's candidate walk, [`GAP_LANES`] draws at a
//! time.
//!
//! RandomMin (`dabs_search::random_min`) makes every bit a candidate with
//! probability `p` by skipping `⌊ln u / ln(1 − p)⌋` indices between
//! candidates, one uniform draw `u` per gap. [`GeometricGaps::fill`] turns a
//! block of raw 53-bit draws into exactly those integers: one branch-free
//! pass, run as the CPU's instruction-set tier clone (`isa::gap_pass`),
//! estimates every lane at once, and each lane the estimate cannot call
//! takes the libm expression verbatim.
//!
//! The pass is bound by how many estimates the core overlaps, not by the
//! generator: each lane is one long dependent chain (the conversion, a
//! division, the series, the floor), and 32 independent chains per pass
//! halve the cost per draw where 8 gain only 4–14% (16 ran slower than 32,
//! 64 no faster outside n = 480).

use crate::isa::{self, Tier};
use dabs_rng::unit_f64;
use std::f64::consts::LN_2;

/// Draws per pass, and the size of RandomMin's draw block.
pub const GAP_LANES: usize = 32;

/// Budget for the estimate's absolute error in `ln u`: over 100× the
/// proven bound (series truncation < 3·10⁻⁸, rounding < 10⁻¹³).
const EST_ERR: f64 = 4e-6;
/// Budget for the relative rounding of both quotients: the old path's
/// (libm `ln` ≤ 1 ulp, then the division: < 1.5·2⁻⁵²) plus the new path's
/// (`1/ln q`, then the product: < 2·2⁻⁵³) is below 2⁻⁵⁰.
const ROUND_REL: f64 = 1.0 / (1u64 << 48) as f64;
/// `|ln u|` for the smallest nonzero draw, `u = 2⁻⁵³`: every quotient the
/// estimate sees is at most this over `|ln q|`.
const LN_U_MAX: f64 = 53.0 * LN_2;
/// Bits of `√½`, where `ln_estimate` splits the exponent.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
const MANTISSA: u64 = (1 << 52) - 1;
/// `1.5·2⁵²`: for `|y| < 2⁵¹`, `y + ROUND` lands in `[2⁵², 2⁵³)`, where
/// the float spacing is 1, so the sum is `y` rounded to the nearest
/// integer, plus `ROUND`, exactly.
const ROUND: f64 = 6_755_399_441_055_744.0;
const ROUND_BITS: u64 = 0x4338_0000_0000_0000;

/// Geometric(`p`) gaps between RandomMin candidates, built once per `p`:
/// the number of indices skipped before the next candidate.
///
/// [`Self::fill`] returns exactly the gap RandomMin has always computed,
/// `gap_ln``(u, p) = ⌊ln u / ln q⌋` with `q = 1 − p`, from the same
/// draw. The per-lane contract that keeps every gap, candidate and flip
/// identical:
///
/// * **Same draw.** `next_f64()` is `unit_f64(next_u53())`. The pass reads
///   the 53-bit integer `m` and maps it the same way through `i64` (exact
///   below 2⁵³), so `u = m·2⁻⁵³` exactly: one draw per gap.
/// * **Gap 0.** If `m ≥ ⌈q(1 + 2⁻³⁰)·2⁵³⌉`, then `ln u ≥ ln q + 2⁻³²`.
///   With `|ln q| ≤ 53 ln 2` (`q ≥ 2⁻⁵³`), the old quotient stays below
///   `1 − 2⁻³⁹` through its own rounding, so its floor is 0. One integer
///   compare decides it.
/// * **Estimate.** Otherwise split `u = 2ᵏ·f` with `f ∈ [√½, √2)`. With
///   `r = f − 1` (exact) and `s = r/(2 + r)`, `ln f = 2 atanh s`, and the
///   odd series through `s⁷` errs by at most `2|s|⁹/(9(1 − s²)) < 3·10⁻⁸`
///   since `|s| ≤ 3 − 2√2`. Then `y = (k ln 2 + ln f) · (1/ln q)`, which
///   is positive (the estimate of `ln u < 0` is negative).
/// * **Tolerance.** The floor of `y` is accepted only when `y` is farther
///   than `tol` from every integer. `tol·|ln q|` covers the estimate's
///   error (`EST_ERR`), plus the old path's rounding (≈ 2⁻⁵⁰·y) and the
///   new path's (≈ 2⁻⁵²·y) at `ROUND_REL``·y`; since `y ≤ 53 ln 2/|ln q|`
///   for `m ≥ 1`, those `y` terms fold into one constant per `p`.
/// * **Floor.** Adding and subtracting `1.5·2⁵²` rounds `y` to the nearest
///   integer exactly when `|y| < 2⁵¹`, which `tol < 0.25` implies
///   (`y ≤ 53 ln 2/|ln q| < 2.3·10⁶`); one compare steps it down to the
///   floor. The integer is the sum's bits less `1.5·2⁵²`'s, so no lane
///   takes the saturating `as i64` that keeps a loop scalar.
/// * **Fallback.** Lanes too close to call, and `m = 0` (which the old
///   code clamps to `f64::MIN_POSITIVE`), evaluate the old expression
///   verbatim on the same `u` in the cold `gap_ln`: about one draw in
///   10³ at `p = 1/128` and one in 10⁴ at `p = 1/15`, fewer as `p` grows.
///
/// Where those bounds cannot hold (`q` rounds to 1, so `ln q = 0`, or the
/// band would cover half the unit interval), every draw takes the
/// fallback.
#[derive(Debug, Clone, Copy)]
pub struct GeometricGaps {
    p: f64,
    /// Smallest 53-bit draw whose gap is certainly 0 (`i64::MAX`: none).
    zero_min: i64,
    inv_ln_q: f64,
    /// The estimate's floor stands when `|frac(y) − ½| < half_band`, i.e.
    /// `frac(y) ∈ (tol, 1 − tol)`; negative when the estimate is off.
    half_band: f64,
}

impl GeometricGaps {
    /// The gaps of probability `p ≤ 1` (at `p = 1` every gap is 0, and
    /// RandomMin draws nothing there).
    pub fn new(p: f64) -> Self {
        let q = 1.0 - p;
        let ln_q = q.ln();
        let tol = (EST_ERR + ROUND_REL * LN_U_MAX) / -ln_q;
        // `ln_q < 0` rejects q ≥ 1 and NaN; `tol < 0.25` keeps every y
        // inside the exact range of the floor.
        let fast = ln_q < 0.0 && tol < 0.25;
        let two_53 = (1u64 << 53) as f64;
        let zero_min = (q * (1.0 + 1.0 / (1u64 << 30) as f64) * two_53).ceil();
        Self {
            p,
            zero_min: if fast {
                zero_min.min(two_53) as i64
            } else {
                i64::MAX
            },
            inv_ln_q: 1.0 / ln_q,
            half_band: if fast { 0.5 - tol } else { -1.0 },
        }
    }

    /// The probability these gaps were built for.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Write into `gaps[l]` the gap of the 53-bit draw `draws[l]` (each
    /// below 2⁵³, as `Rng64::next_u53` returns them) for every lane, each
    /// equal to `gap_ln` on `unit_f64(draws[l])`. Returns the mask of
    /// lanes the estimate declined (bit `l` for lane `l`), whose gaps came
    /// from `gap_ln` itself.
    pub fn fill(&self, draws: &[u64; GAP_LANES], gaps: &mut [usize; GAP_LANES]) -> u32 {
        let rejected = isa::gap_pass(Tier::detected(), self, draws, gaps);
        let mut left = rejected;
        while left != 0 {
            let lane = left.trailing_zeros() as usize;
            gaps[lane] = gap_ln(unit_f64(draws[lane]), self.p);
            left &= left - 1;
        }
        rejected
    }

    /// [`Self::fill`]'s pass: the body `isa::gap_pass` clones. Every lane
    /// runs the same branch-free chain; a declined lane gets gap 0 and its
    /// bit in the returned mask.
    #[inline(always)]
    pub(crate) fn pass_body(&self, draws: &[u64; GAP_LANES], gaps: &mut [usize; GAP_LANES]) -> u32 {
        let mut rejected = 0u32;
        for (lane, (&m, gap)) in draws.iter().zip(gaps.iter_mut()).enumerate() {
            let m = m as i64;
            let zero = m >= self.zero_min;
            let y = ln_estimate(m as f64 * (1.0 / (1u64 << 53) as f64)) * self.inv_ln_q;
            let (floor, k) = floor_exact(y);
            let frac = y - floor;
            let sure = ((frac - 0.5).abs() < self.half_band) & (m != 0);
            *gap = if sure & !zero { k as usize } else { 0 };
            rejected |= ((!sure & !zero) as u32) << lane;
        }
        rejected
    }
}

/// `⌊y⌋`, as a float and as an integer, for `|y| < 2⁵¹` (see
/// [`GeometricGaps`]); any other `y` gives some pair of values.
#[inline(always)]
fn floor_exact(y: f64) -> (f64, i64) {
    let sum = y + ROUND;
    let nearest = sum - ROUND;
    let above = nearest > y;
    let floor = if above { nearest - 1.0 } else { nearest };
    let k = (sum.to_bits().wrapping_sub(ROUND_BITS) as i64).wrapping_sub(above as i64);
    (floor, k)
}

/// `ln u` for a normal positive `u`, to within 3·10⁻⁸ (see
/// [`GeometricGaps`]).
#[inline(always)]
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
/// `f64::MIN_POSITIVE`. Kept verbatim, and cold: [`GeometricGaps::fill`]
/// calls it only for the lanes its estimate cannot call.
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

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::{Rng64, Xorshift64Star};

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
    fn the_floor_is_exact_across_the_accepted_range() {
        // The floor by 1.5·2⁵² against `f64::floor`, at integers, just
        // beside them, at halves, and up to the largest y an accepted lane
        // can hold (tol < 0.25 caps it near 2.3·10⁶) and beyond.
        let mut ys = vec![0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 1e6 + 0.5, 2.3e6, 1e15];
        for k in [1.0f64, 2.0, 3.0, 1023.0, 4097.0, 2.3e6, (1u64 << 50) as f64] {
            ys.extend([k, k.next_down(), k.next_up(), k + 0.5]);
        }
        for y in ys {
            assert_eq!(floor_exact(y), (y.floor(), y.floor() as i64), "y={y}");
        }
        assert_eq!(ROUND.to_bits(), ROUND_BITS);
    }
}
