//! The superseded selection paths, kept verbatim as reference
//! implementations.
//!
//! Before the segment-aggregate layer existed, every strategy re-scanned
//! the whole Δ array (often twice) to pick its next bit; before its gap
//! sampler, RandomMin called libm `ln` for every candidate gap
//! ([`random_min_ln`]). These functions preserve that code exactly, for
//! two jobs:
//!
//! * **parity** — `tests/solver_parity.rs` proves the production
//!   strategies produce bit-identical trajectories, best solutions, and
//!   flip counts against these paths under the same RNG streams;
//! * **measurement** — the bench suite's `scan_sweep` entry reports the
//!   strategy-level flips/s of the production path *relative to this
//!   one*, a machine-independent speedup that CI gates
//!   (`docs/BENCHMARKS.md`).
//!
//! Nothing in the production solvers calls into this module.

use crate::{cubic, TabuList};
use dabs_model::{BestTracker, IncrementalState, QuboKernel};
use dabs_rng::Rng64;

/// Full-scan argmin over the Δ array (the old `IncrementalState::min_delta`).
pub fn min_delta_scan<K: QuboKernel>(state: &IncrementalState<'_, K>) -> (usize, i64) {
    let deltas = state.deltas();
    let mut best = (0usize, deltas[0]);
    for (k, &d) in deltas.iter().enumerate().skip(1) {
        if d < best.1 {
            best = (k, d);
        }
    }
    best
}

/// [`crate::greedy`] with full-scan argmin selection.
pub fn greedy_scan<K: QuboKernel>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    max_flips: u64,
) -> u64 {
    let mut used = 0;
    best.observe(state);
    while used < max_flips {
        let (k, d) = min_delta_scan(state);
        if d >= 0 {
            break;
        }
        state.flip(k);
        tabu.record(k);
        used += 1;
        best.observe(state);
    }
    used
}

/// [`crate::max_min`] with two full Δ scans per flip (min/max/argmin pass,
/// then the reservoir pass).
pub fn max_min_scan<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    let t_max = total_flips;
    for t in 1..=t_max {
        let deltas = state.deltas();
        let mut min_d = deltas[0];
        let mut max_d = deltas[0];
        let mut argmin = 0usize;
        for (k, &d) in deltas.iter().enumerate().skip(1) {
            if d < min_d {
                min_d = d;
                argmin = k;
            }
            if d > max_d {
                max_d = d;
            }
        }
        best.observe_neighbor(state, argmin);

        let u = cubic((t_max - t) as f64 / t_max as f64);
        let upper = (1.0 - u) * min_d as f64 + u * max_d as f64;
        let span = upper - min_d as f64;
        let threshold = min_d as f64 + rng.next_f64() * span.max(0.0);

        let mut chosen = usize::MAX;
        let mut count = 0u64;
        for (k, &d) in state.deltas().iter().enumerate() {
            if (d as f64) <= threshold && !tabu.is_tabu(k) {
                count += 1;
                if rng.next_below(count) == 0 {
                    chosen = k;
                }
            }
        }
        let bit = if chosen == usize::MAX { argmin } else { chosen };
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
    }
    t_max
}

/// [`crate::positive_min`] with two full Δ scans per flip.
pub fn positive_min_scan<K: QuboKernel, R: Rng64 + ?Sized>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    for _ in 0..total_flips {
        let deltas = state.deltas();
        let mut posmin = i64::MAX;
        let mut argmin = 0usize;
        let mut min_d = deltas[0];
        for (k, &d) in deltas.iter().enumerate() {
            if d > 0 && d < posmin {
                posmin = d;
            }
            if d < min_d {
                min_d = d;
                argmin = k;
            }
        }
        best.observe_neighbor(state, argmin);

        let mut chosen = usize::MAX;
        let mut count = 0u64;
        for (k, &d) in state.deltas().iter().enumerate() {
            if d <= posmin && !tabu.is_tabu(k) {
                count += 1;
                if rng.next_below(count) == 0 {
                    chosen = k;
                }
            }
        }
        let bit = if chosen == usize::MAX { argmin } else { chosen };
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
    }
    total_flips
}

/// [`crate::cyclic_min`] with an element-wise window scan per flip.
pub fn cyclic_min_scan<K: QuboKernel>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    total_flips: u64,
) -> u64 {
    let n = state.n();
    let floor = crate::cyclicmin::WINDOW_FLOOR.min(n);
    let t_max = total_flips;
    let mut pos = 0usize;
    for t in 1..=t_max {
        let frac = cubic(t as f64 / t_max as f64);
        let width = ((frac * n as f64).ceil() as usize).clamp(floor, n);

        let mut arg = usize::MAX;
        let mut min_d = i64::MAX;
        let mut arg_any = usize::MAX;
        let mut min_any = i64::MAX;
        for off in 0..width {
            let k = (pos + off) % n;
            let d = state.delta(k);
            if d < min_any {
                min_any = d;
                arg_any = k;
            }
            if d < min_d && !tabu.is_tabu(k) {
                min_d = d;
                arg = k;
            }
        }
        let bit = if arg == usize::MAX { arg_any } else { arg };
        best.observe_neighbor(state, arg_any);
        state.flip(bit);
        tabu.record(bit);
        best.observe(state);
        pos = (pos + width) % n;
    }
    t_max
}

/// [`crate::random_min`] with a libm `ln` per candidate gap.
pub fn random_min_ln<K: QuboKernel, R: Rng64 + ?Sized>(
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

        // Geometric skipping over 0..n: next candidate index jumps by
        // 1 + floor(log(U)/log(1-p)).
        let mut arg = usize::MAX;
        let mut min_d = i64::MAX;
        let mut i = skip_ln(rng, p);
        while i < n {
            let d = state.delta(i);
            if d < min_d && !tabu.is_tabu(i) {
                min_d = d;
                arg = i;
            }
            i += 1 + skip_ln(rng, p);
        }
        // No usable candidate (empty sample or all tabu): retry with a
        // single uniformly random non-tabu bit so the flip count stays
        // exact.
        let bit = if arg == usize::MAX {
            crate::randommin::fallback_bit(state, tabu, rng)
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

/// Geometric(1-p) gap: number of indices skipped before the next candidate.
#[inline]
pub(crate) fn skip_ln<R: Rng64 + ?Sized>(rng: &mut R, p: f64) -> usize {
    if p >= 1.0 {
        return 0;
    }
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
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
    use crate::testutil::random_model;
    use dabs_rng::Xorshift64Star;

    #[test]
    fn min_delta_scan_agrees_with_segment_primitive() {
        let q = random_model(90, 0.3, 501);
        let mut st = dabs_model::IncrementalState::new(&q);
        let mut rng = Xorshift64Star::new(502);
        use dabs_rng::Rng64;
        for _ in 0..300 {
            st.flip(rng.next_index(90));
            let naive = min_delta_scan(&st);
            assert_eq!(st.min_delta(), naive);
        }
    }
}
