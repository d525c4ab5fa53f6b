//! Instruction-set tiers for the scalar flip path.
//!
//! Six loops of the flip path run here. Five are plain integer loops: the
//! dense one-flip Δ update, the per-segment min/argmin and max
//! re-reductions, and the two selection folds (the per-segment
//! `Δ ≤ bound` candidate masks behind `select_le`, and the smallest
//! positive gain). The sixth is RandomMin's gap pass, 32 geometric gaps
//! per call in float lanes ([`GeometricGaps`]). Two loops of the bulk
//! kernel run here too: its accept-mask loop, and its branch-free row walk
//! only as the AVX2 clone. The AVX-512 tier walks bulk rows with a
//! hand-written loop and the portable tier with an accept-list loop
//! (`batch_kernel::apply_row`). The baseline
//! `x86_64` target is SSE2, which has no 64-bit compare, min, per-lane
//! variable shift or `i64` conversion, so they compile to scalar code
//! there. This module compiles each loop's one portable body (an
//! `#[inline(always)]` function) again as `#[target_feature]` clones for
//! AVX2 and AVX-512 and runs the clone of a tier detected once per
//! process, in the order AVX-512 > AVX2 > portable.
//!
//! Every clone is the same source, so every tier computes bit-identical
//! results and only the codegen differs. For the integer loops that is
//! plain. The gap pass's float lanes compute the same bits too: each is a
//! fixed sequence of IEEE-754 basic operations (add, subtract, multiply,
//! divide, compare, exact conversions), each correctly rounded alike in
//! scalar and vector form, and Rust never contracts a multiply and an add
//! into an FMA. The kernel parity contract holds on any host, and the
//! `tier_parity` tests below hold each clone to the portable body. Nothing
//! selects a tier but the CPU: there is no option, feature or build flag.

use crate::gaps::{GeometricGaps, GAP_LANES};
use crate::segments::SegmentAggregates;
use std::sync::OnceLock;

/// An instruction-set tier the running CPU supports. Detection
/// ([`Tier::detected`], and `Tier::available` in tests) and the
/// always-supported `Tier::PORTABLE` are the only ways to get one, so
/// holding a `Tier` proves its clones may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Tier(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Level {
    Portable,
    Avx2,
    Avx512,
}

impl Tier {
    /// Baseline codegen, which every CPU runs.
    #[cfg(test)]
    pub(crate) const PORTABLE: Tier = Tier(Level::Portable);

    /// The best tier of the running CPU, detected once per process.
    pub(crate) fn detected() -> Tier {
        static TIER: OnceLock<Tier> = OnceLock::new();
        *TIER.get_or_init(|| Tier(detect()))
    }

    /// Every tier the running CPU supports, lowest first. Each tier's
    /// feature set contains the one below it, so these are the tiers up to
    /// [`Tier::detected`].
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Tier> {
        let top = Tier::detected();
        [Level::Portable, Level::Avx2, Level::Avx512]
            .into_iter()
            .map(Tier)
            .filter(|&t| t <= top)
            .collect()
    }

    /// True for the AVX-512 tier, whose features (F, VL, DQ, BW) cover the
    /// bulk kernel's hand-written lane loops (F, DQ).
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn is_avx512(self) -> bool {
        self.0 == Level::Avx512
    }

    /// True for the AVX2 tier, where the bulk kernel walks its rows with
    /// the AVX2 clone of the branch-free walk.
    pub(crate) fn is_avx2(self) -> bool {
        self.0 == Level::Avx2
    }

    /// `avx512`, `avx2` or `portable`.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Level::Portable => "portable",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    use std::arch::is_x86_feature_detected as has;
    if !has!("avx2") {
        Level::Portable
    } else if has!("avx512f") && has!("avx512vl") && has!("avx512dq") && has!("avx512bw") {
        Level::Avx512
    } else {
        Level::Avx2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level::Portable
}

/// Define `$name(tier, args…)`, which runs `$body(args…)` compiled for
/// `tier` and returns its result. `$body` must be `#[inline(always)]`,
/// including everything it calls in its loops: each clone then compiles
/// its own copy with its own target features, where an out-of-line call
/// would run baseline code.
macro_rules! tiered {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;) => {
        $(#[$doc])*
        pub(crate) fn $name(tier: Tier, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw")]
                fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                match tier.0 {
                    Level::Avx512 => {
                        // SAFETY: a `Tier` names a tier the running CPU
                        // supports (see `Tier`), so its features are present.
                        return unsafe { avx512($($arg),*) };
                    }
                    Level::Avx2 => {
                        // SAFETY: as above.
                        return unsafe { avx2($($arg),*) };
                    }
                    Level::Portable => {}
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = tier;
            $body($($arg),*)
        }
    };
}

tiered! {
    /// The dense kernel's strip update (`DenseKernel::apply_flip`).
    fn dense_update(row: &[i32], words: &[u64], flip_mask: u64, delta: &mut [i64])
        = crate::kernel::dense_update_body;
}

// The bulk kernel runs only the AVX2 clone of this walk (see
// `batch_kernel::apply_row`).
tiered! {
    /// The bulk kernel's branch-free row walk
    /// (`batch_kernel::apply_row_branchless_body`).
    fn bulk_row_branchless(
        x: &[u64],
        wpv: usize,
        xi: &[u64],
        accept: &[u64],
        delta: &mut [i64],
        row: impl Iterator<Item = (usize, i64)>,
    ) = crate::batch_kernel::apply_row_branchless_body;
}

tiered! {
    /// The bulk kernel's accept-mask loop (`BatchState::accept_mask_le`).
    fn bulk_accept_mask(d: &[i64], thresholds: &[i64], out: &mut [u64])
        = crate::batch_kernel::accept_mask_le_body;
}

tiered! {
    /// [`SegmentAggregates::refresh_min`]'s loop over the min-dirty segments.
    fn refresh_min(segs: &mut SegmentAggregates, delta: &[i64])
        = SegmentAggregates::refresh_min_body;
}

tiered! {
    /// [`SegmentAggregates::refresh_max`]'s loop over the max-dirty segments.
    fn refresh_max(segs: &mut SegmentAggregates, delta: &[i64])
        = SegmentAggregates::refresh_max_body;
}

// The two selection loops are integer-only too, so every tier returns the
// same masks and the same minimum (`tier_parity_le_masks`,
// `tier_parity_positive_min`).
tiered! {
    /// The per-segment candidate masks `{k : Δ_k ≤ bound}` behind
    /// `IncrementalState::select_le`.
    fn le_masks(segs: &SegmentAggregates, delta: &[i64], bound: i64, masks: &mut [u64])
        = SegmentAggregates::le_masks_body;
}

tiered! {
    /// The smallest positive gain behind
    /// `IncrementalState::positive_min_delta`.
    fn positive_min(segs: &SegmentAggregates, delta: &[i64]) -> i64
        = SegmentAggregates::positive_min_body;
}

// The gap pass has float lanes, and every tier still returns the same gaps
// and the same declined-lane mask (`tier_parity_gap_pass`): see the module
// docs.
tiered! {
    /// RandomMin's block of geometric gaps behind [`GeometricGaps::fill`].
    fn gap_pass(
        gaps: &GeometricGaps,
        draws: &[u64; GAP_LANES],
        out: &mut [usize; GAP_LANES],
    ) -> u32 = GeometricGaps::pass_body;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::{seg_count, SEG_WIDTH};
    use dabs_rng::{Rng64, Xorshift64Star};

    /// Word-boundary sizes around one and two segments, partial last
    /// segments, and the K2000-like n = 800.
    const SIZES: [usize; 14] = [1, 7, 8, 9, 63, 64, 65, 81, 96, 127, 128, 129, 224, 800];

    /// The vector tiers this CPU runs. Prints which tiers ran and notes
    /// each one the CPU lacks (run with `--nocapture` to see it).
    fn vector_tiers(test: &str) -> Vec<Tier> {
        let tiers = Tier::available();
        let names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
        println!("{test}: tiers run: {names:?}");
        for lacked in ["avx2", "avx512"] {
            if !names.contains(&lacked) {
                println!("{test}: CPU lacks {lacked}; its clone is skipped");
            }
        }
        tiers.into_iter().filter(|&t| t != Tier::PORTABLE).collect()
    }

    #[test]
    fn tier_parity_detection_is_stable_and_ordered() {
        let tiers = Tier::available();
        assert_eq!(tiers.first(), Some(&Tier::PORTABLE));
        assert_eq!(tiers.last(), Some(&Tier::detected()));
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(crate::simd_tier(), Tier::detected().name());
    }

    #[test]
    fn tier_parity_dense_update() {
        let tiers = vector_tiers("tier_parity_dense_update");
        let mut rng = Xorshift64Star::new(0x5eed);
        for n in SIZES {
            let words_len = n.div_ceil(SEG_WIDTH);
            // Random weights, with the extremes of the 32-bit lanes spread
            // over every lane position: `i32::MIN` must negate exactly.
            let row: Vec<i32> = (0..words_len * SEG_WIDTH)
                .map(|j| match j % 7 {
                    0 => i32::MIN,
                    3 => i32::MAX,
                    _ => rng.next_range_i64(-(1 << 20), 1 << 20) as i32,
                })
                .collect();
            let words: Vec<u64> = (0..words_len).map(|_| rng.next_u64()).collect();
            let delta: Vec<i64> = (0..n)
                .map(|_| rng.next_range_i64(-(1 << 40), 1 << 40))
                .collect();
            for flip_mask in [0, !0u64] {
                let mut want = delta.clone();
                dense_update(Tier::PORTABLE, &row, &words, flip_mask, &mut want);
                for (j, (&w, &d)) in want.iter().zip(&delta).enumerate() {
                    let neg = ((words[j >> 6] ^ flip_mask) >> (j & 63)) & 1 == 1;
                    let wj = i64::from(row[j]);
                    assert_eq!(w, d + if neg { -wj } else { wj }, "n={n} j={j}");
                }
                for &tier in &tiers {
                    let mut got = delta.clone();
                    dense_update(tier, &row, &words, flip_mask, &mut got);
                    assert_eq!(got, want, "{} n={n} mask={flip_mask:#x}", tier.name());
                }
            }
        }
    }

    /// Δ arrays that stress the reductions' tie-breaks and extremes.
    fn adversarial_deltas(n: usize, rng: &mut Xorshift64Star) -> Vec<(&'static str, Vec<i64>)> {
        vec![
            (
                "random",
                (0..n).map(|_| rng.next_range_i64(-500, 500)).collect(),
            ),
            ("all lanes equal", vec![7; n]),
            (
                "min only at lane 63",
                (0..n).map(|j| if j % 64 == 63 { -1 } else { 0 }).collect(),
            ),
            (
                "repeated minima",
                (0..n).map(|_| rng.next_range_i64(-2, 2)).collect(),
            ),
            (
                "i64 extremes",
                (0..n)
                    .map(|j| match j % 5 {
                        0 => i64::MAX,
                        1 => i64::MIN,
                        2 => rng.next_range_i64(-9, 9),
                        3 => i64::MIN,
                        _ => i64::MAX,
                    })
                    .collect(),
            ),
        ]
    }

    /// Dirty-segment bitmaps: the last (possibly partial) segment alone,
    /// every third segment, and all of them.
    fn dirty_sets(segs: usize) -> Vec<(&'static str, Vec<usize>)> {
        vec![
            ("single", vec![segs - 1]),
            ("sparse", (0..segs).step_by(3).collect()),
            ("all", (0..segs).collect()),
        ]
    }

    #[test]
    fn tier_parity_refresh_min_and_max() {
        let tiers = vector_tiers("tier_parity_refresh_min_and_max");
        let mut rng = Xorshift64Star::new(0xa66);
        for n in SIZES {
            // Fresh aggregates of an unrelated Δ: segments left clean must
            // keep these values through every refresh.
            let stale: Vec<i64> = (0..n).map(|_| rng.next_range_i64(-50, 50)).collect();
            let mut base = SegmentAggregates::all_dirty(n);
            base.refresh(&stale);
            for (kind, delta) in adversarial_deltas(n, &mut rng) {
                for (set, dirty) in dirty_sets(seg_count(n)) {
                    let mut marked = base.clone();
                    for &s in &dirty {
                        marked.mark(s);
                    }
                    let mut want = marked.clone();
                    refresh_min(Tier::PORTABLE, &mut want, &delta);
                    refresh_max(Tier::PORTABLE, &mut want, &delta);
                    assert_eq!(
                        want.reductions(),
                        base.reductions() + 2 * dirty.len() as u64,
                        "n={n} {kind} {set}: one reduction per dirty side"
                    );
                    for &s in &dirty {
                        let (lo, hi) = want.bounds(s);
                        let chunk = &delta[lo..hi];
                        let mn = *chunk.iter().min().unwrap();
                        let am = lo + chunk.iter().position(|&v| v == mn).unwrap();
                        let mx = *chunk.iter().max().unwrap();
                        let got = (want.min_of(s), want.argmin_of(s), want.max_of(s));
                        assert_eq!(got, (mn, am, mx), "n={n} {kind} {set} segment {s}");
                    }
                    for &tier in &tiers {
                        let mut got = marked.clone();
                        refresh_min(tier, &mut got, &delta);
                        refresh_max(tier, &mut got, &delta);
                        assert_eq!(got, want, "{} n={n} {kind} {set}", tier.name());
                    }
                }
            }
        }
    }

    /// Δ arrays of G-set local minima: all zeros, and gains in
    /// {−1, 0, 1, 2} with at least 90% zeros.
    fn gset_deltas(n: usize, rng: &mut Xorshift64Star) -> Vec<(&'static str, Vec<i64>)> {
        vec![
            ("all zeros", vec![0; n]),
            (
                "mostly zero unit gains",
                (0..n)
                    .map(|j| {
                        if j % 10 == 9 {
                            [-1, 1, 2][rng.next_index(3)]
                        } else {
                            0
                        }
                    })
                    .collect(),
            ),
        ]
    }

    /// Aggregates of `delta` with a current min side, the precondition of
    /// both selection loops. `clean` is reduced from `delta` on both sides.
    /// `dirty` starts from the aggregates of `stale`, takes one
    /// tighten-or-mark `update` per gain and then `refresh_min`, so its max
    /// side stays stale and marked where an update hit a recorded max.
    fn min_side_current(stale: &[i64], delta: &[i64]) -> Vec<(&'static str, SegmentAggregates)> {
        let n = delta.len();
        let mut clean = SegmentAggregates::all_dirty(n);
        clean.refresh(delta);
        let mut dirty = SegmentAggregates::all_dirty(n);
        dirty.refresh(stale);
        for j in 0..n {
            dirty.update(j, stale[j], delta[j]);
        }
        dirty.refresh_min(delta);
        vec![("clean", clean), ("dirty", dirty)]
    }

    #[test]
    fn tier_parity_le_masks() {
        let tiers = vector_tiers("tier_parity_le_masks");
        let mut rng = Xorshift64Star::new(0x1e5);
        for n in SIZES {
            let stale: Vec<i64> = (0..n).map(|_| rng.next_range_i64(-50, 50)).collect();
            let mut arrays = adversarial_deltas(n, &mut rng);
            arrays.extend(gset_deltas(n, &mut rng));
            for (kind, delta) in arrays {
                let lo = *delta.iter().min().unwrap();
                let hi = *delta.iter().max().unwrap();
                for (state, segs) in min_side_current(&stale, &delta) {
                    for bound in [i64::MIN, -1, 0, 1, i64::MAX, lo, hi] {
                        let mut naive = vec![0u64; seg_count(n)];
                        for (j, &d) in delta.iter().enumerate() {
                            naive[j / SEG_WIDTH] |= ((d <= bound) as u64) << (j % SEG_WIDTH);
                        }
                        // Poisoned words, so a segment the loop skips shows.
                        let mut want = vec![!0u64; seg_count(n)];
                        le_masks(Tier::PORTABLE, &segs, &delta, bound, &mut want);
                        let label = format!("n={n} {kind} {state} bound={bound}");
                        assert_eq!(want, naive, "portable {label}");
                        for &tier in &tiers {
                            let mut got = vec![!0u64; seg_count(n)];
                            le_masks(tier, &segs, &delta, bound, &mut got);
                            assert_eq!(got, want, "{} {label}", tier.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tier_parity_gap_pass() {
        let tiers = vector_tiers("tier_parity_gap_pass");
        let mut rng = Xorshift64Star::new(0x6a9);
        let two_53 = (1u64 << 53) as f64;
        // RandomMin's floor 32/n at its smallest and largest n, schedule
        // values, the degenerate range, and p near 1.
        let mut ps = vec![1e-300, 1e-17, 1e-7, 1e-5, 1.0 / 4096.0, 1.0 / 128.0];
        ps.extend([1.0 / 15.0, 32.0 / 224.0, 0.16, 0.5, 0.75, 0.999_999, 1.0]);
        for _ in 0..32 {
            ps.push(rng.next_f64().powi(3).max(1e-9));
        }
        for p in ps {
            let gaps = GeometricGaps::new(p);
            let q = 1.0 - p;
            // Random draws, the extremes, and the draws on and beside the
            // gap boundaries ⌊q^k·2⁵³⌋, which the estimate must decline.
            let mut draws: Vec<u64> = (0..8 * GAP_LANES).map(|_| rng.next_u53()).collect();
            draws.extend([0, 1, 2, (1 << 52) - 1, 1 << 52, (1 << 53) - 1]);
            for k in 1..=40 {
                let edge = (q.powi(k) * two_53) as u64;
                for delta in -2i64..=2 {
                    draws.push(edge.saturating_add_signed(delta).min((1 << 53) - 1));
                }
            }
            draws.resize(draws.len().next_multiple_of(GAP_LANES), 1 << 51);
            for block in draws.chunks_exact(GAP_LANES) {
                let block: &[u64; GAP_LANES] = block.try_into().unwrap();
                let mut want = [usize::MAX; GAP_LANES];
                let want_mask = gap_pass(Tier::PORTABLE, &gaps, block, &mut want);
                for &tier in &tiers {
                    let mut got = [usize::MAX; GAP_LANES];
                    let got_mask = gap_pass(tier, &gaps, block, &mut got);
                    let label = format!("{} p={p:e} draws {block:?}", tier.name());
                    assert_eq!(got_mask, want_mask, "{label}: declined lanes");
                    assert_eq!(got, want, "{label}: gaps");
                }
            }
        }
    }

    #[test]
    fn tier_parity_positive_min() {
        let tiers = vector_tiers("tier_parity_positive_min");
        let mut rng = Xorshift64Star::new(0x905);
        for n in SIZES {
            let stale: Vec<i64> = (0..n).map(|_| rng.next_range_i64(-50, 50)).collect();
            let mut arrays = adversarial_deltas(n, &mut rng);
            arrays.extend(gset_deltas(n, &mut rng));
            for (kind, delta) in arrays {
                let naive = delta
                    .iter()
                    .copied()
                    .filter(|&d| d > 0)
                    .min()
                    .unwrap_or(i64::MAX);
                for (state, segs) in min_side_current(&stale, &delta) {
                    let want = positive_min(Tier::PORTABLE, &segs, &delta);
                    assert_eq!(want, naive, "portable n={n} {kind} {state}");
                    for &tier in &tiers {
                        let got = positive_min(tier, &segs, &delta);
                        assert_eq!(got, want, "{} n={n} {kind} {state}", tier.name());
                    }
                }
            }
        }
    }
}
