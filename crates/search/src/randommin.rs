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
//! `⌊ln u / ln(1 − p)⌋` for one uniform draw `u`, and the walk takes its
//! draws [`GAP_LANES`] at a time ([`DrawBlock`]): 32 raw 53-bit draws
//! leave the generator ahead of the walk, [`GeometricGaps::fill`] turns
//! them into their exact gaps in one pass, and the walk reads them in
//! order. A block's unused draws carry into the next iteration, whose own
//! `p` recomputes their gaps, and go back to the generator before
//! [`fallback_bit`] draws and when the leg returns. Every gap, candidate,
//! flip and generator position is the one a draw-by-draw walk gives
//! (`reference::random_min_ln`).

use crate::{cubic, TabuList};
use dabs_model::{BestTracker, GeometricGaps, IncrementalState, QuboKernel, GAP_LANES};
use dabs_rng::Rng64;

/// Run RandomMin for `total_flips` flips. Returns the flips performed.
///
/// The generator is cloned to hand unused draws back (see `DrawBlock`),
/// and leaves at the position a draw-by-draw walk leaves it.
pub fn random_min<K: QuboKernel, R: Rng64 + Clone>(
    state: &mut IncrementalState<'_, K>,
    best: &mut BestTracker,
    tabu: &mut TabuList,
    rng: &mut R,
    total_flips: u64,
) -> u64 {
    let n = state.n();
    let floor_p = (32.0 / n as f64).min(1.0);
    let t_max = total_flips;
    let mut block = DrawBlock::new(rng);
    for t in 1..=t_max {
        let p = cubic(t as f64 / t_max as f64).max(floor_p).min(1.0);

        let mut arg = usize::MAX;
        let mut min_d = i64::MAX;
        let mut consider = |i: usize| {
            let d = state.delta(i);
            if d < min_d && !tabu.is_tabu(i) {
                min_d = d;
                arg = i;
            }
        };
        if p >= 1.0 {
            // Every index is a candidate, and no draw is made.
            (0..n).for_each(&mut consider);
        } else {
            // Geometric skipping over 0..n: the next candidate index jumps
            // by 1 + gap, starting one before index 0.
            block.set_p(p);
            let mut i = usize::MAX;
            loop {
                i = i.wrapping_add(1).wrapping_add(block.next_gap(rng));
                if i >= n {
                    break;
                }
                consider(i);
            }
        }
        // No usable candidate (empty sample or all tabu): retry with a
        // single uniformly random non-tabu bit so the flip count stays
        // exact.
        let bit = if arg == usize::MAX {
            block.give_back(rng);
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
    block.give_back(rng);
    t_max
}

/// The walk's draws, taken [`GAP_LANES`] at a time ahead of the walk.
///
/// `draws[next..]` are drawn but not yet walked, and `gaps` holds their
/// gaps under the current `p`. The generator stands past the whole block,
/// so [`Self::give_back`] restores the clone saved before the block and
/// redraws the `next` draws the walk consumed, which leaves it where a
/// draw-by-draw walk would stand.
struct DrawBlock<R> {
    /// The generator as it stood before `draws` were taken.
    saved: R,
    draws: [u64; GAP_LANES],
    gaps: [usize; GAP_LANES],
    /// The gaps' probability (1 before the first block, which no walk
    /// uses); `gaps` is stale for any other `p`.
    sampler: GeometricGaps,
    /// The next unwalked lane; `GAP_LANES` when the block is spent.
    next: usize,
}

impl<R: Rng64 + Clone> DrawBlock<R> {
    fn new(rng: &R) -> Self {
        Self {
            saved: rng.clone(),
            draws: [0; GAP_LANES],
            gaps: [0; GAP_LANES],
            sampler: GeometricGaps::new(1.0),
            next: GAP_LANES,
        }
    }

    /// Make `gaps` those of probability `p < 1`. Carried draws keep their
    /// gaps while `p` stays put (as it does at the schedule's floor).
    #[inline]
    fn set_p(&mut self, p: f64) {
        if p != self.sampler.p() {
            self.sampler = GeometricGaps::new(p);
            if self.next < GAP_LANES {
                self.sampler.fill(&self.draws, &mut self.gaps);
            }
        }
    }

    /// The next gap, drawing a fresh block when this one is spent.
    #[inline(always)]
    fn next_gap(&mut self, rng: &mut R) -> usize {
        let mut lane = self.next;
        if lane >= GAP_LANES {
            self.refill(rng);
            lane = 0;
        }
        self.next = lane + 1;
        self.gaps[lane]
    }

    fn refill(&mut self, rng: &mut R) {
        self.saved = rng.clone();
        for d in &mut self.draws {
            *d = rng.next_u53();
        }
        self.sampler.fill(&self.draws, &mut self.gaps);
        self.next = 0;
    }

    /// Return the unwalked draws to the generator, leaving the block spent.
    fn give_back(&mut self, rng: &mut R) {
        if self.next < GAP_LANES {
            *rng = self.saved.clone();
            for _ in 0..self.next {
                rng.next_u53();
            }
            self.next = GAP_LANES;
        }
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
    use dabs_rng::{unit_f64, Xorshift64Star};
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

    /// The next block of 53-bit draws from `rng`.
    fn draw_block(rng: &mut Xorshift64Star) -> [u64; GAP_LANES] {
        std::array::from_fn(|_| rng.next_u53())
    }

    #[test]
    fn geometric_skip_mean_matches_probability() {
        // E[gap] = (1-p)/p; sample mean over many draws should be close.
        let mut rng = Xorshift64Star::new(65);
        let p = 0.2;
        let gaps = GeometricGaps::new(p);
        let blocks = 50_000 / GAP_LANES;
        let mut total = 0usize;
        for _ in 0..blocks {
            let mut out = [0; GAP_LANES];
            gaps.fill(&draw_block(&mut rng), &mut out);
            total += out.iter().sum::<usize>();
        }
        let mean = total as f64 / (blocks * GAP_LANES) as f64;
        let expect = (1.0 - p) / p;
        assert!(
            (mean - expect).abs() < 0.15,
            "mean gap {mean}, expected {expect}"
        );
    }

    #[test]
    fn skip_handles_p_one() {
        // A one-flip leg runs its only iteration at p = 1: every index is a
        // candidate and the generator is untouched.
        let q = random_model(40, 0.3, 66);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(40);
        let mut tabu = TabuList::new(40, 8);
        let mut rng = Xorshift64Star::new(66);
        let untouched = rng;
        random_min(&mut st, &mut best, &mut tabu, &mut rng, 1);
        assert_eq!(st.flips(), 1);
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

    #[test]
    fn give_back_leaves_the_generator_after_the_walked_draws() {
        // Walk k gaps of a block at each k, hand the rest back: the
        // generator stands exactly k draws past where the block began.
        let start = Xorshift64Star::new(69);
        for k in 0..=GAP_LANES + 1 {
            let mut rng = start;
            let mut block = DrawBlock::new(&rng);
            block.set_p(0.3);
            for _ in 0..k {
                block.next_gap(&mut rng);
            }
            block.give_back(&mut rng);
            let mut want = start;
            for _ in 0..k {
                want.next_u53();
            }
            assert_eq!(rng, want, "{k} gaps walked");
        }
    }

    // -- Gap exactness: the block pass against the reference `ln` gap ------

    /// An RNG whose every raw draw is one fixed value: feeds the reference
    /// gap a chosen 53-bit draw through its real entry point.
    struct Fixed(u64);

    impl Rng64 for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Check one block lane by lane against the reference gap of the same
    /// draw; returns the mask of lanes that took the fallback.
    fn block_matches(p: f64, draws: &[u64; GAP_LANES]) -> u32 {
        // Poisoned, so a lane the pass skips shows.
        let mut gaps = [usize::MAX - 7; GAP_LANES];
        let rejected = GeometricGaps::new(p).fill(draws, &mut gaps);
        for (lane, (&m, &g)) in draws.iter().zip(&gaps).enumerate() {
            // Low bits are dropped by the 53-bit draw; set some to show it.
            let raw = (m << 11) | 0x5A5;
            assert_eq!(g, skip_ln(&mut Fixed(raw), p), "p={p:e} m={m} lane {lane}");
        }
        rejected
    }

    /// Check every draw of `ms` at every lane of a block: rotation `r`
    /// puts `ms[i]` at lane `(i + r) mod 32`, with filler draws around
    /// them. Returns, per draw, whether it took the fallback, which must
    /// not depend on its lane.
    fn draws_match_at_every_lane(p: f64, ms: &[u64]) -> Vec<bool> {
        const FILLER: u64 = 1 << 52;
        let mut fell: Option<Vec<bool>> = None;
        for r in 0..GAP_LANES {
            let mut seq = vec![FILLER; r];
            seq.extend_from_slice(ms);
            seq.resize(seq.len().next_multiple_of(GAP_LANES), FILLER);
            let mut lanes_fell = Vec::with_capacity(seq.len());
            for chunk in seq.chunks_exact(GAP_LANES) {
                let mask = block_matches(p, chunk.try_into().unwrap());
                lanes_fell.extend((0..GAP_LANES).map(|l| mask >> l & 1 == 1));
            }
            let here = lanes_fell[r..r + ms.len()].to_vec();
            match &fell {
                Some(first) => assert_eq!(&here, first, "p={p:e}: rotation {r}"),
                None => fell = Some(here),
            }
        }
        fell.unwrap_or_default()
    }

    /// Same-seed streams, a block at a time: every gap equal to the
    /// reference's on the same draw, and both generators left at the same
    /// position. Returns the fallback count.
    fn stream_matches(p: f64, seed: u64, blocks: usize) -> usize {
        let gaps = GeometricGaps::new(p);
        let mut a = Xorshift64Star::new(seed);
        let mut b = a;
        let mut fallbacks = 0;
        for blk in 0..blocks {
            let mut out = [usize::MAX - 7; GAP_LANES];
            fallbacks += gaps.fill(&draw_block(&mut a), &mut out).count_ones() as usize;
            for (lane, &g) in out.iter().enumerate() {
                assert_eq!(g, skip_ln(&mut b, p), "p={p:e} block {blk} lane {lane}");
            }
        }
        // At p ≥ 1 the reference draws nothing, and neither does
        // `random_min` (`skip_handles_p_one`): the gaps match,
        // the positions are not comparable.
        if p < 1.0 {
            assert_eq!(a, b, "p={p:e}: RNG position");
        }
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
                let seed = 0x6A9 ^ ((n as u64) << 16) ^ t as u64;
                fallbacks += stream_matches(p, seed, 2_000 / GAP_LANES);
                draws += 2_000 / GAP_LANES * GAP_LANES;
            }
        }
        assert!(fallbacks * 100 < draws, "{fallbacks} of {draws} fell back");
    }

    #[test]
    fn gap_matches_reference_over_200k_draws_per_p() {
        for p in [
            1e-6, 1e-4, 0.0078125, 0.04, 0.0667, 0.1, 0.16, 0.25, 0.395, 0.5, 0.75, 0.9, 0.999, 1.0,
        ] {
            stream_matches(p, p.to_bits(), 200_000 / GAP_LANES);
        }
    }

    #[test]
    fn gap_matches_reference_on_adversarial_draws() {
        // The draws on and beside a gap boundary: u = ⌊q^k·2⁵³⌋·2⁻⁵³ is
        // where ln u / ln q crosses the integer k, so the estimate must not
        // call it and the fallback must, at every lane of a block.
        let two_53 = (1u64 << 53) as f64;
        let mut fallbacks = 0usize;
        let mut ps: Vec<f64> = [9usize, 33, 81, 224, 480, 4096]
            .into_iter()
            .flat_map(schedule)
            .collect();
        ps.extend([1e-9, 1e-5, 0.5, 0.999_999]);
        for p in ps {
            let q = 1.0 - p;
            // m = 0 is the clamped draw; 1 and 2⁵³ − 1 the extremes.
            let mut ms = vec![0, 1, (1 << 53) - 1];
            let mut must_fall = Vec::new();
            let estimating = estimates(p);
            for k in 1..=64 {
                let qk = q.powi(k);
                let edge = (qk * two_53) as u64;
                for delta in -2i64..=2 {
                    // y sits within 2⁻³³/|ln q| of k at the edge itself,
                    // far inside the band: the estimate must decline it.
                    if estimating && delta == 0 && qk >= 1.0 / (1u64 << 20) as f64 {
                        must_fall.push(ms.len());
                    }
                    ms.push(edge.saturating_add_signed(delta).min((1 << 53) - 1));
                }
            }
            let fell = draws_match_at_every_lane(p, &ms);
            assert!(fell[0] || p >= 1.0, "p={p:e}: m = 0 must take the fallback");
            for i in must_fall {
                assert!(fell[i], "p={p:e} m={}: boundary draw not sent to ln", ms[i]);
            }
            fallbacks += fell.iter().filter(|&&f| f).count();
        }
        assert!(fallbacks > 0);
    }

    /// Whether the estimate runs at `p` at all: a draw midway between two
    /// gap boundaries (y ≈ 1.5) is accepted exactly when it does.
    fn estimates(p: f64) -> bool {
        let q = 1.0 - p;
        let m = (q.powf(1.5) * (1u64 << 53) as f64) as u64;
        let mut draws = [m; GAP_LANES];
        draws[0] = 1 << 52;
        GeometricGaps::new(p).fill(&draws, &mut [0; GAP_LANES]) & 2 == 0
    }

    #[test]
    fn degenerate_probabilities_take_the_fallback_everywhere() {
        // q rounds to 1 (ln q = 0) or the band would be too wide: the
        // estimate is off and every draw is the verbatim expression.
        let mut rng = Xorshift64Star::new(0xDE6);
        for p in [1e-300, 1e-17, 1e-7] {
            let mut draws = draw_block(&mut rng);
            draws[3] = 12_345;
            draws[17] = 1 << 52;
            assert_eq!(block_matches(p, &draws), u32::MAX, "p={p:e}");
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
            stream_matches(p, seed, 2_000 / GAP_LANES);
        }
    }
}
