//! Incremental per-segment aggregates over the Δ array — the watched-data
//! layer that makes candidate selection scan-free.
//!
//! The one-flip update (paper Eqs. 4–5) is `O(deg(i))`, but every search
//! strategy then *selects* the next bit from the Δ array, and a naive
//! selection re-scans all `n` gains — often twice (min/max pass plus a
//! reservoir pass). At n = 1024 the selection scan, not the kernel,
//! dominates the flip loop.
//!
//! [`SegmentAggregates`] fixes that with the same lazy-structure idea DPLL
//! solvers use for watched literals: state is updated only where a change
//! lands, never globally re-derived. The Δ array is partitioned into
//! [`SEG_WIDTH`]-wide segments (aligned to [`crate::Solution`] words) and a
//! per-segment `min`/`max` is kept:
//!
//! * a flip **marks** the segments it dirtied (CSR: tighten-or-mark per
//!   updated entry of the mirrored row, so a segment goes dirty only when
//!   its recorded extremum's holder moves; dense: every lane changes, so
//!   the whole array is marked and the first query re-reduces it in one
//!   branchless pass — fusing the reduction into the strip update measured
//!   slower, see the dense kernel's note),
//! * a **query** first re-reduces only the dirty segments with chunked,
//!   branchless loops ([`SegmentAggregates::refresh`]), then answers from
//!   the `n / 64` aggregates. Where an aggregate cannot settle a segment,
//!   a threshold selection builds the segment's 64-bit candidate mask
//!   `{k : Δ_k ≤ bound}` and the smallest-positive query folds the
//!   segment's positive gains, both branch-free per gain.
//!
//! Four of the five loops the crate's instruction-set tier layer compiles
//! into AVX2 and AVX-512 clones live here: the min/argmin and max
//! re-reductions, the candidate masks and the positive-min fold (the fifth
//! is the dense kernel's strip update). They autovectorize only in those
//! clones; the baseline `x86_64` (SSE2) build keeps them scalar.
//!
//! Strategies that never scan (simulated annealing's random proposals, the
//! Straight walk) pay only the marking cost — a shift and an `or` per
//! touched row entry — and never a refresh.

use crate::isa::{self, Tier};

/// log2 of the segment width.
pub const SEG_SHIFT: usize = 6;

/// Segment width: 64 gains per segment, matching the 64-bit words of
/// [`crate::Solution`] and the strip width of [`crate::DenseStrips`].
pub const SEG_WIDTH: usize = 1 << SEG_SHIFT;

/// Segment index covering bit `i`.
#[inline(always)]
pub fn seg_of(i: usize) -> usize {
    i >> SEG_SHIFT
}

/// Number of segments covering `n` gains.
#[inline(always)]
pub fn seg_count(n: usize) -> usize {
    n.div_ceil(SEG_WIDTH)
}

/// Per-segment `min`/`max` of a Δ array, maintained incrementally with a
/// dirty bitset (one bit per segment) and lazy re-reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentAggregates {
    n: usize,
    mins: Vec<i64>,
    /// Lowest index attaining each segment's min — kept alongside the min
    /// so argmin queries never rescan a segment's 64 lanes, and so an
    /// update only invalidates the segment when the *holder itself* moves
    /// up (another lane reaching the same value keeps the aggregates
    /// valid).
    argmins: Vec<u32>,
    maxs: Vec<i64>,
    /// Bit per segment: set = the segment's min/argmin is stale. Min and
    /// max staleness are tracked separately so min-only consumers (greedy
    /// argmin, `select_le`, window scans) never pay for max re-reduction.
    dirty_min: Vec<u64>,
    /// Bit per segment: set = the segment's max is stale.
    dirty_max: Vec<u64>,
    /// Fast path: false means no `dirty_min` bit can be set.
    any_dirty_min: bool,
    /// Fast path: false means no `dirty_max` bit can be set.
    any_dirty_max: bool,
    /// Lifetime count of segment re-reductions (one per segment side
    /// recomputed by [`SegmentAggregates::refresh_min`] /
    /// [`SegmentAggregates::refresh_max`]). A plain field, not an atomic:
    /// observability reads it at batch granularity through
    /// [`SegmentAggregates::reductions`], so the flip loop pays one
    /// register increment per O(64) re-reduction and nothing else.
    reductions: u64,
}

impl SegmentAggregates {
    /// Aggregates for an `n`-gain array, with every segment marked dirty so
    /// the first query reduces from whatever the Δ array then holds.
    pub fn all_dirty(n: usize) -> Self {
        let segs = seg_count(n);
        let mut s = Self {
            n,
            mins: vec![0; segs],
            argmins: vec![0; segs],
            maxs: vec![0; segs],
            dirty_min: vec![0u64; segs.div_ceil(64)],
            dirty_max: vec![0u64; segs.div_ceil(64)],
            any_dirty_min: false,
            any_dirty_max: false,
            reductions: 0,
        };
        s.mark_all();
        s
    }

    /// Number of segments.
    #[inline]
    pub fn segments(&self) -> usize {
        self.mins.len()
    }

    /// Index range `[lo, hi)` of gains covered by segment `seg`.
    #[inline]
    pub fn bounds(&self, seg: usize) -> (usize, usize) {
        let lo = seg << SEG_SHIFT;
        (lo, (lo + SEG_WIDTH).min(self.n))
    }

    /// Mark segment `seg`'s min/argmin stale.
    #[inline(always)]
    pub fn mark_min(&mut self, seg: usize) {
        self.dirty_min[seg >> 6] |= 1u64 << (seg & 63);
        self.any_dirty_min = true;
    }

    /// Mark segment `seg`'s max stale.
    #[inline(always)]
    pub fn mark_max(&mut self, seg: usize) {
        self.dirty_max[seg >> 6] |= 1u64 << (seg & 63);
        self.any_dirty_max = true;
    }

    /// Mark both sides of segment `seg` stale.
    #[inline(always)]
    pub fn mark(&mut self, seg: usize) {
        self.mark_min(seg);
        self.mark_max(seg);
    }

    /// Account for gain `j` changing from `old` to `new` — the incremental
    /// heart of the layer. A changed gain almost never invalidates its
    /// segment's aggregates:
    ///
    /// * `new` below the recorded min ⇒ the min *is* `new` at `j` (tighten,
    ///   no re-reduction; no other lane can tie it, because the recorded
    ///   min bounded every lane from below);
    /// * `new` equal to the min ⇒ the value stands; the holder moves to
    ///   `j` only if `j` is lower (lowest-index tie-break);
    /// * `new` above it ⇒ the min is unchanged **unless** `j` was the
    ///   recorded holder, in which case the true min is unknown and the
    ///   segment is marked for lazy re-reduction (probability ≈ 1/64 for a
    ///   random entry);
    ///
    /// and analogously for the max (value-based, no holder: any update
    /// from the max value marks). A segment that is already dirty
    /// tolerates any interleaving: tightening writes are overwritten by the
    /// eventual [`SegmentAggregates::refresh`], and stale-extremum
    /// comparisons can only add marks.
    #[inline(always)]
    pub fn update(&mut self, j: usize, old: i64, new: i64) {
        let s = j >> SEG_SHIFT;
        let mn = self.mins[s];
        if new < mn {
            self.mins[s] = new;
            self.argmins[s] = j as u32;
        } else if new == mn {
            if (j as u32) < self.argmins[s] {
                self.argmins[s] = j as u32;
            }
        } else if self.argmins[s] == j as u32 {
            self.mark_min(s);
        }
        if new >= self.maxs[s] {
            self.maxs[s] = new;
        } else if old == self.maxs[s] {
            self.mark_max(s);
        }
    }

    /// Mark the segment containing bit `i` stale.
    #[inline(always)]
    pub fn mark_bit(&mut self, i: usize) {
        self.mark(i >> SEG_SHIFT);
    }

    /// Mark every segment stale on both sides (wholesale Δ replacement).
    pub fn mark_all(&mut self) {
        let segs = self.segments();
        for w in 0..self.dirty_min.len() {
            let covered = segs.saturating_sub(w << 6).min(64);
            let word = if covered == 64 {
                u64::MAX
            } else {
                (1u64 << covered) - 1
            };
            self.dirty_min[w] = word;
            self.dirty_max[w] = word;
        }
        let stale = segs > 0;
        self.any_dirty_min = stale;
        self.any_dirty_max = stale;
    }

    /// Minimum gain in segment `seg`. Only meaningful after
    /// [`SegmentAggregates::refresh`].
    #[inline(always)]
    pub fn min_of(&self, seg: usize) -> i64 {
        self.mins[seg]
    }

    /// Lowest index attaining [`SegmentAggregates::min_of`]. Only
    /// meaningful after [`SegmentAggregates::refresh`].
    #[inline(always)]
    pub fn argmin_of(&self, seg: usize) -> usize {
        self.argmins[seg] as usize
    }

    /// Maximum gain in segment `seg`. Only meaningful after
    /// [`SegmentAggregates::refresh`].
    #[inline(always)]
    pub fn max_of(&self, seg: usize) -> i64 {
        self.maxs[seg]
    }

    /// Re-reduce every min-dirty segment's min/argmin from `delta` and
    /// clear the min-dirty set. `O(dirty × 64)` with branchless inner
    /// loops, run as the CPU's instruction-set tier clone: they vectorize
    /// in the AVX2 and AVX-512 clones, and stay scalar in the portable one.
    pub fn refresh_min(&mut self, delta: &[i64]) {
        debug_assert_eq!(delta.len(), self.n);
        if !self.any_dirty_min {
            return;
        }
        isa::refresh_min(Tier::detected(), self, delta);
        self.any_dirty_min = false;
    }

    /// [`Self::refresh_min`]'s loop: the body `isa::refresh_min` clones.
    #[inline(always)]
    pub(crate) fn refresh_min_body(&mut self, delta: &[i64]) {
        for w in 0..self.dirty_min.len() {
            let mut bits = self.dirty_min[w];
            self.dirty_min[w] = 0;
            while bits != 0 {
                let seg = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (lo, hi) = self.bounds(seg);
                let (mn, am) = reduce_min_argmin(lo, &delta[lo..hi]);
                self.mins[seg] = mn;
                self.argmins[seg] = am as u32;
                self.reductions += 1;
            }
        }
    }

    /// Re-reduce every max-dirty segment's max from `delta` and clear the
    /// max-dirty set, like [`Self::refresh_min`].
    pub fn refresh_max(&mut self, delta: &[i64]) {
        debug_assert_eq!(delta.len(), self.n);
        if !self.any_dirty_max {
            return;
        }
        isa::refresh_max(Tier::detected(), self, delta);
        self.any_dirty_max = false;
    }

    /// [`Self::refresh_max`]'s loop: the body `isa::refresh_max` clones.
    #[inline(always)]
    pub(crate) fn refresh_max_body(&mut self, delta: &[i64]) {
        for w in 0..self.dirty_max.len() {
            let mut bits = self.dirty_max[w];
            self.dirty_max[w] = 0;
            while bits != 0 {
                let seg = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (lo, hi) = self.bounds(seg);
                self.maxs[seg] = reduce_max(&delta[lo..hi]);
                self.reductions += 1;
            }
        }
    }

    /// Fill `masks[s]` with segment `s`'s candidate set `{k : Δ_k ≤ bound}`
    /// (bit `k` stands for gain `64·s + k`), run as the CPU's
    /// instruction-set tier clone. The min side must be clean (after
    /// [`Self::refresh_min`]); the max side is never read.
    pub(crate) fn le_masks(&self, delta: &[i64], bound: i64, masks: &mut [u64]) {
        debug_assert!(!self.any_dirty_min, "candidate masks from stale mins");
        isa::le_masks(Tier::detected(), self, delta, bound, masks);
    }

    /// [`Self::le_masks`]' loop: the body `isa::le_masks` clones.
    #[inline(always)]
    pub(crate) fn le_masks_body(&self, delta: &[i64], bound: i64, masks: &mut [u64]) {
        self.masks_by(delta, masks, |mn| mn <= bound, |d| d <= bound);
    }

    /// Per-segment candidate masks. `seg_may_hold(min)` may be false only
    /// when no gain ≥ `min` passes `candidate`, which holds for the same
    /// test when it is monotone (`candidate(d)` implies `candidate(e)` for
    /// every `e ≤ d`), as both `Δ ≤ bound` tests are.
    ///
    /// Exactness: `masks[s]` holds exactly `{k : candidate(Δ_{64s+k})}`.
    /// A segment whose aggregate min fails `seg_may_hold` gets the empty
    /// mask without reading its gains; every other segment sets bit `k`
    /// from its `k`-th gain with one branch-free test, and the last
    /// segment, when partial, sets only its `n mod 64` low bits.
    #[inline(always)]
    pub(crate) fn masks_by(
        &self,
        delta: &[i64],
        masks: &mut [u64],
        seg_may_hold: impl Fn(i64) -> bool,
        candidate: impl Fn(i64) -> bool,
    ) {
        debug_assert_eq!(delta.len(), self.n);
        debug_assert_eq!(masks.len(), self.segments());
        for (s, mask) in masks.iter_mut().enumerate() {
            *mask = if seg_may_hold(self.mins[s]) {
                let (lo, hi) = self.bounds(s);
                fold_segment(&delta[lo..hi], |c| {
                    let mut m = 0u64;
                    for (k, &d) in c.iter().enumerate() {
                        m |= (candidate(d) as u64) << k;
                    }
                    m
                })
            } else {
                0
            };
        }
    }

    /// The smallest strictly positive gain, or `i64::MAX` when no gain is
    /// positive, run as the CPU's instruction-set tier clone. The min side
    /// must be clean (after [`Self::refresh_min`]).
    pub(crate) fn positive_min(&self, delta: &[i64]) -> i64 {
        debug_assert!(!self.any_dirty_min, "positive min from stale mins");
        isa::positive_min(Tier::detected(), self, delta)
    }

    /// [`Self::positive_min`]'s loop: the body `isa::positive_min` clones.
    ///
    /// Exactness: the result is the integer minimum over `{Δ_k > 0}`, or
    /// `i64::MAX` when that set is empty. A segment whose min is positive
    /// answers from its aggregate alone (its min *is* its smallest
    /// positive gain). Every other segment holds a gain ≤ 0 and is folded
    /// branch-free, each gain ≤ 0 entering the fold as `i64::MAX`, the
    /// fold's identity.
    #[inline(always)]
    pub(crate) fn positive_min_body(&self, delta: &[i64]) -> i64 {
        debug_assert_eq!(delta.len(), self.n);
        let mut posmin = i64::MAX;
        for (s, &mn) in self.mins.iter().enumerate() {
            let seg_posmin = if mn > 0 {
                mn
            } else {
                let (lo, hi) = self.bounds(s);
                fold_segment(&delta[lo..hi], |c| {
                    let mut m = i64::MAX;
                    for &d in c {
                        let p = if d > 0 { d } else { i64::MAX };
                        m = if p < m { p } else { m };
                    }
                    m
                })
            };
            posmin = if seg_posmin < posmin {
                seg_posmin
            } else {
                posmin
            };
        }
        posmin
    }

    /// Lifetime segment re-reductions performed by the lazy refresh paths
    /// (the cost the Δ-segment layer exists to amortize; exported as a
    /// sampled solver counter).
    #[inline]
    pub fn reductions(&self) -> u64 {
        self.reductions
    }

    /// Bring both sides up to date.
    pub fn refresh(&mut self, delta: &[i64]) {
        self.refresh_min(delta);
        self.refresh_max(delta);
    }

    /// True when at least one segment may be stale on either side.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        self.any_dirty_min || self.any_dirty_max
    }

    /// Test-support: assert every segment aggregate equals a fresh
    /// reduction of `delta`. Panics on divergence.
    pub fn assert_matches(&self, delta: &[i64]) {
        assert!(!self.is_dirty(), "aggregates queried while dirty");
        for seg in 0..self.segments() {
            let (lo, hi) = self.bounds(seg);
            let (mn, am, mx) = reduce_min_argmin_max(lo, &delta[lo..hi]);
            assert_eq!(self.mins[seg], mn, "segment {seg} min diverged");
            assert_eq!(
                self.argmins[seg] as usize, am,
                "segment {seg} argmin diverged"
            );
            assert_eq!(self.maxs[seg], mx, "segment {seg} max diverged");
        }
    }
}

/// Apply the fold `f` to a chunk of at most one segment. A whole segment
/// is passed as `[i64; SEG_WIDTH]` first, so the vector clones see a
/// constant trip count and unroll it with no remainder loop; only the last,
/// partial segment of an array takes the variable-length form.
#[inline(always)]
fn fold_segment<R>(chunk: &[i64], f: impl Fn(&[i64]) -> R) -> R {
    debug_assert!(!chunk.is_empty() && chunk.len() <= SEG_WIDTH);
    match <&[i64; SEG_WIDTH]>::try_from(chunk) {
        Ok(full) => f(full),
        Err(_) => f(chunk),
    }
}

/// Min with its lowest attaining absolute index (the chunk starts at
/// `base`) over a non-empty chunk of at most one segment.
///
/// Three branchless steps, so the vector clones vectorize all of it: a min
/// fold, a 64-bit mask of the lanes equal to the min, and the mask's
/// `trailing_zeros` for the lowest index. An early-exit first-match scan
/// does not vectorize, and a fused `if v < mn { mn = v; am = k }` loop
/// mispredicts on every new prefix minimum.
#[inline(always)]
pub(crate) fn reduce_min_argmin(base: usize, chunk: &[i64]) -> (i64, usize) {
    let (mn, hits) = fold_segment(chunk, |c| {
        let mut mn = i64::MAX;
        for &v in c {
            mn = if v < mn { v } else { mn };
        }
        let mut hits = 0u64;
        for (k, &v) in c.iter().enumerate() {
            hits |= ((v == mn) as u64) << k;
        }
        (mn, hits)
    });
    (mn, base + hits.trailing_zeros() as usize)
}

/// Max over a non-empty chunk of at most one segment.
#[inline(always)]
pub(crate) fn reduce_max(chunk: &[i64]) -> i64 {
    fold_segment(chunk, |c| {
        let mut mx = i64::MIN;
        for &v in c {
            mx = if v > mx { v } else { mx };
        }
        mx
    })
}

/// Min (with lowest attaining absolute index) and max over a non-empty
/// chunk of at most one segment.
pub(crate) fn reduce_min_argmin_max(base: usize, chunk: &[i64]) -> (i64, usize, i64) {
    let (mn, am) = reduce_min_argmin(base, chunk);
    (mn, am, reduce_max(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::{Rng64, Xorshift64Star};

    fn random_delta(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = Xorshift64Star::new(seed);
        (0..n).map(|_| rng.next_range_i64(-500, 500)).collect()
    }

    #[test]
    fn seg_geometry() {
        assert_eq!(seg_count(1), 1);
        assert_eq!(seg_count(64), 1);
        assert_eq!(seg_count(65), 2);
        assert_eq!(seg_of(63), 0);
        assert_eq!(seg_of(64), 1);
        let s = SegmentAggregates::all_dirty(130);
        assert_eq!(s.segments(), 3);
        assert_eq!(s.bounds(2), (128, 130));
    }

    #[test]
    fn refresh_matches_full_reduction_at_word_boundaries() {
        for n in [1usize, 63, 64, 65, 128, 129, 300] {
            let delta = random_delta(n, n as u64);
            let mut s = SegmentAggregates::all_dirty(n);
            s.refresh(&delta);
            s.assert_matches(&delta);
        }
    }

    #[test]
    fn only_marked_segments_are_re_reduced() {
        let mut delta = random_delta(256, 9);
        let mut s = SegmentAggregates::all_dirty(256);
        s.refresh(&delta);
        // mutate two segments, mark only one: the unmarked one stays stale
        delta[0] = -9_999;
        delta[200] = -9_999;
        s.mark_bit(200);
        s.refresh(&delta);
        assert_eq!(s.min_of(3), -9_999);
        assert_ne!(s.min_of(0), -9_999, "unmarked segment must not refresh");
        // marking it catches up
        s.mark_bit(0);
        s.refresh(&delta);
        s.assert_matches(&delta);
    }

    #[test]
    fn mark_all_covers_partial_last_word() {
        // 70 segments → dirty words [64, 6]: the second word's high bits
        // must not be set (they would index past the segment arrays).
        let n = 70 * SEG_WIDTH;
        let delta = random_delta(n, 5);
        let mut s = SegmentAggregates::all_dirty(n);
        s.refresh(&delta);
        s.assert_matches(&delta);
    }

    #[test]
    fn reduce_handles_extremes_and_breaks_ties_low() {
        assert_eq!(
            reduce_min_argmin_max(0, &[i64::MAX]),
            (i64::MAX, 0, i64::MAX)
        );
        assert_eq!(reduce_min_argmin_max(5, &[i64::MIN, 0]), (i64::MIN, 5, 0));
        assert_eq!(reduce_min_argmin_max(10, &[3, -1, 7, -1]), (-1, 11, 7));
    }

    #[test]
    fn update_tracks_holder_moves_and_invalidation() {
        let mut delta = vec![5i64, 3, 9, 3];
        let mut s = SegmentAggregates::all_dirty(4);
        s.refresh(&delta);
        assert_eq!((s.min_of(0), s.argmin_of(0)), (3, 1));
        // a tie at a higher index leaves the holder alone
        delta[3] = 3;
        s.update(3, 3, 3);
        assert_eq!(s.argmin_of(0), 1);
        // the holder moving up marks the segment; refresh finds the tie
        delta[1] = 8;
        s.update(1, 3, 8);
        assert!(s.is_dirty());
        s.refresh(&delta);
        assert_eq!((s.min_of(0), s.argmin_of(0)), (3, 3));
        // an interior move (touching neither extremum) keeps aggregates
        // valid without any re-reduction
        delta[0] = 4;
        s.update(0, 5, 4);
        assert!(!s.is_dirty());
        s.assert_matches(&delta);
    }
}
