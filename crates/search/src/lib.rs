//! Local-search kernels for QUBO models (paper §III).
//!
//! All algorithms are *incremental search algorithms*: they walk the n-bit
//! hypercube by repeated single-bit flips on a [`dabs_model::IncrementalState`],
//! which keeps the energy and all one-flip gains `Δ_k` up to date in
//! `O(deg)` per flip.
//!
//! Two service algorithms:
//!
//! * [`greedy`] — flip the minimum-gain bit while any gain is negative;
//!   terminates in a local minimum.
//! * [`straight`] — walk toward a *target* vector, always flipping the
//!   cheapest differing bit; terminates when the target is reached.
//!
//! Five *main* algorithms ([`MainAlgorithm`]), each run for `s·n` flips:
//!
//! * [`MainAlgorithm::MaxMin`] — SA-like threshold schedule between min and
//!   max gain, cubic cooling.
//! * [`MainAlgorithm::CyclicMin`] — sliding cyclic window of cubically
//!   growing width; flips the window's argmin (random-number-free).
//! * [`MainAlgorithm::RandomMin`] — candidate bits sampled with cubically
//!   growing probability; flips the candidates' argmin.
//! * [`MainAlgorithm::PositiveMin`] — candidates are all bits with gain at
//!   most the smallest *positive* gain; enables hill climbing out of local
//!   minima.
//! * [`MainAlgorithm::TwoNeighbor`] — deterministic sweep visiting every
//!   1-bit neighbour so the embedded neighbourhood scan covers every 2-bit
//!   neighbour; runs once per batch.
//!
//! [`BatchSearch`] composes them exactly as the paper's CUDA blocks do:
//! Straight to the target, then alternating Greedy and the selected main
//! algorithm until the flip budget `b·n` is spent.
//!
//! Candidate selection inside every strategy runs on the
//! `dabs_model` segment-aggregate primitives (`min_delta`,
//! `min_max_argmin`, `positive_min_delta`, `select_le`, `window_argmin`)
//! instead of re-scanning the Δ array — tie-break and reservoir-sampling
//! semantics live in exactly one place. The pre-segment full-scan code is
//! preserved verbatim in [`mod@reference`] for the parity suite and the
//! `scan_sweep` benchmark.
//!
//! ```
//! use dabs_model::{IncrementalState, QuboBuilder, Solution};
//! use dabs_rng::Xorshift64Star;
//! use dabs_search::{BatchSearch, MainAlgorithm, SearchParams};
//!
//! let mut b = QuboBuilder::new(4);
//! b.add_linear(0, -5).add_quadratic(0, 1, 2).add_quadratic(2, 3, -4);
//! let model = b.build().unwrap();
//!
//! let mut state = IncrementalState::new(&model);      // resident block state
//! let mut batch = BatchSearch::new(4, SearchParams::default());
//! let mut rng = Xorshift64Star::new(7);
//! let target = Solution::from_bitstring("1010");
//! let out = batch.run(&mut state, &target, MainAlgorithm::PositiveMin, &mut rng);
//! assert_eq!(model.energy(&out.best), out.energy);
//! assert_eq!(out.energy, -9); // x = 1011: −5 − 4
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod batch;
pub mod bulk;
mod cyclicmin;
mod greedy;
mod maxmin;
mod positivemin;
mod randommin;
pub mod reference;
mod straight;
mod tabu;
mod twoneighbor;

pub use batch::{BatchOutcome, BatchSearch};
pub use bulk::{lane_seed, BulkSweep, ScalarSweep, BULK_CYCLE_ROUNDS};
pub use cyclicmin::cyclic_min;
pub use greedy::greedy;
pub use maxmin::max_min;
pub use positivemin::positive_min;
pub use randommin::random_min;
pub use straight::straight;
pub use tabu::TabuList;
pub use twoneighbor::two_neighbor;

use dabs_model::{BestTracker, IncrementalState, QuboKernel};
use dabs_rng::Rng64;

/// The five main search algorithms a batch can be asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MainAlgorithm {
    MaxMin,
    CyclicMin,
    RandomMin,
    PositiveMin,
    TwoNeighbor,
}

impl MainAlgorithm {
    /// All five, in the paper's table order.
    pub const ALL: [MainAlgorithm; 5] = [
        MainAlgorithm::MaxMin,
        MainAlgorithm::PositiveMin,
        MainAlgorithm::CyclicMin,
        MainAlgorithm::RandomMin,
        MainAlgorithm::TwoNeighbor,
    ];

    /// Stable small index (used by frequency tables).
    pub fn index(self) -> usize {
        match self {
            MainAlgorithm::MaxMin => 0,
            MainAlgorithm::PositiveMin => 1,
            MainAlgorithm::CyclicMin => 2,
            MainAlgorithm::RandomMin => 3,
            MainAlgorithm::TwoNeighbor => 4,
        }
    }

    /// Human-readable name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            MainAlgorithm::MaxMin => "MaxMin",
            MainAlgorithm::PositiveMin => "PositiveMin",
            MainAlgorithm::CyclicMin => "CyclicMin",
            MainAlgorithm::RandomMin => "RandomMin",
            MainAlgorithm::TwoNeighbor => "TwoNeighbor",
        }
    }

    /// Dispatch: run this algorithm for (up to) `flips` bit flips.
    /// Returns the number of flips actually performed (TwoNeighbor always
    /// performs exactly `2n − 1` regardless of `flips`).
    pub fn run<K: QuboKernel, R: Rng64 + Clone>(
        self,
        state: &mut IncrementalState<'_, K>,
        best: &mut BestTracker,
        tabu: &mut TabuList,
        rng: &mut R,
        flips: u64,
    ) -> u64 {
        match self {
            MainAlgorithm::MaxMin => max_min(state, best, tabu, rng, flips),
            MainAlgorithm::CyclicMin => cyclic_min(state, best, tabu, flips),
            MainAlgorithm::RandomMin => random_min(state, best, tabu, rng, flips),
            MainAlgorithm::PositiveMin => positive_min(state, best, tabu, rng, flips),
            MainAlgorithm::TwoNeighbor => two_neighbor(state, best),
        }
    }
}

/// Flip-budget parameters of the batch search (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchParams {
    /// Search flip factor `s`: each main-algorithm leg performs `⌈s·n⌉` flips.
    pub search_flip_factor: f64,
    /// Batch flip factor `b`: the batch ends once total flips reach `⌈b·n⌉`.
    pub batch_flip_factor: f64,
    /// Tabu tenure (0 disables; the paper's experiments fix it to 8).
    pub tabu_tenure: u64,
    /// Bit-sliced batch width: 0 runs the scalar strategies; a multiple of
    /// 64 in `[64, 256]` switches devices to the bulk lockstep sweep with
    /// that many resident candidate lanes ([`mod@bulk`]).
    pub batch_lanes: u32,
}

impl SearchParams {
    /// Parameters used for the paper's MaxCut runs (`s = 0.1`, `b = 10`).
    pub fn maxcut() -> Self {
        Self {
            search_flip_factor: 0.1,
            batch_flip_factor: 10.0,
            tabu_tenure: 8,
            batch_lanes: 0,
        }
    }

    /// Parameters used for the paper's QAP and QASP runs (`s = 0.1`, `b = 1`).
    pub fn qap_qasp() -> Self {
        Self {
            search_flip_factor: 0.1,
            batch_flip_factor: 1.0,
            tabu_tenure: 8,
            batch_lanes: 0,
        }
    }

    /// Flips per main-algorithm leg for an `n`-bit model, at least 1.
    pub fn search_flips(&self, n: usize) -> u64 {
        ((self.search_flip_factor * n as f64).ceil() as u64).max(1)
    }

    /// Total flip budget per batch for an `n`-bit model, at least 1.
    pub fn batch_flips(&self, n: usize) -> u64 {
        ((self.batch_flip_factor * n as f64).ceil() as u64).max(1)
    }
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            search_flip_factor: 0.1,
            batch_flip_factor: 1.0,
            tabu_tenure: 8,
            batch_lanes: 0,
        }
    }
}

/// The cubic schedule weight used by the iteration-dependent algorithms
/// (MaxMin's `((T − t)/T)³`, CyclicMin/RandomMin's `(t/T)³`).
#[inline]
pub(crate) fn cubic(ratio: f64) -> f64 {
    ratio * ratio * ratio
}

#[cfg(test)]
pub(crate) mod testutil {
    use dabs_model::{QuboBuilder, QuboModel};
    use dabs_rng::{Rng64, Xorshift64Star};

    /// Random dense-ish test model.
    pub fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
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

    /// Exhaustive optimum of a small model.
    pub fn brute_force_optimum(q: &QuboModel) -> i64 {
        let n = q.n();
        assert!(n <= 22, "brute force limited to small models");
        let mut best = i64::MAX;
        for v in 0..(1u64 << n) {
            let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            best = best.min(q.energy(&dabs_model::Solution::from_bits(&bits)));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_have_unique_indices() {
        let mut seen = [false; 5];
        for a in MainAlgorithm::ALL {
            assert!(!seen[a.index()], "duplicate index for {}", a.name());
            seen[a.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(MainAlgorithm::MaxMin.name(), "MaxMin");
        assert_eq!(MainAlgorithm::TwoNeighbor.name(), "TwoNeighbor");
    }

    #[test]
    fn params_flip_budgets() {
        let p = SearchParams::maxcut();
        assert_eq!(p.search_flips(2000), 200);
        assert_eq!(p.batch_flips(2000), 20_000);
        let p = SearchParams::qap_qasp();
        assert_eq!(p.batch_flips(900), 900);
        assert_eq!(p.search_flips(1), 1);
    }

    #[test]
    fn paper_example_flip_accounting() {
        // n = 1000, s = 0.6, b = 2.0 → main legs of 600 flips, budget 2000.
        let p = SearchParams {
            search_flip_factor: 0.6,
            batch_flip_factor: 2.0,
            ..SearchParams::default()
        };
        assert_eq!(p.search_flips(1000), 600);
        assert_eq!(p.batch_flips(1000), 2000);
    }

    #[test]
    fn cubic_schedule_endpoints() {
        assert_eq!(cubic(0.0), 0.0);
        assert_eq!(cubic(1.0), 1.0);
        assert!(cubic(0.5) < 0.5, "cubic is convex below identity");
    }
}
