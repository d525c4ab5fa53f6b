//! The batch search (paper §III-B).
//!
//! A CUDA block (here: an inline device in `dabs-core`) keeps a resident
//! [`IncrementalState`] across batches. One batch, given a target vector `D`
//! and a main algorithm `M`:
//!
//! 1. Straight search to `D`;
//! 2. repeat `{ Greedy ; M for s·n flips }` until the total flips of this
//!    batch reach `b·n` — except `M = TwoNeighbor`, which runs exactly once
//!    (`Straight ; Greedy ; TwoNeighbor ; Greedy`);
//! 3. return the best solution observed anywhere in the batch.

use crate::{greedy, straight, MainAlgorithm, SearchParams, TabuList};
use dabs_model::{BestTracker, IncrementalState, QuboKernel, Solution};
use dabs_rng::Rng64;

/// Result of one batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Best solution observed during the batch.
    pub best: Solution,
    /// Its energy.
    pub energy: i64,
    /// Flips consumed by the batch (including the Straight prefix).
    pub flips: u64,
    /// Number of main-algorithm legs executed.
    pub main_legs: u32,
}

/// Reusable batch-search executor: owns the tabu list so allocation happens
/// once per block, not once per batch.
#[derive(Debug, Clone)]
pub struct BatchSearch {
    params: SearchParams,
    tabu: TabuList,
}

impl BatchSearch {
    /// Executor for an `n`-bit model.
    pub fn new(n: usize, params: SearchParams) -> Self {
        Self {
            tabu: TabuList::new(n, params.tabu_tenure),
            params,
        }
    }

    /// Run one batch on the resident `state` (any kernel backend) with the
    /// configured `batch_flips(n)` budget.
    pub fn run<K: QuboKernel, R: Rng64 + Clone>(
        &mut self,
        state: &mut IncrementalState<'_, K>,
        target: &Solution,
        algorithm: MainAlgorithm,
        rng: &mut R,
    ) -> BatchOutcome {
        let n = state.n();
        let budget = self.params.batch_flips(n);
        let leg = self.params.search_flips(n);
        self.tabu.clear();

        let mut best = BestTracker::unbounded(n);
        let mut flips = straight(state, &mut best, &mut self.tabu, target);
        let mut main_legs = 0u32;

        if algorithm == MainAlgorithm::TwoNeighbor {
            flips += greedy(
                state,
                &mut best,
                &mut self.tabu,
                budget.saturating_sub(flips),
            );
            flips += algorithm.run(state, &mut best, &mut self.tabu, rng, leg);
            main_legs += 1;
            flips += greedy(state, &mut best, &mut self.tabu, u64::MAX);
        } else {
            loop {
                flips += greedy(state, &mut best, &mut self.tabu, u64::MAX);
                flips += algorithm.run(state, &mut best, &mut self.tabu, rng, leg);
                main_legs += 1;
                if flips >= budget {
                    break;
                }
            }
            // finish in a local minimum so the returned best is polished
            flips += greedy(state, &mut best, &mut self.tabu, u64::MAX);
        }

        let (best, energy) = best.into_parts();
        BatchOutcome {
            best,
            energy,
            flips,
            main_legs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{brute_force_optimum, random_model};
    use dabs_model::QuboModel;
    use dabs_rng::Xorshift64Star;

    fn run_once(
        q: &QuboModel,
        algo: MainAlgorithm,
        params: SearchParams,
        seed: u64,
    ) -> BatchOutcome {
        let n = q.n();
        let mut st = IncrementalState::new(q);
        let mut rng = Xorshift64Star::new(seed);
        let target = Solution::random(n, &mut rng);
        let mut batch = BatchSearch::new(n, params);
        batch.run(&mut st, &target, algo, &mut rng)
    }

    #[test]
    fn batch_meets_flip_budget_for_iterative_algorithms() {
        let q = random_model(60, 0.2, 91);
        for algo in [
            MainAlgorithm::MaxMin,
            MainAlgorithm::CyclicMin,
            MainAlgorithm::RandomMin,
            MainAlgorithm::PositiveMin,
        ] {
            let params = SearchParams {
                search_flip_factor: 0.3,
                batch_flip_factor: 2.0,
                ..SearchParams::default()
            };
            let out = run_once(&q, algo, params, 92);
            assert!(
                out.flips >= params.batch_flips(60),
                "{}: {} flips < budget",
                algo.name(),
                out.flips
            );
            assert!(out.main_legs >= 1);
        }
    }

    #[test]
    fn two_neighbor_runs_exactly_once() {
        let q = random_model(40, 0.3, 93);
        let out = run_once(&q, MainAlgorithm::TwoNeighbor, SearchParams::default(), 94);
        assert_eq!(out.main_legs, 1);
    }

    #[test]
    fn outcome_energy_matches_solution() {
        let q = random_model(50, 0.25, 95);
        for (i, algo) in MainAlgorithm::ALL.into_iter().enumerate() {
            let out = run_once(&q, algo, SearchParams::default(), 96 + i as u64);
            assert_eq!(q.energy(&out.best), out.energy, "{}", algo.name());
        }
    }

    #[test]
    fn batch_finds_small_optimum() {
        let q = random_model(14, 0.5, 97);
        let opt = brute_force_optimum(&q);
        // several batches from random targets should hit the optimum
        let mut found = i64::MAX;
        let mut st = IncrementalState::new(&q);
        let mut rng = Xorshift64Star::new(98);
        let mut batch = BatchSearch::new(
            14,
            SearchParams {
                search_flip_factor: 1.0,
                batch_flip_factor: 20.0,
                tabu_tenure: 4,
                ..SearchParams::default()
            },
        );
        for algo in MainAlgorithm::ALL {
            let target = Solution::random(14, &mut rng);
            let out = batch.run(&mut st, &target, algo, &mut rng);
            found = found.min(out.energy);
        }
        assert_eq!(found, opt);
    }

    #[test]
    fn resident_state_persists_across_batches() {
        // Second batch starts from wherever the first ended (paper Fig. 4).
        let q = random_model(30, 0.3, 99);
        let mut st = IncrementalState::new(&q);
        let mut rng = Xorshift64Star::new(100);
        let mut batch = BatchSearch::new(30, SearchParams::default());
        let t1 = Solution::random(30, &mut rng);
        batch.run(&mut st, &t1, MainAlgorithm::MaxMin, &mut rng);
        let after_first = st.flips();
        assert!(after_first > 0);
        let t2 = Solution::random(30, &mut rng);
        batch.run(&mut st, &t2, MainAlgorithm::CyclicMin, &mut rng);
        assert!(st.flips() > after_first, "state must accumulate flips");
        st.assert_consistent();
    }

    #[test]
    fn batch_never_returns_worse_than_target_polish() {
        // The best must be ≤ energy of a pure greedy descent from target.
        let q = random_model(40, 0.3, 101);
        let mut rng = Xorshift64Star::new(102);
        let target = Solution::random(40, &mut rng);
        let mut greedy_state = IncrementalState::from_solution(&q, target.clone());
        let mut best = BestTracker::unbounded(40);
        let mut tabu = TabuList::new(40, 0);
        greedy(&mut greedy_state, &mut best, &mut tabu, u64::MAX);
        let greedy_energy = greedy_state.energy();

        let mut st = IncrementalState::new(&q);
        let mut batch = BatchSearch::new(40, SearchParams::maxcut());
        let out = batch.run(&mut st, &target, MainAlgorithm::PositiveMin, &mut rng);
        assert!(
            out.energy <= greedy_energy,
            "batch {} vs greedy {greedy_energy}",
            out.energy
        );
    }
}
