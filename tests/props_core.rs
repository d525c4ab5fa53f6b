//! Property-based tests on the GA layer: genetic operations, adaptive
//! selection, and the solution pool.

use dabs::core::{
    generate_target, select_algorithm, select_operation, DabsConfig, GeneticOp, PoolEntry,
    SolutionPool,
};
use dabs::model::Solution;
use dabs::rng::Xorshift64Star;
use dabs::search::MainAlgorithm;
use proptest::prelude::*;

fn filled_pool(n: usize, rows: usize, seed: u64) -> SolutionPool {
    let mut pool = SolutionPool::new(rows, false);
    let mut rng = Xorshift64Star::new(seed);
    pool.fill_random(n, &MainAlgorithm::ALL, &GeneticOp::DABS, &mut rng);
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_operation_produces_correct_length(
        n in 2usize..200,
        op_idx in 0usize..8,
        seed in any::<u64>(),
    ) {
        let op = GeneticOp::DABS[op_idx];
        let pool = filled_pool(n, 5, seed);
        let neighbor = filled_pool(n, 5, seed ^ 1);
        let config = DabsConfig::default();
        let mut rng = Xorshift64Star::new(seed ^ 2);
        let child = generate_target(op, &pool, Some(&neighbor), n, &config, &mut rng);
        prop_assert_eq!(child.len(), n);
    }

    #[test]
    fn selection_always_returns_portfolio_members(
        seed in any::<u64>(),
        algos_mask in 1u8..32,
        ops_mask in 1u16..256,
    ) {
        // arbitrary non-empty sub-portfolios
        let algorithms: Vec<MainAlgorithm> = MainAlgorithm::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| (algos_mask >> i) & 1 == 1)
            .map(|(_, a)| a)
            .collect();
        let operations: Vec<GeneticOp> = GeneticOp::DABS
            .into_iter()
            .enumerate()
            .filter(|(i, _)| (ops_mask >> i) & 1 == 1)
            .map(|(_, o)| o)
            .collect();
        prop_assume!(!algorithms.is_empty() && !operations.is_empty());
        let config = DabsConfig {
            algorithms: algorithms.clone(),
            operations: operations.clone(),
            ..DabsConfig::default()
        };
        // pool rows recorded with arbitrary (possibly out-of-portfolio) pairs
        let pool = filled_pool(32, 8, seed);
        let mut rng = Xorshift64Star::new(seed ^ 3);
        for _ in 0..50 {
            let a = select_algorithm(&pool, &config, &mut rng);
            let o = select_operation(&pool, &config, &mut rng);
            prop_assert!(config.algorithms.contains(&a));
            prop_assert!(config.operations.contains(&o));
        }
    }

    #[test]
    fn mutation_distance_is_binomial_scale(
        n in 64usize..512,
        seed in any::<u64>(),
    ) {
        // With p = 1/8, hamming(child, parent) concentrates near n/8;
        // a 6-sigma band keeps this robust for any seed.
        let pool = filled_pool(n, 3, seed);
        let config = DabsConfig::default();
        let mut rng = Xorshift64Star::new(seed ^ 4);
        let parent0 = pool.entry(0).solution.clone();
        let child = generate_target(GeneticOp::Best, &pool, None, n, &config, &mut rng);
        prop_assert_eq!(&child, &parent0, "Best must clone the pool best");

        let mut total = 0usize;
        let reps = 8;
        for _ in 0..reps {
            let child = generate_target(GeneticOp::Mutation, &pool, None, n, &config, &mut rng);
            // parent is *some* pool row; distance to the nearest row is what
            // mutation bounds
            let dmin = (0..pool.len())
                .map(|k| child.hamming(&pool.entry(k).solution))
                .min()
                .unwrap();
            total += dmin;
        }
        let mean = total as f64 / reps as f64;
        let expect = n as f64 / 8.0;
        let sigma = (n as f64 * 0.125 * 0.875).sqrt();
        prop_assert!(
            (mean - expect).abs() < 6.0 * sigma,
            "mean mutation distance {mean}, expected ≈ {expect}"
        );
    }

    #[test]
    fn pool_insert_keeps_best_k_under_random_streams(
        stream in proptest::collection::vec((-500i64..500, any::<u64>()), 1..80),
        capacity in 1usize..10,
    ) {
        let mut pool = SolutionPool::new(capacity, false);
        for (e, s) in &stream {
            let mut rng = Xorshift64Star::new(*s);
            pool.insert(PoolEntry {
                solution: Solution::random(24, &mut rng),
                energy: *e,
                algorithm: MainAlgorithm::MaxMin,
                operation: GeneticOp::Random,
            });
        }
        let mut energies: Vec<i64> = stream.iter().map(|(e, _)| *e).collect();
        energies.sort_unstable();
        let kept: Vec<i64> = pool.iter().map(|p| p.energy).collect();
        prop_assert_eq!(kept, energies.into_iter().take(pool.len()).collect::<Vec<_>>());
    }
}
