//! Solver configuration and the ABS baseline preset.

use crate::genetic::{GeneticOp, OpProbabilities};
use dabs_search::{MainAlgorithm, SearchParams};

/// Full configuration of a DABS run.
#[derive(Debug, Clone)]
pub struct DabsConfig {
    /// Number of virtual devices = number of solution pools (paper: 8).
    pub devices: usize,
    /// Parallel width of [`DabsSolver::run`](crate::DabsSolver::run): how
    /// many sequential units (each with all `devices` pools) it steps side
    /// by side, one thread each. The paper's counterpart is the 216 CUDA
    /// blocks per A100. `1` runs inline on the caller's thread;
    /// `run_sequential` ignores it.
    pub blocks_per_device: usize,
    /// Batch-search flip budgets and tabu tenure.
    pub params: SearchParams,
    /// Pool capacity in packets (paper: 100).
    pub pool_capacity: usize,
    /// Exploration probability of adaptive selection (paper: 5 %); the
    /// complement replays a random pool row's recorded choice.
    pub explore_prob: f64,
    /// The search-algorithm portfolio.
    pub algorithms: Vec<MainAlgorithm>,
    /// The genetic-operation portfolio.
    pub operations: Vec<GeneticOp>,
    /// Bit probabilities of Mutation/Zero/One.
    pub probabilities: OpProbabilities,
    /// Reject duplicate solutions at pool insertion.
    pub dedup: bool,
    /// Optional pool-restart trigger (paper §IV-B): when a full pool's mean
    /// Hamming distance to its best drops below this value, the pool is
    /// re-initialised with random vectors. `None` disables restarts.
    pub restart_diversity: Option<f64>,
    /// Master seed; every pool, device and block derives its stream from it.
    pub seed: u64,
}

impl Default for DabsConfig {
    fn default() -> Self {
        Self {
            devices: 4,
            blocks_per_device: 2,
            params: SearchParams::default(),
            pool_capacity: 100,
            explore_prob: 0.05,
            algorithms: MainAlgorithm::ALL.to_vec(),
            operations: GeneticOp::DABS.to_vec(),
            probabilities: OpProbabilities::default(),
            dedup: true,
            restart_diversity: None,
            seed: 0xDAB5,
        }
    }
}

impl DabsConfig {
    /// The paper's full DABS portfolio with given device/block counts.
    pub fn dabs(devices: usize, blocks_per_device: usize) -> Self {
        Self {
            devices,
            blocks_per_device,
            ..Self::default()
        }
    }

    /// The ABS baseline (paper ref \[16\], §I-B): CyclicMin only, a single
    /// fixed genetic operation (mutation after crossover). All other
    /// machinery (pools, islands, bulk search) is identical, which is what
    /// makes Table II/III/IV's DABS-vs-ABS comparison an ablation of
    /// diversity.
    pub fn abs_baseline(devices: usize, blocks_per_device: usize) -> Self {
        Self {
            devices,
            blocks_per_device,
            algorithms: vec![MainAlgorithm::CyclicMin],
            operations: vec![GeneticOp::CrossMutate],
            ..Self::default()
        }
    }

    /// Validate invariants; called by the solver before running.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("devices must be ≥ 1".into());
        }
        if self.blocks_per_device == 0 {
            return Err("blocks_per_device must be ≥ 1".into());
        }
        if self.pool_capacity == 0 {
            return Err("pool_capacity must be ≥ 1".into());
        }
        if !(0.0..=1.0).contains(&self.explore_prob) {
            return Err(format!("explore_prob {} outside [0,1]", self.explore_prob));
        }
        if self.algorithms.is_empty() {
            return Err("algorithm portfolio must be non-empty".into());
        }
        if self.operations.is_empty() {
            return Err("operation portfolio must be non-empty".into());
        }
        if self.params.search_flip_factor <= 0.0 || self.params.batch_flip_factor <= 0.0 {
            return Err("flip factors must be positive".into());
        }
        let lanes = self.params.batch_lanes as usize;
        if lanes != 0 && !dabs_model::valid_lanes(lanes) {
            return Err(format!(
                "batch_lanes {lanes} invalid (0 for scalar, or a multiple of 64 in [64, 256])"
            ));
        }
        for p in [
            self.probabilities.mutation,
            self.probabilities.zero,
            self.probabilities.one,
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("bit probability {p} outside [0,1]"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = DabsConfig::default();
        assert_eq!(c.pool_capacity, 100);
        assert_eq!(c.explore_prob, 0.05);
        assert_eq!(c.params.tabu_tenure, 8);
        assert_eq!(c.algorithms.len(), 5);
        assert_eq!(c.operations.len(), 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn abs_preset_is_single_strategy() {
        let c = DabsConfig::abs_baseline(8, 2);
        assert_eq!(c.algorithms, vec![MainAlgorithm::CyclicMin]);
        assert_eq!(c.operations, vec![GeneticOp::CrossMutate]);
        assert_eq!(c.devices, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = DabsConfig {
            devices: 0,
            ..DabsConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DabsConfig {
            explore_prob: 1.5,
            ..DabsConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = DabsConfig::default();
        c.algorithms.clear();
        assert!(c.validate().is_err());

        let mut c = DabsConfig::default();
        c.params.batch_flip_factor = 0.0;
        assert!(c.validate().is_err());

        let mut c = DabsConfig::default();
        c.probabilities.mutation = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_checks_batch_lane_widths() {
        for ok in [0u32, 64, 128, 192, 256] {
            let mut c = DabsConfig::default();
            c.params.batch_lanes = ok;
            assert!(c.validate().is_ok(), "lanes {ok}");
        }
        for bad in [1u32, 32, 63, 96, 320] {
            let mut c = DabsConfig::default();
            c.params.batch_lanes = bad;
            assert!(c.validate().is_err(), "lanes {bad}");
        }
    }
}
