//! Diverse Adaptive Bulk Search — the paper's primary contribution.
//!
//! DABS drives bulk search (the batch searches of `dabs-search`, run by
//! simulated devices) with a genetic algorithm that is *diverse* along three
//! axes and *adaptive* along two:
//!
//! 1. **Multiple search algorithms** — every batch runs one of the five main
//!    algorithms of `dabs-search`; which one is chosen adaptively.
//! 2. **Multiple genetic operations** — target vectors are produced by one
//!    of eight operations ([`GeneticOp`]); which one is chosen adaptively.
//! 3. **Multiple solution pools** — one pool per device, arranged in a ring
//!    ([island model](SolutionPool)); the [`GeneticOp::Xrossover`] operation
//!    crosses parents from neighbouring pools, replacing migration.
//!
//! Adaptivity works through the pool itself: every pool row remembers the
//! algorithm and operation that produced it, and with 95 % probability the
//! host *replays* the pair recorded in a uniformly random row (5 % of the
//! time it explores uniformly). Pairs that produce good solutions therefore
//! occupy more rows and get selected more often — no explicit scoring model.
//!
//! [`DabsSolver`] has one engine: a unit that round-robins over every pool
//! and its inline device, the paper's GPU called directly. Batch `j` runs
//! on device `j mod D`; a unit given several threads
//! ([`UnitRun::set_threads`]) runs its devices' batches side by side, as
//! the paper's GPUs do, but commits them strictly in round-robin order, so
//! its result is bit-identical to the one-thread loop.
//! [`DabsSolver::run_sequential`] steps one unit on the caller's thread and
//! is bit-for-bit deterministic; [`DabsSolver::run`] steps
//! `blocks_per_device` one-thread units on scoped threads and folds their
//! outcomes; the server gives each unit its share of the host's cores.
//! The authors' earlier fixed-strategy ABS solver is available as the
//! [`DabsConfig::abs_baseline`] preset.
//!
//! ```
//! use dabs_core::{DabsConfig, DabsSolver, Termination};
//! use dabs_model::QuboBuilder;
//!
//! // E(X) = −2·x0 + 3·x0·x1 − x1: optimum is x = (1, 0) with E = −2.
//! let mut b = QuboBuilder::new(2);
//! b.add_linear(0, -2).add_linear(1, -1).add_quadratic(0, 1, 3);
//! let model = b.build().unwrap();
//!
//! let solver = DabsSolver::new(DabsConfig {
//!     devices: 1,
//!     blocks_per_device: 1,
//!     pool_capacity: 4,
//!     ..DabsConfig::default()
//! }).unwrap();
//! let result = solver.run_sequential(&model, Termination::batches(10));
//! assert_eq!(result.energy, -2);
//! assert!(result.best.get(0) && !result.best.get(1));
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod adaptive;
mod config;
mod device;
mod genetic;
pub mod obs;
mod pool;
mod solver;
mod stats;
pub mod wire;

pub use adaptive::{generate_target, select_algorithm, select_operation};
pub use config::DabsConfig;
pub use genetic::GeneticOp;
pub use obs::{push_hist, solver_obs, ObsAccumulator, SolverObs};
pub use pool::{PoolEntry, SolutionPool};
pub use solver::{
    DabsSolver, Incumbent, IncumbentObserver, SolveResult, StopFlag, Termination, UnitOutcome,
    UnitRun, WarmStart,
};
pub use stats::{Direction, FrequencyReport, Metric, MetricSet};
