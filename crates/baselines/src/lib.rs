//! Comparator solvers standing in for the paper's commercial/hardware
//! baselines (see DESIGN.md's substitution table).
//!
//! | Paper baseline | This crate |
//! |---|---|
//! | Gurobi 9.5.1 (MIP, 3 600 s) | [`bnb::BranchAndBound`] — exact with time limit, incumbent heuristics |
//! | (optimality proofs) | [`exact::exhaustive`] — Gray-code enumeration for small `n` |
//! | D-Wave Advantage 4.1 | [`annealer::AnalogAnnealer`] — resolution-quantised, noise-corrupted sampler |
//! | D-Wave Hybrid solver | [`hybrid::HybridSolver`] — time-boxed SA/greedy portfolio |
//! | CIM / SBM / dSB | [`sb::SimulatedBifurcation`] — ballistic and discrete SB dynamics |
//! | (generic reference) | [`sa::SimulatedAnnealing`] — Metropolis annealing on the QUBO |
//!
//! All solvers consume the same [`dabs_model::QuboModel`] /
//! [`dabs_model::IsingModel`] types as DABS, so every Table II–IV row runs
//! on identical instances.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod annealer;
pub mod bnb;
pub mod exact;
pub mod hybrid;
pub mod sa;
pub mod sb;

use dabs_model::Solution;
use std::time::Duration;

/// Common result shape for every baseline.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Best solution found.
    pub best: Solution,
    /// Its energy under the *true* model.
    pub energy: i64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Solver-specific work counter (sweeps, nodes, reads, steps).
    pub work: u64,
    /// For exact solvers: whether optimality was proven.
    pub proven_optimal: bool,
}
