//! Binary Quadratic Models (BQMs): QUBO and Ising representations.
//!
//! A **QUBO** (Quadratic Unconstrained Binary Optimization) problem asks for
//! the binary vector `X = x_0 x_1 … x_{n-1}` (each `x_i ∈ {0,1}`) minimising
//!
//! ```text
//! E(X) = Σ_{(i,j) ∈ E} W_ij · x_i · x_j  +  Σ_i W_ii · x_i
//! ```
//!
//! An **Ising** model is the ±1-spin equivalent; the two are interconvertible
//! with a constant energy offset (see [`IsingModel::to_qubo`]).
//!
//! This crate provides:
//!
//! * [`Solution`] — a packed bit vector with O(1) flips and fast Hamming ops,
//! * [`QuboModel`] / [`IsingModel`] — CSR-backed sparse symmetric models,
//! * [`QuboBuilder`] — incremental construction with term accumulation,
//! * [`QuboKernel`] — pluggable energy backends: [`CsrKernel`] for sparse
//!   instances, [`DenseKernel`] (bit-packed strips) for dense ones,
//!   auto-selected per model by density and overridable via
//!   [`KernelChoice`],
//! * [`IncrementalState`] — current vector + energy + all one-flip gains
//!   `Δ_k(X) = E(f_k(X)) − E(X)`, maintained in `O(deg(k))` per flip (the
//!   paper's Eqs. 3–5), generic over the kernel. Every DABS search
//!   algorithm runs on this state.
//! * [`SegmentAggregates`] ([`segments`]) — incrementally maintained
//!   per-64-gain min/argmin/max over the Δ array, turning the selection
//!   primitives every strategy uses ([`IncrementalState::min_delta`],
//!   [`IncrementalState::select_le`], …) from `O(n)` re-scans into
//!   `O(n/64 + dirty)` reductions with bit-identical results.
//! * [`GeometricGaps`] — RandomMin's exact geometric gaps between
//!   candidates, [`GAP_LANES`] draws per branch-free pass.
//!
//! Weights and energies are `i64` throughout: every benchmark in the paper is
//! integral, and integer energies make optimality assertions exact. A model's
//! coefficient mass is bounded ([`COEFFICIENT_SUM_BOUND`]) so that every
//! energy and gain fits, and the dense kernel stores its weights in 32 bits
//! ([`DenseStrips`]), widening each one as it is added.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod batch_kernel;
mod builder;
mod csr;
mod dense;
mod error;
mod gaps;
mod incremental;
pub mod io;
#[allow(unsafe_code)]
mod isa;
mod ising;
mod kernel;
mod qubo;
pub mod segments;
mod solution;

pub use batch_kernel::{valid_lanes, BatchKernel, BatchState, MAX_BATCH_LANES, MIN_BATCH_LANES};
pub use builder::QuboBuilder;
pub use csr::SymmetricCsr;
pub use dense::DenseStrips;
pub use error::ModelError;
pub use gaps::{GeometricGaps, GAP_LANES};
pub use incremental::{BestTracker, IncrementalState};
pub use ising::IsingModel;
pub use kernel::{
    CsrKernel, DenseKernel, KernelChoice, KernelKind, QuboKernel, DENSE_AUTO_MAX_N,
    DENSE_DENSITY_THRESHOLD,
};
pub use qubo::{QuboModel, COEFFICIENT_SUM_BOUND};
pub use segments::{SegmentAggregates, SEG_WIDTH};
pub use solution::Solution;

/// The instruction-set tier the flip path runs on this CPU: `avx512`,
/// `avx2` or `portable`. Detected once per process; every tier computes
/// bit-identical results, so this names only the codegen.
pub fn simd_tier() -> &'static str {
    isa::Tier::detected().name()
}

/// The spin map `σ(x) = 2x − 1`, i.e. `σ(0) = −1`, `σ(1) = +1`.
#[inline(always)]
pub fn sigma(bit: bool) -> i64 {
    if bit {
        1
    } else {
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_maps_bits_to_spins() {
        assert_eq!(sigma(false), -1);
        assert_eq!(sigma(true), 1);
    }
}
