//! Benchmark problems and their QUBO reductions (paper §II).
//!
//! Three problem families drive the paper's evaluation:
//!
//! * **MaxCut** ([`maxcut`], [`gset`]) — node bipartition maximising the
//!   crossing weight; reduced edge-by-edge with the gadget
//!   `w·(2 x_i x_j − x_i − x_j)` so that `E(X) = −cut(X)`.
//! * **QAP** ([`qap`], [`qaplib`]) — facility/location assignment; one-hot
//!   encoded into `n²` bits with penalty `p`, so that
//!   `E(X) = C(g_X) − n·p` for feasible assignments.
//! * **QASP** ([`qasp`], [`topology`]) — random resolution-`r` Ising models
//!   on a quantum-annealer working graph, converted Ising→QUBO.
//!
//! The published instance files (Gset, QAPLIB, the D-Wave Advantage working
//! graph) are external data we do not ship; seeded generators with matching
//! size, density and weight structure stand in for them (see DESIGN.md's
//! substitution table).

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod gset;
pub mod maxcut;
pub mod qap;
pub mod qaplib;
pub mod qasp;
pub mod topology;

pub use gset::{g22_like, g39_like, k2000_like, GsetClass};
pub use maxcut::MaxCutProblem;
pub use qap::QapInstance;
pub use qasp::QaspInstance;
pub use topology::Topology;
