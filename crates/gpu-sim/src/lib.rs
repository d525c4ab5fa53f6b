//! CPU simulation of the paper's GPU execution model (paper §V,
//! substituted per DESIGN.md).
//!
//! The paper runs bulk search on eight NVIDIA A100s: each GPU hosts up to
//! 216 CUDA blocks, every block keeps a resident solution vector and
//! repeatedly executes *batch searches* on targets received from the host,
//! returning its best solution when the batch ends. Communication is by
//! packet transfer; the host never computes energies.
//!
//! This crate keeps that contract on the CPU, one device per call site:
//!
//! * [`InlineDevice`] — one simulated device: a resident block state (or a
//!   bit-sliced batch of candidate lanes) that turns one request packet
//!   into one result packet per call, on the caller's thread.
//! * [`Packet`] — the four-field packet of Table I: solution vector, energy
//!   (void on the way in), main search algorithm, genetic-operation tag.
//! * [`SharedBest`] — the `atomicMin`-style device-wide best energy.
//! * [`DeviceStats`] — flip/batch counters for throughput reporting.
//! * [`StopFlag`] — the cooperative stop signal a run checks between
//!   batches.
//!
//! Parallelism lives above this crate: `dabs-core` runs several sequential
//! solver units side by side, each with its own devices. The DABS host
//! layer in `dabs-core` owns the solution pools and the GA; this crate
//! knows nothing about genetic operations — the packet's operation field is
//! an opaque tag it faithfully round-trips.

mod device;
mod packet;
mod shared;
mod stats;

pub use device::InlineDevice;
pub use packet::Packet;
pub use shared::{SharedBest, StopFlag};
pub use stats::DeviceStats;
