//! The benchmark's library: workloads, the server child, the measured and
//! traced windows, and the summary arithmetic. `main.rs` is its command
//! line; `tests/smoke.rs` drives the same path against an in-process
//! server.

pub mod layers;
pub mod run;
pub mod server;
pub mod summary;
pub mod targets;
pub mod workload;
