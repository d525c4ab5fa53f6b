//! Umbrella crate: re-exports the full DABS public API.
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use dabs_baselines as baselines;
pub use dabs_core as core;
pub use dabs_model as model;
pub use dabs_obs as obs;
pub use dabs_problems as problems;
pub use dabs_rng as rng;
pub use dabs_search as search;
pub use dabs_server as server;
