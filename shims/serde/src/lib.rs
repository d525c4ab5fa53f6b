//! Offline stand-in for the JSON half of serde.
//!
//! The build environment has no registry access, so [`json`] — a small
//! JSON value model with a writer and parser — stands in for `serde_json`.
//! The wire types in `dabs-server`, the solver results in `dabs-core` and
//! the benchmark reports in `dabs-bench` implement explicit
//! `to_json`/`from_json` conversions against it.

pub mod json;
