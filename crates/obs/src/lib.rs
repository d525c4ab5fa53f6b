//! `dabs-obs` — zero-dependency observability core for the DABS stack.
//!
//! `dabs-core` tallies the solver's hot loop into it, `dabs-server` its
//! pool, serving edge and per-job timelines, and `dabs-cli` writes trace
//! files with it; with the umbrella `dabs` crate, which re-exports it,
//! they are the only crates that depend on it. It depends on nothing but
//! `std`. Two building blocks:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`LogHistogram`]) — lock-free
//!   atomic recording on the hot path; [`HistSnapshot`] supports merge and
//!   percentile queries over HDR-style log-bucketed counts (power-of-2
//!   major buckets × 8 linear sub-buckets, ≤ 12.5 % relative error,
//!   saturating overflow bucket).
//! * **Export** ([`chrome`]) — [`ChromeEvent`]s written in the Chrome
//!   `trace_event` JSON format (loadable in `chrome://tracing` and
//!   Perfetto), by hand so the crate stays dependency-free. The server
//!   builds them from a job's recorded timeline (`dabs trace`).
//!
//! The bridge from these snapshot types to `core::stats::MetricSet` lives
//! in `dabs-core`: `dabs-core` depends on this crate, so this crate cannot
//! name `Metric` without a dependency cycle.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod chrome_export;
mod counter;
mod hist;

pub use chrome_export as chrome;
pub use chrome_export::ChromeEvent;
pub use counter::{Counter, Gauge};
pub use hist::{HistSnapshot, LogHistogram, HIST_BUCKETS, HIST_OVERFLOW_FLOOR};

/// Sampling shift used by hot-loop instrumentation across the workspace:
/// shared atomics are touched once every `2^OBS_SAMPLE_SHIFT` batches, so
/// the flip loop itself stays scan-free-fast.
pub const OBS_SAMPLE_SHIFT: u32 = 5;

/// Mask form of [`OBS_SAMPLE_SHIFT`]: `batches & OBS_SAMPLE_MASK == 0`
/// selects the 1-in-2^k publication batches.
pub const OBS_SAMPLE_MASK: u64 = (1 << OBS_SAMPLE_SHIFT) - 1;
