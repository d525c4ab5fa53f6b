//! Benchmark harness shared by the table/figure binaries and the unified
//! suite runner.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index) as a thin wrapper over the shared
//! scenario code in [`scenarios`]. The same scenarios power the declarative
//! [`suite`] registry, whose runner emits the machine-readable perf
//! trajectory (`BENCH_*.json`, schema in [`report`]) and whose [`baseline`]
//! compare mode gates CI on regressions. The older helpers remain: flag
//! parsing ([`Args`]), ASCII histograms matching the paper's figure binning,
//! aligned table printing, and the repeated-run TTS protocol of §VI
//! ([`harness`]).

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

// The table binaries in `src/bin/` run the baseline solvers; the library
// itself names none of them.
use dabs_baselines as _;

pub mod args;
pub mod baseline;
pub mod harness;
pub mod histogram;
pub mod instances;
pub mod report;
pub mod scenarios;
pub mod suite;
pub mod suite_cli;
pub mod table;

pub use args::Args;
pub use harness::{repeat_solver, RepeatStats};
pub use histogram::Histogram;
pub use report::SuiteReport;
pub use scenarios::RunPlan;
pub use suite::{run_suite, SuiteConfig, SuiteEntry, SuiteMode};
pub use table::Table;
