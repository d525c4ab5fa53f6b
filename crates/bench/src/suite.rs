//! The declarative benchmark-suite registry and runner.
//!
//! One [`SuiteEntry`] per scenario the repo cares about: time-to-target for
//! each problem family of the paper's §V evaluation, kernel flip throughput
//! across the density sweep, the four §VI ablations, and the server's load
//! isolation and connection scaling.
//! The table/figure bins under `src/bin/` and the machine-readable perf
//! trajectory (`BENCH_*.json`, see [`crate::report`]) run the same scenario
//! code from [`crate::scenarios`], so reproducing a paper table and gating a
//! regression can never drift apart.

use crate::report::{cpu_time_ms, EntryReport, HostInfo, SuiteReport, SCHEMA_VERSION};
use crate::scenarios;
use dabs_core::MetricSet;
use std::time::Instant;

/// Benchmark families — the axes the suite must cover. The three problem
/// families mirror the paper's Tables II–IV; `Kernel` and `Server` cover
/// the repo's two perf-critical subsystems; `Ablation` the §VI studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    MaxCut,
    Qap,
    Qasp,
    Kernel,
    Server,
    Ablation,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 6] = [
        Family::MaxCut,
        Family::Qap,
        Family::Qasp,
        Family::Kernel,
        Family::Server,
        Family::Ablation,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Family::MaxCut => "maxcut",
            Family::Qap => "qap",
            Family::Qasp => "qasp",
            Family::Kernel => "kernel",
            Family::Server => "server",
            Family::Ablation => "ablation",
        }
    }

    /// Inverse of [`Family::name`].
    pub fn by_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// How hard the suite runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteMode {
    /// Tiny instances and budgets: the mode the integration tests use so a
    /// debug-profile run stays in seconds. Same code path as `Smoke`.
    Test,
    /// CI scale: every family in well under two minutes on a release build.
    Smoke,
    /// Paper scale where the instances support it; minutes to hours.
    Full,
}

impl SuiteMode {
    pub fn name(self) -> &'static str {
        match self {
            SuiteMode::Test => "test",
            SuiteMode::Smoke => "smoke",
            SuiteMode::Full => "full",
        }
    }

    pub fn by_name(name: &str) -> Option<SuiteMode> {
        [SuiteMode::Test, SuiteMode::Smoke, SuiteMode::Full]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Suite-wide knobs shared by every entry.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    pub mode: SuiteMode,
    /// Base seed; every scenario derives its own deterministic streams.
    pub seed: u64,
    /// Case-insensitive substring filter on entry names (`None` = all).
    pub filter: Option<String>,
    /// Print per-entry progress to stderr while running.
    pub verbose: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            mode: SuiteMode::Smoke,
            seed: 1,
            filter: None,
            verbose: false,
        }
    }
}

/// One registered benchmark scenario.
pub struct SuiteEntry {
    /// Unique key, also the entry name in `BENCH_*.json`.
    pub name: &'static str,
    pub family: Family,
    /// One-line description (shown by `suite --list` and in the docs).
    pub about: &'static str,
    /// Measurement context recorded verbatim into the entry's report:
    /// which kernel backend the entry exercises and whether the Δ-segment
    /// aggregate layer is in play — so trajectory points stay comparable
    /// across machines and code revisions.
    pub context: &'static [(&'static str, &'static str)],
    /// Produce the entry's metrics. Must derive all randomness from
    /// `cfg.seed` so deterministic metrics reproduce across runs.
    pub run: fn(&SuiteConfig) -> MetricSet,
}

/// The default context of solver-driven entries: the models pick their
/// backend via the auto policy and every `IncrementalState` runs with the
/// segment-aggregate selection layer.
const CTX_SOLVER: &[(&str, &str)] = &[("kernel", "auto"), ("segments", "on")];

/// The full scenario registry, in execution order.
pub fn registry() -> Vec<SuiteEntry> {
    vec![
        SuiteEntry {
            name: "ttt_maxcut",
            family: Family::MaxCut,
            about: "time-to-target on the Table II MaxCut trio (deterministic sequential runs)",
            context: CTX_SOLVER,
            run: scenarios::ttt::maxcut,
        },
        SuiteEntry {
            name: "ttt_qap",
            family: Family::Qap,
            about: "time-to-target on the Table III QAP trio",
            context: CTX_SOLVER,
            run: scenarios::ttt::qap,
        },
        SuiteEntry {
            name: "ttt_qasp",
            family: Family::Qasp,
            about: "time-to-target on the Table IV QASP resolutions 1/16/256",
            context: CTX_SOLVER,
            run: scenarios::ttt::qasp,
        },
        SuiteEntry {
            name: "kernel_sweep",
            family: Family::Kernel,
            about: "CSR vs dense flip throughput across the density sweep + speedup contract",
            context: &[("kernel", "csr+dense"), ("segments", "on")],
            run: scenarios::kernel::entry,
        },
        SuiteEntry {
            name: "scan_sweep",
            family: Family::Kernel,
            about: "strategy-level flips/s: segment-aggregate selection vs the full-scan \
                    reference on a sparse n=1024 instance + speedup contract",
            context: &[("kernel", "csr"), ("segments", "seg-vs-scan")],
            run: scenarios::scan::entry,
        },
        SuiteEntry {
            name: "batch_sweep",
            family: Family::Kernel,
            about: "bit-sliced bulk-search lanes vs independent scalar sweeps at a matched \
                    flip budget on the weighted n=1024 instance + \u{2265}4\u{d7} speedup and \
                    lane-parity contract",
            context: &[("kernel", "csr"), ("lanes", "bit-sliced")],
            run: scenarios::batch::entry,
        },
        SuiteEntry {
            name: "obs_overhead",
            family: Family::Kernel,
            about: "observability tax on the hot loop: batch-composite flips/s with the \
                    per-batch ObsAccumulator tally vs plain + \u{2264}3% overhead contract",
            context: &[("kernel", "csr"), ("segments", "on")],
            run: scenarios::obs_overhead::entry,
        },
        SuiteEntry {
            name: "server_load",
            family: Family::Server,
            about: "small-job p99 isolation under a saturating decomposed job + elastic-pool \
                    scaling contract (yields from the pool gauges)",
            context: CTX_SOLVER,
            run: scenarios::server_load::load_entry,
        },
        SuiteEntry {
            name: "conn_scale",
            family: Family::Server,
            about: "event-loop connection scaling: idle pool held + active ping p99, with \
                    per-connection RSS and responsiveness contracts (10k idle / 1k active at \
                    Full; gates suspended at Test scale)",
            context: CTX_SOLVER,
            run: scenarios::conn_scale::entry,
        },
        SuiteEntry {
            name: "ablation_adaptive",
            family: Family::Ablation,
            about: "adaptive (95% replay) vs uniform strategy selection",
            context: CTX_SOLVER,
            run: scenarios::ablation::adaptive_entry,
        },
        SuiteEntry {
            name: "ablation_islands",
            family: Family::Ablation,
            about: "4 islands vs 1 island, one sequential unit each",
            context: CTX_SOLVER,
            run: scenarios::ablation::islands_entry,
        },
        SuiteEntry {
            name: "ablation_tabu",
            family: Family::Ablation,
            about: "tabu tenure 8 (paper setting) vs tenure 0",
            context: CTX_SOLVER,
            run: scenarios::ablation::tabu_entry,
        },
        SuiteEntry {
            name: "ablation_portfolio",
            family: Family::Ablation,
            about: "five-algorithm portfolio vs each algorithm alone",
            context: CTX_SOLVER,
            run: scenarios::ablation::portfolio_entry,
        },
    ]
}

/// True when the entry survives the config's name filter.
fn selected(entry: &SuiteEntry, cfg: &SuiteConfig) -> bool {
    match &cfg.filter {
        Some(f) => entry.name.to_lowercase().contains(&f.to_lowercase()),
        None => true,
    }
}

/// Run every selected entry and assemble the versioned report.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteReport {
    let entries: Vec<SuiteEntry> = registry()
        .into_iter()
        .filter(|e| selected(e, cfg))
        .collect();
    let total = entries.len();
    let suite_start = Instant::now();
    let cpu_start = cpu_time_ms();
    let mut reports = Vec::with_capacity(total);
    for (i, entry) in entries.into_iter().enumerate() {
        if cfg.verbose {
            eprintln!("[{}/{}] {} …", i + 1, total, entry.name);
        }
        let started_ms = suite_start.elapsed().as_millis() as u64;
        let t0 = Instant::now();
        let metrics = (entry.run)(cfg);
        let wall_ms = t0.elapsed().as_millis() as u64;
        if cfg.verbose {
            eprintln!(
                "[{}/{}] {} done in {:.1}s ({} metrics)",
                i + 1,
                total,
                entry.name,
                wall_ms as f64 / 1e3,
                metrics.len()
            );
        }
        reports.push(EntryReport {
            name: entry.name.to_string(),
            family: entry.family,
            started_ms,
            wall_ms,
            context: entry
                .context
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metrics,
        });
    }
    SuiteReport {
        schema_version: SCHEMA_VERSION,
        mode: cfg.mode,
        seed: cfg.seed,
        host: HostInfo::detect(),
        wall_ms: suite_start.elapsed().as_millis() as u64,
        cpu_ms: match (cpu_start, cpu_time_ms()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        },
        entries: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::by_name(f.name()), Some(f));
        }
        assert_eq!(Family::by_name("nope"), None);
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [SuiteMode::Test, SuiteMode::Smoke, SuiteMode::Full] {
            assert_eq!(SuiteMode::by_name(m.name()), Some(m));
        }
    }

    #[test]
    fn registry_names_are_unique_and_cover_all_families() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate entry names");
        for f in Family::ALL {
            assert!(
                reg.iter().any(|e| e.family == f),
                "no registry entry for family {:?}",
                f
            );
        }
    }

    #[test]
    fn filter_selects_by_substring() {
        let cfg = SuiteConfig {
            filter: Some("KERNEL".into()),
            ..SuiteConfig::default()
        };
        let hits: Vec<&'static str> = registry()
            .into_iter()
            .filter(|e| selected(e, &cfg))
            .map(|e| e.name)
            .collect();
        assert_eq!(hits, vec!["kernel_sweep"]);
    }
}
