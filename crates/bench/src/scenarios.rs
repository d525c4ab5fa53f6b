//! Shared benchmark scenarios — one implementation per measurement, used by
//! both the suite runner ([`crate::suite`]) and the human-readable bins
//! under `src/bin/`.
//!
//! Before this module existed each bin hand-rolled its own flag parsing and
//! run protocol, and the defaults drifted (ablation runs used different
//! budgets and seed streams than the table runs of the same family).
//! [`RunPlan`] is now the single source of defaults, [`family_budget_ms`]
//! the single per-family budget table, and [`arm_seed`] the single seed
//! stream layout.

use crate::harness::{dabs_run_outcome, establish_reference, fmt_tts, RepeatStats};
use crate::instances;
use crate::repeat_solver;
use crate::suite::{Family, SuiteConfig, SuiteMode};
use crate::{Args, Table};
use dabs_core::{DabsConfig, DabsSolver, Direction, Metric, MetricSet, Termination};
use dabs_model::QuboModel;
use dabs_search::SearchParams;
use std::sync::Arc;
use std::time::Duration;

/// Canonical per-run wall-clock budget for a problem family, in ms. Every
/// bin that measures a family uses this table (`--budget-ms` overrides).
pub fn family_budget_ms(family: Family, full: bool) -> u64 {
    match (family, full) {
        (Family::Qap, false) => 4_000,
        (Family::Qap, true) => 120_000,
        (Family::Qasp, false) => 5_000,
        (Family::Qasp, true) => 60_000,
        (_, false) => 3_000,
        (_, true) => 60_000,
    }
}

/// Seed for measurement arm `arm` (0-based) of a repeated-run protocol.
/// Arms must not share seeds or their outcomes correlate; this is the one
/// stream layout every bin and suite entry uses. A base seed of 0 is
/// treated as 1 — multiplying it through would collapse every arm onto
/// stream 0, exactly the correlation this function exists to prevent.
pub fn arm_seed(base_seed: u64, arm: usize) -> u64 {
    base_seed
        .max(1)
        .wrapping_mul(1_000)
        .wrapping_mul(arm as u64 + 1)
}

/// The common measurement knobs of every table/figure/ablation bin, parsed
/// from one canonical flag set: `--full`, `--runs`, `--seed`, `--budget-ms`,
/// `--devices`, `--blocks`.
#[derive(Debug, Clone)]
pub struct RunPlan {
    pub full: bool,
    pub runs: usize,
    pub seed: u64,
    /// Explicit `--budget-ms`, overriding the per-family default.
    pub budget_override: Option<Duration>,
    pub devices: usize,
    pub blocks: usize,
}

impl RunPlan {
    /// Parse with the canonical defaults (`runs = 5`).
    pub fn from_args(args: &Args) -> RunPlan {
        Self::from_args_with_runs(args, 5)
    }

    /// Parse with a bin-specific default repetition count (histogram bins
    /// want more repetitions than tables).
    pub fn from_args_with_runs(args: &Args, default_runs: usize) -> RunPlan {
        RunPlan {
            full: args.flag("full"),
            runs: args.get("runs", default_runs),
            seed: args.get("seed", 1u64),
            budget_override: match args.get("budget-ms", 0u64) {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            devices: args.get("devices", 4usize),
            blocks: args.get("blocks", 2usize),
        }
    }

    /// The per-run budget for a family: `--budget-ms` if given, else the
    /// canonical [`family_budget_ms`].
    pub fn budget(&self, family: Family) -> Duration {
        self.budget_override
            .unwrap_or_else(|| Duration::from_millis(family_budget_ms(family, self.full)))
    }

    /// Full-DABS config at this plan's device/block shape.
    pub fn dabs(&self, params: SearchParams) -> DabsConfig {
        let mut cfg = DabsConfig::dabs(self.devices, self.blocks);
        cfg.params = params;
        cfg
    }

    /// ABS-baseline config at this plan's device/block shape.
    pub fn abs(&self, params: SearchParams) -> DabsConfig {
        let mut cfg = DabsConfig::abs_baseline(self.devices, self.blocks);
        cfg.params = params;
        cfg
    }

    /// Seed for measurement arm `arm` under this plan.
    pub fn arm_seed(&self, arm: usize) -> u64 {
        arm_seed(self.seed, arm)
    }
}

/// A benchmark instance with its family and paper search parameters.
pub struct BenchInstance {
    pub label: String,
    pub family: Family,
    pub model: Arc<QuboModel>,
    pub params: SearchParams,
}

/// All nine Table V/VI instances (three per problem family) as ready-to-run
/// [`BenchInstance`]s.
pub fn problem_suite(full: bool, seed: u64) -> Vec<BenchInstance> {
    let mut out = Vec::new();
    for b in instances::maxcut_set(full, seed) {
        out.push(BenchInstance {
            label: b.label.to_string(),
            family: Family::MaxCut,
            model: Arc::new(b.problem.to_qubo()),
            params: SearchParams::maxcut(),
        });
    }
    for b in instances::qap_set(full, seed) {
        out.push(BenchInstance {
            label: b.label.to_string(),
            family: Family::Qap,
            model: Arc::new(b.instance.to_qubo(b.penalty)),
            params: SearchParams::qap_qasp(),
        });
    }
    for b in instances::qasp_set(full, seed) {
        out.push(BenchInstance {
            label: b.label.clone(),
            family: Family::Qasp,
            model: Arc::new(b.instance.qubo().clone()),
            params: SearchParams::qap_qasp(),
        });
    }
    out
}

/// Measure `runs` repetitions of every named config against a shared
/// reference energy, each arm on its own canonical seed stream.
pub fn measure_arms(
    model: &Arc<QuboModel>,
    configs: &[(String, DabsConfig)],
    runs: usize,
    base_seed: u64,
    budget: Duration,
    reference: i64,
) -> Vec<(String, RepeatStats)> {
    configs
        .iter()
        .enumerate()
        .map(|(i, (name, cfg))| {
            let stats = repeat_solver(runs, arm_seed(base_seed, i), |s| {
                dabs_run_outcome(model, cfg, s, reference, budget)
            });
            (name.clone(), stats)
        })
        .collect()
}

/// The Table II–IV measurement protocol: a long DABS run establishes the
/// potentially-optimal reference, then DABS and the ABS baseline repeat
/// against it on the canonical arm seed streams.
pub struct PairMeasurement {
    pub reference: i64,
    pub dabs_cfg: DabsConfig,
    pub dabs: RepeatStats,
    pub abs: RepeatStats,
}

impl PairMeasurement {
    /// Best energy seen by any measured run (for convergence warnings).
    pub fn observed_best(&self) -> i64 {
        self.reference
            .min(self.dabs.best_energy())
            .min(self.abs.best_energy())
    }
}

/// Run the shared DABS-vs-ABS protocol for one instance.
pub fn measure_dabs_abs(
    model: &Arc<QuboModel>,
    params: SearchParams,
    plan: &RunPlan,
    family: Family,
) -> PairMeasurement {
    let budget = plan.budget(family);
    let dabs_cfg = plan.dabs(params);
    let abs_cfg = plan.abs(params);
    let reference = establish_reference(model, &dabs_cfg, budget * 3);
    let mut measured = measure_arms(
        model,
        &[
            ("DABS".to_string(), dabs_cfg.clone()),
            ("ABS".to_string(), abs_cfg),
        ],
        plan.runs,
        plan.seed,
        budget,
        reference,
    );
    let abs = measured.pop().expect("two arms").1;
    let dabs = measured.pop().expect("two arms").1;
    PairMeasurement {
        reference,
        dabs_cfg,
        dabs,
        abs,
    }
}

/// The shared "reference did not converge" note the table bins print when a
/// measured run beats the reference energy.
pub fn warn_unconverged(label: &str, reference: i64, observed_best: i64) {
    if observed_best < reference {
        println!(
            "note: {label} reference {reference} was not converged — a measured run reached \
             {observed_best}; rerun with a larger --budget-ms for tighter TTS statistics"
        );
    }
}

// ---------------------------------------------------------------------------
// Suite scale: per-mode instance sizes and budgets
// ---------------------------------------------------------------------------

/// Per-[`SuiteMode`] scale knobs for the deterministic suite entries.
pub struct Scale {
    /// Seeds per instance in the time-to-target entries.
    pub runs: usize,
    /// Batch budget of the long reference run.
    pub ref_batches: u64,
    /// Batch budget of each measured run.
    pub run_batches: u64,
    /// Seeds per (instance, arm) in the ablation entries.
    pub abl_runs: usize,
    /// Batch budget per ablation run.
    pub abl_batches: u64,
}

impl Scale {
    pub fn of(mode: SuiteMode) -> Scale {
        match mode {
            SuiteMode::Test => Scale {
                runs: 2,
                ref_batches: 260,
                run_batches: 120,
                abl_runs: 1,
                abl_batches: 80,
            },
            SuiteMode::Smoke => Scale {
                runs: 3,
                ref_batches: 1_200,
                run_batches: 420,
                abl_runs: 2,
                abl_batches: 260,
            },
            SuiteMode::Full => Scale {
                runs: 5,
                ref_batches: 8_000,
                run_batches: 2_500,
                abl_runs: 3,
                abl_batches: 1_200,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Time-to-target per problem family (suite entries)
// ---------------------------------------------------------------------------

/// Deterministic time-to-target scenarios: sequential solver, batch-count
/// budgets, fixed seed streams — so energies, success rates, and flip counts
/// reproduce bit-for-bit and can be gated tightly, while wall-clock TTS is
/// recorded as an ungated trajectory metric.
pub mod ttt {
    use super::*;
    use dabs_problems::{gset, QaspInstance, Topology};

    fn maxcut_instances(mode: SuiteMode, seed: u64) -> Vec<(String, QuboModel, SearchParams)> {
        let set: Vec<(&str, dabs_problems::MaxCutProblem)> = match mode {
            SuiteMode::Test => vec![
                ("k2000", gset::k2000_like(40, seed)),
                ("g22", gset::g22_like(48, 140, seed)),
                ("g39", gset::g39_like(48, 90, seed)),
            ],
            _ => instances::maxcut_set(mode == SuiteMode::Full, seed)
                .into_iter()
                .zip(["k2000", "g22", "g39"])
                .map(|(b, key)| (key, b.problem))
                .collect(),
        };
        set.into_iter()
            .map(|(key, p)| (key.to_string(), p.to_qubo(), SearchParams::maxcut()))
            .collect()
    }

    fn qap_instances(mode: SuiteMode, seed: u64) -> Vec<(String, QuboModel, SearchParams)> {
        // The CI-scale trio is already tiny (n ≤ 9); Test reuses it.
        instances::qap_set(mode == SuiteMode::Full, seed)
            .into_iter()
            .zip(["tai", "tho", "nug"])
            .map(|(b, key)| {
                (
                    key.to_string(),
                    b.instance.to_qubo(b.penalty),
                    SearchParams::qap_qasp(),
                )
            })
            .collect()
    }

    fn qasp_instances(mode: SuiteMode, seed: u64) -> Vec<(String, QuboModel, SearchParams)> {
        let (topology, resolutions): (Topology, &[i64]) = match mode {
            SuiteMode::Test => (
                Topology::pegasus_like(2, 2, 6.0, seed).with_faults(24, 60, seed),
                &[1, 16],
            ),
            SuiteMode::Smoke => (
                Topology::pegasus_like(6, 6, 10.0, seed).with_faults(280, 1_700, seed),
                &[1, 16, 256],
            ),
            SuiteMode::Full => (Topology::advantage_working_graph(seed), &[1, 16, 256]),
        };
        resolutions
            .iter()
            .map(|&r| {
                let inst = QaspInstance::generate(&topology, r, seed.wrapping_add(r as u64));
                (
                    format!("qasp{r}"),
                    inst.qubo().clone(),
                    SearchParams::qap_qasp(),
                )
            })
            .collect()
    }

    /// Deterministic long-run reference energy (sequential, batch budget).
    pub fn det_reference(model: &QuboModel, params: SearchParams, seed: u64, batches: u64) -> i64 {
        let mut cfg = DabsConfig::dabs(4, 2);
        cfg.params = params;
        cfg.seed = seed;
        let solver = DabsSolver::new(cfg).expect("valid config");
        solver
            .run_sequential(model, Termination::batches(batches))
            .energy
    }

    fn family_metrics(
        cfg: &SuiteConfig,
        instances: Vec<(String, QuboModel, SearchParams)>,
    ) -> MetricSet {
        let scale = Scale::of(cfg.mode);
        let mut out = MetricSet::new();
        let mut successes = 0usize;
        let mut total_runs = 0usize;
        out.push(
            Metric::new(
                "instances",
                instances.len() as f64,
                "count",
                Direction::HigherIsBetter,
            )
            .deterministic()
            .gated(0.0),
        );
        for (key, model, params) in instances {
            let reference = det_reference(&model, params, cfg.seed, scale.ref_batches);
            let mut best = i64::MAX;
            let mut reached = 0usize;
            let mut flips = 0u64;
            let mut tts = Vec::new();
            for k in 0..scale.runs as u64 {
                let mut run_cfg = DabsConfig::dabs(4, 2);
                run_cfg.params = params;
                run_cfg.seed = arm_seed(cfg.seed, 0).wrapping_add(k);
                let solver = DabsSolver::new(run_cfg).expect("valid config");
                let r = solver.run_sequential(
                    &model,
                    Termination::batches(scale.run_batches).with_target(reference),
                );
                best = best.min(r.energy);
                flips += r.flips;
                if r.reached_target {
                    reached += 1;
                    tts.push(r.time_to_best.as_secs_f64());
                }
            }
            successes += reached;
            total_runs += scale.runs;
            out.push(
                Metric::new(
                    format!("{key}.ref_energy"),
                    reference as f64,
                    "energy",
                    Direction::LowerIsBetter,
                )
                .deterministic()
                .gated(0.2),
            );
            out.push(
                Metric::new(
                    format!("{key}.best_energy"),
                    best as f64,
                    "energy",
                    Direction::LowerIsBetter,
                )
                .deterministic()
                .gated(0.2),
            );
            out.push(
                Metric::new(
                    format!("{key}.success_rate"),
                    reached as f64 / scale.runs as f64,
                    "ratio",
                    Direction::HigherIsBetter,
                )
                .deterministic()
                .gated(0.34),
            );
            out.push(
                Metric::new(
                    format!("{key}.total_flips"),
                    flips as f64,
                    "flips",
                    Direction::HigherIsBetter,
                )
                .deterministic(),
            );
            if !tts.is_empty() {
                out.push(Metric::new(
                    format!("{key}.mean_tts_s"),
                    tts.iter().sum::<f64>() / tts.len() as f64,
                    "s",
                    Direction::LowerIsBetter,
                ));
            }
        }
        out.push(
            Metric::new(
                "success_rate",
                successes as f64 / total_runs.max(1) as f64,
                "ratio",
                Direction::HigherIsBetter,
            )
            .deterministic()
            .gated(0.25),
        );
        out
    }

    pub fn maxcut(cfg: &SuiteConfig) -> MetricSet {
        family_metrics(cfg, maxcut_instances(cfg.mode, cfg.seed))
    }

    pub fn qap(cfg: &SuiteConfig) -> MetricSet {
        family_metrics(cfg, qap_instances(cfg.mode, cfg.seed))
    }

    pub fn qasp(cfg: &SuiteConfig) -> MetricSet {
        family_metrics(cfg, qasp_instances(cfg.mode, cfg.seed))
    }
}

// ---------------------------------------------------------------------------
// Kernel density sweep
// ---------------------------------------------------------------------------

/// CSR vs dense flip-throughput sweep — the measurement behind both the
/// `kernel_shootout` bin and the suite's `kernel_sweep` entry.
pub mod kernel {
    use super::*;
    use dabs_model::{
        CsrKernel, DenseKernel, IncrementalState, KernelChoice, QuboBuilder, QuboKernel,
    };
    use dabs_rng::{Rng64, Xorshift64Star};
    use std::time::Instant;

    /// The CI speedup contract: dense must beat CSR by at least this
    /// factor wherever density ≥ [`SPEEDUP_CONTRACT_MIN_DENSITY`].
    /// Calibration history: the original line was density ≥ 0.5 with ~3.5×
    /// headroom, against a CSR flip that paid a read-modify-write per
    /// entry. The segment-layer rewrite of the CSR flip (explicit
    /// load/compute/store) doubled CSR throughput and moved the dense/CSR
    /// crossover from ~0.12 to ~0.3 density, so the 2× line now holds
    /// from 0.75 up (measured ~3.2× at 0.95); at 0.5 the ratio is ~1.9×
    /// and is recorded as ungated trajectory instead.
    pub const SMOKE_MIN_SPEEDUP: f64 = 2.0;

    /// Lowest requested density the speedup contract applies to.
    pub const SPEEDUP_CONTRACT_MIN_DENSITY: f64 = 0.75;

    /// Absolute Mflip/s floor every backend must clear at every density —
    /// a last-resort tripwire for catastrophic kernel regressions (an
    /// accidental O(n²) flip, a debug-build suite run). Set ~3× below the
    /// slowest point ever recorded (CSR at density 0.95: 0.15 Mflip/s in
    /// BENCH_4) so loaded CI boxes never trip it spuriously.
    pub const KERNEL_MIN_MFLIPS: f64 = 0.05;

    /// One measured density point.
    pub struct SweepPoint {
        /// The density the sweep asked for — the stable identity of the
        /// point (metric keys, contract threshold).
        pub requested: f64,
        /// The density the random instance actually achieved (display).
        pub density: f64,
        pub nnz: usize,
        /// Backend the auto policy would pick at model build.
        pub auto: &'static str,
        pub csr_rate: f64,
        pub dense_rate: f64,
    }

    impl SweepPoint {
        pub fn speedup(&self) -> f64 {
            self.dense_rate / self.csr_rate
        }
    }

    /// Random QUBO with dense storage forced so both backends are
    /// measurable on one model.
    pub fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = QuboBuilder::new(n);
        b.kernel(KernelChoice::Dense);
        for i in 0..n {
            b.add_linear(i, rng.next_range_i64(-9, 9));
            for j in (i + 1)..n {
                if rng.next_bool(density) {
                    b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
                }
            }
        }
        b.build().expect("valid model")
    }

    /// Apply `order` to a fresh state twice (warm-up + timed); flips/s of
    /// the timed pass.
    pub fn measure<K: QuboKernel>(model: &QuboModel, kernel: K, order: &[u32]) -> f64 {
        let mut state = IncrementalState::with_kernel(model, kernel);
        for &i in order {
            state.flip(i as usize);
        }
        let start = Instant::now();
        for &i in order {
            state.flip(i as usize);
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        std::hint::black_box(state.energy());
        order.len() as f64 / secs
    }

    /// Run the sweep: one model per density, a pre-generated flip sequence
    /// (RNG off the measured path), identical logical work per backend.
    pub fn sweep(n: usize, flips: usize, seed: u64, densities: &[f64]) -> Vec<SweepPoint> {
        densities
            .iter()
            .enumerate()
            .map(|(idx, &density)| {
                let model = random_model(n, density, seed.wrapping_add(idx as u64));
                let mut rng = Xorshift64Star::new(seed ^ 0xF11F_5EED);
                let order: Vec<u32> = (0..flips).map(|_| rng.next_index(n) as u32).collect();
                let csr_rate = measure(&model, CsrKernel::new(&model), &order);
                let dense_rate = measure(&model, DenseKernel::new(&model), &order);
                let auto = {
                    let mut probe = model.clone();
                    probe.select_kernel(KernelChoice::Auto);
                    probe.kernel_kind().name()
                };
                SweepPoint {
                    requested: density,
                    density: model.density(),
                    nnz: model.edge_count(),
                    auto,
                    csr_rate,
                    dense_rate,
                }
            })
            .collect()
    }

    /// Speedup-contract violations across a sweep (empty = contract holds).
    /// The threshold tests the *requested* density, so a nominal contract
    /// point stays under contract even when random sampling lands the
    /// achieved density a hair below it.
    pub fn violations(points: &[SweepPoint]) -> Vec<String> {
        points
            .iter()
            .filter(|p| {
                p.requested >= SPEEDUP_CONTRACT_MIN_DENSITY && p.speedup() < SMOKE_MIN_SPEEDUP
            })
            .map(|p| {
                format!(
                    "density {:.2}: dense is only {:.2}× csr (contract: ≥ {SMOKE_MIN_SPEEDUP}×)",
                    p.density,
                    p.speedup()
                )
            })
            .collect()
    }

    /// Sweep shape per suite mode: `(n, timed flips, densities)`.
    pub fn shape(mode: SuiteMode) -> (usize, usize, Vec<f64>) {
        match mode {
            SuiteMode::Test => (192, 8_000, vec![0.05, 0.5, 0.95]),
            SuiteMode::Smoke => (1_024, 60_000, vec![0.05, 0.5, 0.95]),
            SuiteMode::Full => (1_024, 400_000, vec![0.05, 0.1, 0.25, 0.5, 0.75, 0.95]),
        }
    }

    /// The suite entry: throughput per backend per density (trajectory),
    /// dense/CSR speedup gated where the contract applies, and the contract
    /// verdict itself as a gated boolean.
    ///
    /// Timing-derived gates only apply outside `Test` mode: at test scale
    /// (tiny n, debug builds, loaded CI boxes running tests in parallel)
    /// the dense/CSR ratio is noise, and gating it would make same-seed
    /// test runs spuriously incomparable.
    pub fn entry(cfg: &SuiteConfig) -> MetricSet {
        let gate_timing = cfg.mode != SuiteMode::Test;
        let (n, flips, densities) = shape(cfg.mode);
        let points = sweep(n, flips, cfg.seed, &densities);
        let bad = violations(&points);
        let mut out = MetricSet::new();
        for p in &points {
            let key = format!("d{:02}", (p.requested * 100.0).round() as u32);
            out.push(Metric::new(
                format!("{key}.csr_mflips"),
                p.csr_rate / 1e6,
                "Mflip/s",
                Direction::HigherIsBetter,
            ));
            out.push(Metric::new(
                format!("{key}.dense_mflips"),
                p.dense_rate / 1e6,
                "Mflip/s",
                Direction::HigherIsBetter,
            ));
            let mut speedup = Metric::new(
                format!("{key}.speedup"),
                p.speedup(),
                "ratio",
                Direction::HigherIsBetter,
            );
            if p.requested >= SPEEDUP_CONTRACT_MIN_DENSITY && gate_timing {
                // Machine-relative (both backends run on the same box), so
                // it gates meaningfully across hosts — unlike raw flips/s.
                speedup = speedup.gated(0.65);
            }
            out.push(speedup);
        }
        let mut contract = Metric::new(
            "contract_ok",
            if bad.is_empty() { 1.0 } else { 0.0 },
            "bool",
            Direction::HigherIsBetter,
        );
        if gate_timing {
            contract = contract.gated(0.0);
        }
        out.push(contract);
        let below_floor = points.iter().any(|p| {
            p.csr_rate / 1e6 < KERNEL_MIN_MFLIPS || p.dense_rate / 1e6 < KERNEL_MIN_MFLIPS
        });
        let mut floor = Metric::new(
            "floor_ok",
            if below_floor { 0.0 } else { 1.0 },
            "bool",
            Direction::HigherIsBetter,
        );
        if gate_timing {
            floor = floor.gated(0.0);
        }
        out.push(floor);
        out
    }
}

// ---------------------------------------------------------------------------
// Strategy-level selection: segment aggregates vs full-scan reference
// ---------------------------------------------------------------------------

/// Strategy-level flip throughput of the segment-aggregate selection
/// primitives against the pre-segment full-scan path
/// (`dabs_search::reference`) — the measurement behind the suite's
/// `scan_sweep` entry.
///
/// Both arms run the *same* strategy logic on the same seeds and produce
/// bit-identical trajectories (enforced by `tests/solver_parity.rs`), so
/// the flips/s ratio isolates exactly the selection cost. Being a ratio of
/// two timings on one box (each arm taken best-of-N to shed scheduler
/// noise), it gates meaningfully across machines, like the kernel sweep's
/// dense/CSR speedup.
///
/// Two sparse n = 1024 instances, because the win is Δ-distribution
/// dependent:
///
/// * `gset` — G22-like fixed-degree (deg ≈ 10) with ±9 weights: gains
///   collapse onto few distinct values, so threshold selections keep large
///   candidate sets, and both arms draw one reservoir RNG value per
///   candidate. The segment arm finds those candidates with branch-free
///   64-lane masks and folds the positive min branch-free, where the scan
///   arm branches on every gain, so the batch composite wins here too
///   (2.9–4.2× in seed-1 smokes on a 2-vCPU AVX-512 host, against
///   0.85–1.07× before the masks). The points stay ungated: this is the
///   regime where the draws are the larger share of the segment arm.
/// * `weighted` — deg ≈ 24 with ±99 weights: gains spread out, candidate
///   sets shrink to near the minimum, and the segment filter skips almost
///   everything. This is where the paper's workhorse PositiveMin (the
///   most-executed algorithm, Table V) and the production batch loop
///   (alternating Greedy and PositiveMin legs, §III-B) live — both under
///   the gated ≥ [`scan::SCAN_MIN_SPEEDUP`]× contract.
pub mod scan {
    use super::*;
    use dabs_model::{BestTracker, IncrementalState, QuboModel, Solution};
    use dabs_rng::{Rng64, Xorshift64Star};
    use dabs_search::{cyclic_min, max_min, positive_min, random_min, reference, TabuList};
    use std::time::{Duration, Instant};

    /// The CI speedup contract: segment-aggregate selection must beat the
    /// full-scan path by at least this factor on every contract strategy
    /// (measured headroom is ~7×, so a trip means a real selection
    /// regression, not runner noise).
    pub const SCAN_MIN_SPEEDUP: f64 = 3.0;

    /// Sweep shape per suite mode: `(n, timed flips per arm, best-of
    /// repetitions per arm)`.
    pub fn shape(mode: SuiteMode) -> (usize, u64, usize) {
        match mode {
            SuiteMode::Test => (256, 3_000, 1),
            SuiteMode::Smoke => (1_024, 30_000, 3),
            SuiteMode::Full => (1_024, 150_000, 5),
        }
    }

    /// Fixed-edge-count random QUBO (`edges` off-diagonal terms, weights
    /// `±wmax`) — degree-controlled sparsity, like the G-set family.
    pub fn sparse_model(n: usize, edges: usize, wmax: i64, seed: u64) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = dabs_model::QuboBuilder::new(n);
        let mut added = 0usize;
        while added < edges {
            let i = rng.next_index(n);
            let j = rng.next_index(n);
            if i == j {
                continue;
            }
            let mut w = rng.next_range_i64(-wmax, wmax);
            if w == 0 {
                w = 1;
            }
            b.add_quadratic(i.min(j), i.max(j), w);
            added += 1;
        }
        for i in 0..n {
            b.add_linear(i, rng.next_range_i64(-wmax, wmax));
        }
        b.build().expect("valid model")
    }

    /// One measured (strategy, instance) pair: both arms, same work, plus
    /// whether the speedup participates in the gated contract.
    pub struct ScanPoint {
        pub name: &'static str,
        pub scan_rate: f64,
        pub seg_rate: f64,
        pub gated: bool,
        /// RandomMin's generator draws per flip in the production arm's
        /// timed legs (RandomMin only).
        pub draws_per_flip: Option<f64>,
    }

    impl ScanPoint {
        pub fn speedup(&self) -> f64 {
            self.seg_rate / self.scan_rate
        }
    }

    /// Which strategy a measurement arm runs; `seg` selects the
    /// production implementation vs its reference in
    /// `dabs_search::reference`.
    #[derive(Clone, Copy)]
    enum Strategy {
        MaxMin,
        PositiveMin,
        CyclicMin,
        /// RandomMin legs of `⌈0.1 n⌉` flips, as a batch runs them, so each
        /// leg walks the whole cubic schedule; the reference arm is the
        /// libm-`ln` gap ([`reference::random_min_ln`]), not a scan.
        RandomMin,
        Greedy,
        /// The §III-B batch composite: alternating Greedy-to-local-minimum
        /// and PositiveMin legs of `⌈0.1 n⌉` flips — the work a resident
        /// block actually performs between targets.
        Batch,
    }

    fn run_iterative<R: Rng64 + Clone>(
        strategy: Strategy,
        seg: bool,
        st: &mut IncrementalState<'_>,
        best: &mut BestTracker,
        tabu: &mut TabuList,
        rng: &mut R,
        flips: u64,
    ) -> u64 {
        match (strategy, seg) {
            (Strategy::MaxMin, true) => max_min(st, best, tabu, rng, flips),
            (Strategy::MaxMin, false) => reference::max_min_scan(st, best, tabu, rng, flips),
            (Strategy::PositiveMin, true) => positive_min(st, best, tabu, rng, flips),
            (Strategy::PositiveMin, false) => {
                reference::positive_min_scan(st, best, tabu, rng, flips)
            }
            (Strategy::CyclicMin, true) => cyclic_min(st, best, tabu, flips),
            (Strategy::CyclicMin, false) => reference::cyclic_min_scan(st, best, tabu, flips),
            (Strategy::RandomMin, seg) => {
                let leg = (st.n() as u64).div_ceil(10).min(flips);
                if seg {
                    random_min(st, best, tabu, rng, leg)
                } else {
                    reference::random_min_ln(st, best, tabu, rng, leg)
                }
            }
            (Strategy::Batch, true) => {
                let leg = (st.n() as u64).div_ceil(10);
                let mut done = dabs_search::greedy(st, best, tabu, u64::MAX);
                done += positive_min(st, best, tabu, rng, leg.min(flips));
                done
            }
            (Strategy::Batch, false) => {
                let leg = (st.n() as u64).div_ceil(10);
                let mut done = reference::greedy_scan(st, best, tabu, u64::MAX);
                done += reference::positive_min_scan(st, best, tabu, rng, leg.min(flips));
                done
            }
            // Greedy is measured by `run_arm`'s descent loop, never here.
            (Strategy::Greedy, _) => unreachable!("greedy uses the descent harness"),
        }
    }

    /// Time one arm once. Iterative strategies (and the batch composite)
    /// run a warm-up fraction then a timed budget. Greedy times pure
    /// descents from a stream of random starts — the `O(n + m)` re-seeding
    /// between local minima is identical state management in both arms and
    /// would otherwise drown the selection cost this entry measures.
    fn run_arm(model: &QuboModel, strategy: Strategy, seg: bool, flips: u64, seed: u64) -> f64 {
        let n = model.n();
        let mut st = IncrementalState::new(model);
        let mut best = BestTracker::unbounded(n);
        let mut tabu = TabuList::new(n, 8);
        if matches!(strategy, Strategy::Greedy) {
            let mut starts = Xorshift64Star::new(seed ^ 0x5EED);
            // warm-up descent
            st.reset_to(Solution::random(n, &mut starts));
            if seg {
                dabs_search::greedy(&mut st, &mut best, &mut tabu, u64::MAX);
            } else {
                reference::greedy_scan(&mut st, &mut best, &mut tabu, u64::MAX);
            }
            let mut done = 0u64;
            let mut busy = Duration::ZERO;
            while done < flips {
                st.reset_to(Solution::random(n, &mut starts));
                let t0 = Instant::now();
                let used = if seg {
                    dabs_search::greedy(&mut st, &mut best, &mut tabu, u64::MAX)
                } else {
                    reference::greedy_scan(&mut st, &mut best, &mut tabu, u64::MAX)
                };
                busy += t0.elapsed();
                done += used.max(1);
            }
            std::hint::black_box(best.energy());
            return done as f64 / busy.as_secs_f64().max(1e-9);
        }
        let mut rng = Xorshift64Star::new(seed);
        let (done, secs, _) = timed_flips(
            strategy, seg, &mut st, &mut best, &mut tabu, &mut rng, flips,
        );
        std::hint::black_box(best.energy());
        done as f64 / secs
    }

    /// An iterative arm's flips: a warm-up fraction, then a timed budget
    /// of `flips`. Returns the timed flips, their seconds, and the
    /// generator as it stood when the timed flips began.
    fn timed_flips<R: Rng64 + Clone>(
        strategy: Strategy,
        seg: bool,
        st: &mut IncrementalState<'_>,
        best: &mut BestTracker,
        tabu: &mut TabuList,
        rng: &mut R,
        flips: u64,
    ) -> (u64, f64, R) {
        let mut warm = 0u64;
        while warm < (flips / 8).max(64) {
            warm += run_iterative(strategy, seg, st, best, tabu, rng, 256).max(1);
        }
        let start = rng.clone();
        let mut done = 0u64;
        let t0 = Instant::now();
        while done < flips {
            done += run_iterative(strategy, seg, st, best, tabu, rng, flips - done).max(1);
        }
        (done, t0.elapsed().as_secs_f64().max(1e-9), start)
    }

    /// A generator that counts its raw draws. A clone carries the count,
    /// so RandomMin's hand-back (restore the clone saved before a block,
    /// redraw what the walk used) leaves the count at the generator's
    /// position.
    #[derive(Clone)]
    struct CountingRng {
        rng: Xorshift64Star,
        draws: u64,
    }

    impl Rng64 for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.rng.next_u64()
        }
    }

    /// Generator draws per flip of the production RandomMin arm's timed
    /// legs, over every repetition [`measure`] times: an untimed replay of
    /// each repetition's seed, so the count is deterministic.
    fn randommin_draws_per_flip(model: &QuboModel, flips: u64, reps: usize) -> f64 {
        let n = model.n();
        let (mut draws, mut done) = (0u64, 0u64);
        for r in 0..reps {
            let mut st = IncrementalState::new(model);
            let mut best = BestTracker::unbounded(n);
            let mut tabu = TabuList::new(n, 8);
            let mut rng = CountingRng {
                rng: Xorshift64Star::new(rep_seed(r)),
                draws: 0,
            };
            let (flipped, _, start) = timed_flips(
                Strategy::RandomMin,
                true,
                &mut st,
                &mut best,
                &mut tabu,
                &mut rng,
                flips,
            );
            draws += rng.draws - start.draws;
            done += flipped;
        }
        draws as f64 / done as f64
    }

    /// Best-of-`reps` throughput for one arm (the max sheds scheduler
    /// noise; both arms get the same treatment).
    fn measure(model: &QuboModel, strategy: Strategy, seg: bool, flips: u64, reps: usize) -> f64 {
        (0..reps)
            .map(|r| run_arm(model, strategy, seg, flips, rep_seed(r)))
            .fold(0.0f64, f64::max)
    }

    /// The generator seed of repetition `r` of an arm.
    fn rep_seed(r: usize) -> u64 {
        5 + r as u64
    }

    /// Run the sweep over both instances.
    pub fn sweep(mode: SuiteMode, seed: u64) -> Vec<ScanPoint> {
        let (n, flips, reps) = shape(mode);
        let gset = sparse_model(n, 5 * n, 9, seed.wrapping_add(79));
        let weighted = sparse_model(n, 12 * n, 99, seed.wrapping_add(80));
        let plan: [(&'static str, &QuboModel, Strategy, bool); 7] = [
            ("gset.greedy", &gset, Strategy::Greedy, false),
            ("gset.cyclicmin", &gset, Strategy::CyclicMin, false),
            (
                "weighted.positivemin",
                &weighted,
                Strategy::PositiveMin,
                true,
            ),
            ("weighted.maxmin", &weighted, Strategy::MaxMin, false),
            ("weighted.randommin", &weighted, Strategy::RandomMin, false),
            ("weighted.batch", &weighted, Strategy::Batch, true),
            ("gset.batch", &gset, Strategy::Batch, false),
        ];
        plan.into_iter()
            .map(|(name, model, strategy, gated)| ScanPoint {
                name,
                scan_rate: measure(model, strategy, false, flips, reps),
                seg_rate: measure(model, strategy, true, flips, reps),
                gated,
                draws_per_flip: matches!(strategy, Strategy::RandomMin)
                    .then(|| randommin_draws_per_flip(model, flips, reps)),
            })
            .collect()
    }

    /// Contract violations across a sweep (empty = contract holds).
    pub fn violations(points: &[ScanPoint]) -> Vec<String> {
        points
            .iter()
            .filter(|p| p.gated && p.speedup() < SCAN_MIN_SPEEDUP)
            .map(|p| {
                format!(
                    "{}: segment selection is only {:.2}\u{d7} the full scan \
                     (contract: \u{2265} {SCAN_MIN_SPEEDUP}\u{d7})",
                    p.name,
                    p.speedup()
                )
            })
            .collect()
    }

    /// The suite entry: per-point throughput for both arms (trajectory),
    /// speedups (contract points gated with a drift tolerance), the
    /// minimum contract speedup, and the \u{2265}3\u{d7} contract verdict. As in
    /// the kernel entry, timing gates are suspended at `Test` scale.
    pub fn entry(cfg: &SuiteConfig) -> MetricSet {
        let gate_timing = cfg.mode != SuiteMode::Test;
        let points = sweep(cfg.mode, cfg.seed);
        let bad = violations(&points);
        let mut out = MetricSet::new();
        let mut min_gated = f64::INFINITY;
        for p in &points {
            out.push(Metric::new(
                format!("{}.scan_mflips", p.name),
                p.scan_rate / 1e6,
                "Mflip/s",
                Direction::HigherIsBetter,
            ));
            out.push(Metric::new(
                format!("{}.seg_mflips", p.name),
                p.seg_rate / 1e6,
                "Mflip/s",
                Direction::HigherIsBetter,
            ));
            let mut speedup = Metric::new(
                format!("{}.speedup", p.name),
                p.speedup(),
                "ratio",
                Direction::HigherIsBetter,
            );
            if p.gated {
                min_gated = min_gated.min(p.speedup());
                if gate_timing {
                    // Machine-relative (both arms on one box) — gates
                    // meaningfully across hosts, unlike raw flips/s.
                    speedup = speedup.gated(0.5);
                }
            }
            out.push(speedup);
            if let Some(draws) = p.draws_per_flip {
                out.push(
                    Metric::new(
                        format!("{}.draws_per_flip", p.name),
                        draws,
                        "draws",
                        Direction::LowerIsBetter,
                    )
                    .deterministic(),
                );
                out.push(Metric::new(
                    format!("{}.ns_per_draw", p.name),
                    1e9 / (p.seg_rate * draws),
                    "ns",
                    Direction::LowerIsBetter,
                ));
            }
        }
        let mut min_speedup = Metric::new(
            "min_contract_speedup",
            if min_gated.is_finite() {
                min_gated
            } else {
                0.0
            },
            "ratio",
            Direction::HigherIsBetter,
        );
        if gate_timing {
            min_speedup = min_speedup.gated(0.5);
        }
        out.push(min_speedup);
        let mut contract = Metric::new(
            "contract_ok",
            if bad.is_empty() { 1.0 } else { 0.0 },
            "bool",
            Direction::HigherIsBetter,
        );
        if gate_timing {
            contract = contract.gated(0.0);
        }
        out.push(contract);
        for v in &bad {
            eprintln!("scan_sweep contract violation: {v}");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Bit-sliced bulk search
// ---------------------------------------------------------------------------

/// Prices the bit-sliced bulk-search kernel against its scalar reference:
/// a [`dabs_model::BatchState`] + [`dabs_search::BulkSweep`] runs all lanes
/// through the lockstep threshold-accepting sweep in one pass over the
/// weights, while the scalar arm runs the same trajectory as independent
/// [`dabs_model::IncrementalState`] + [`dabs_search::ScalarSweep`] pairs.
/// The two arms are bit-identical per lane (same lane seeds, same
/// calibration), so the flip budgets match by construction and the speedup
/// is a pure wall-time ratio. Contract: ≥ 4× aggregate Mflip/s (10× is the
/// recorded, ungated target) with every lane in parity.
pub mod batch {
    use super::*;
    use dabs_model::{BatchState, CsrKernel, IncrementalState, Solution};
    use dabs_rng::Xorshift64Star;
    use dabs_search::{lane_seed, BulkSweep, ScalarSweep, BULK_CYCLE_ROUNDS};
    use std::time::Instant;

    /// Conservative CI floor for the batch-vs-scalar speedup. The paper's
    /// bulk-search argument needs roughly an order of magnitude; measured
    /// headroom on a release build is well above this, so a trip means a
    /// real lane-kernel regression, not runner noise.
    pub const BATCH_MIN_SPEEDUP: f64 = 4.0;
    /// The aspirational target, recorded ungated as `vs_target` so the
    /// trajectory shows progress toward it across machines.
    pub const BATCH_TARGET_SPEEDUP: f64 = 10.0;

    /// Sweep shape per suite mode: `(n, lanes, cooling cycles, best-of
    /// repetitions)`.
    pub fn shape(mode: SuiteMode) -> (usize, usize, u64, usize) {
        match mode {
            SuiteMode::Test => (256, 64, 1, 1),
            SuiteMode::Smoke => (1_024, 256, 2, 3),
            SuiteMode::Full => (1_024, 256, 8, 5),
        }
    }

    /// One measured instance: best-of-reps rates for both arms plus the
    /// deterministic cross-checks from the final repetition.
    pub struct BatchPoint {
        pub batch_rate: f64,
        pub scalar_rate: f64,
        /// Every lane of the final rep bit-identical to its scalar run
        /// (energy, best, flip count, solution) with equal total flips.
        pub parity_ok: bool,
        /// Total accepted flips of the final rep (equal in both arms when
        /// `parity_ok`).
        pub flips: u64,
    }

    impl BatchPoint {
        pub fn speedup(&self) -> f64 {
            self.batch_rate / self.scalar_rate.max(1e-9)
        }
    }

    /// Run both arms `reps` times on the `scan_sweep` weighted instance.
    /// State construction, lane seeding and amplitude calibration happen
    /// outside the timed region in both arms; the timed region is exactly
    /// the sweep.
    pub fn sweep(mode: SuiteMode, seed: u64) -> BatchPoint {
        let (n, lanes, cycles, reps) = shape(mode);
        let model = scan::sparse_model(n, 12 * n, 99, seed.wrapping_add(80));
        let kernel = CsrKernel::new(&model);
        let rounds = cycles * BULK_CYCLE_ROUNDS;

        let mut batch_rate = 0.0f64;
        let mut scalar_rate = 0.0f64;
        let mut parity_ok = false;
        let mut flips = 0u64;
        for r in 0..reps {
            let rep_seed = seed.wrapping_add(101 * r as u64);
            let mut starts = Xorshift64Star::new(rep_seed ^ 0x5A17);
            let lane_starts: Vec<Solution> = (0..lanes)
                .map(|_| Solution::random(n, &mut starts))
                .collect();

            // Batch arm.
            let mut bs = BatchState::new(kernel, lanes);
            for (l, start) in lane_starts.iter().enumerate() {
                bs.seed_lane(l, start);
            }
            let mut bulk = BulkSweep::new(lanes, rep_seed);
            bulk.calibrate(&bs);
            let t0 = Instant::now();
            let batch_flips = bulk.run(&mut bs, rounds);
            let batch_secs = t0.elapsed().as_secs_f64().max(1e-9);
            std::hint::black_box(bs.energies());

            // Scalar arm: the same trajectories, one state per lane.
            let mut states: Vec<IncrementalState<'_, CsrKernel<'_>>> = lane_starts
                .iter()
                .map(|s| IncrementalState::from_solution_with(&model, kernel, s.clone()))
                .collect();
            let mut sweeps: Vec<ScalarSweep> = (0..lanes)
                .map(|l| {
                    let mut sw = ScalarSweep::new(lane_seed(rep_seed, l));
                    sw.calibrate(&states[l]);
                    sw
                })
                .collect();
            let t1 = Instant::now();
            let mut scalar_flips = 0u64;
            for (st, sw) in states.iter_mut().zip(sweeps.iter_mut()) {
                scalar_flips += sw.run(st, rounds);
            }
            let scalar_secs = t1.elapsed().as_secs_f64().max(1e-9);
            std::hint::black_box(&states);

            batch_rate = batch_rate.max(batch_flips as f64 / batch_secs);
            scalar_rate = scalar_rate.max(scalar_flips as f64 / scalar_secs);
            if r == reps - 1 {
                parity_ok = batch_flips == scalar_flips
                    && (0..lanes).all(|l| {
                        bs.lane_energy(l) == states[l].energy()
                            && bs.lane_best_energy(l) == sweeps[l].best()
                            && bs.lane_flip_counts()[l] == states[l].flips()
                            && bs.lane_solution(l) == *states[l].solution()
                    });
                flips = batch_flips;
            }
        }
        BatchPoint {
            batch_rate,
            scalar_rate,
            parity_ok,
            flips,
        }
    }

    /// The suite entry. Timing gates (speedup, contract) are suspended at
    /// `Test` scale like every other kernel entry; the parity verdict is
    /// deterministic and gated in every mode — a debug-profile test run
    /// must still prove the lanes track their scalar references.
    pub fn entry(cfg: &SuiteConfig) -> MetricSet {
        let gate_timing = cfg.mode != SuiteMode::Test;
        let point = sweep(cfg.mode, cfg.seed);
        let mut out = MetricSet::new();
        out.push(Metric::new(
            "batch_mflips",
            point.batch_rate / 1e6,
            "Mflip/s",
            Direction::HigherIsBetter,
        ));
        out.push(Metric::new(
            "scalar_mflips",
            point.scalar_rate / 1e6,
            "Mflip/s",
            Direction::HigherIsBetter,
        ));
        let mut speedup = Metric::new(
            "speedup",
            point.speedup(),
            "ratio",
            Direction::HigherIsBetter,
        );
        if gate_timing {
            // Machine-relative (both arms on one box), so it gates
            // meaningfully across hosts.
            speedup = speedup.gated(0.5);
        }
        out.push(speedup);
        out.push(Metric::new(
            "vs_target",
            point.speedup() / BATCH_TARGET_SPEEDUP,
            "ratio",
            Direction::HigherIsBetter,
        ));
        out.push(
            Metric::new(
                "lane_flips",
                point.flips as f64,
                "count",
                Direction::HigherIsBetter,
            )
            .deterministic(),
        );
        out.push(
            Metric::new(
                "parity_ok",
                if point.parity_ok { 1.0 } else { 0.0 },
                "bool",
                Direction::HigherIsBetter,
            )
            .deterministic()
            .gated(0.0),
        );
        let ok = point.parity_ok && point.speedup() >= BATCH_MIN_SPEEDUP;
        let mut contract = Metric::new(
            "contract_ok",
            if ok { 1.0 } else { 0.0 },
            "bool",
            Direction::HigherIsBetter,
        );
        if gate_timing {
            contract = contract.gated(0.0);
        }
        out.push(contract);
        if !point.parity_ok {
            eprintln!("batch_sweep contract violation: lane/scalar parity broke");
        } else if gate_timing && point.speedup() < BATCH_MIN_SPEEDUP {
            eprintln!(
                "batch_sweep contract violation: bulk kernel is only {:.2}\u{d7} the scalar \
                 reference (contract: \u{2265} {BATCH_MIN_SPEEDUP}\u{d7})",
                point.speedup()
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Observability overhead
// ---------------------------------------------------------------------------

/// Prices the observability layer on the solver's hot loop: the §III-B
/// batch composite (greedy descent + PositiveMin leg) runs twice on the
/// `scan_sweep` sparse instance — once plain, once tallying every batch
/// into a [`dabs_core::ObsAccumulator`] exactly as the sequential engine
/// does (sampled 1-in-2^k publication to the global counters). The
/// contract pins the instrumented arm at ≥ 97% of plain throughput.
pub mod obs_overhead {
    use super::scan::{shape, sparse_model};
    use super::*;
    use dabs_core::ObsAccumulator;
    use dabs_model::{BestTracker, IncrementalState};
    use dabs_rng::Xorshift64Star;
    use dabs_search::{positive_min, TabuList};
    use std::time::{Duration, Instant};

    /// The CI contract: instrumentation may cost at most this fraction of
    /// flip throughput (the measured cost is ~0 — the accumulator is plain
    /// per-engine arithmetic with a sampled atomic flush — so a trip means
    /// something started touching shared state per flip).
    pub const OBS_MAX_OVERHEAD: f64 = 0.03;

    /// One measured instance: each arm's flips/s and the instrumented/plain
    /// ratio, all medians over the instance's pairs.
    pub struct OverheadPoint {
        pub name: &'static str,
        pub plain_rate: f64,
        pub instr_rate: f64,
        /// Instrumented throughput as a fraction of plain (1.0 = free).
        pub ratio: f64,
    }

    /// Per-arm timed window, the slice length the two arms alternate in,
    /// and the number of pairs per instance. Smoke: 2 instances × 7 pairs
    /// × 2 arms × ≥ 100 ms ≈ 3 s.
    fn windows(mode: SuiteMode) -> (Duration, Duration, usize) {
        match mode {
            SuiteMode::Test => (Duration::from_millis(5), Duration::from_millis(1), 1),
            SuiteMode::Smoke => (Duration::from_millis(100), Duration::from_millis(5), 7),
            SuiteMode::Full => (Duration::from_millis(200), Duration::from_millis(5), 9),
        }
    }

    /// One arm of a pair: its own resident state, advanced by batch
    /// composites in timed slices, each slice's flips/s recorded. The
    /// instrumented arm additionally times each batch and reports it
    /// (strategy, flip count, Δ-segment re-reductions, improved?, wall
    /// time) to an accumulator — the exact call sequence
    /// `SeqEngine::one_batch` makes.
    struct Arm<'m> {
        st: IncrementalState<'m>,
        best: BestTracker,
        tabu: TabuList,
        rng: Xorshift64Star,
        acc: Option<ObsAccumulator>,
        leg: u64,
        last_reds: u64,
        last_best: i64,
        secs: f64,
        rates: Vec<f64>,
    }

    impl<'m> Arm<'m> {
        /// A fresh arm after `warm` flips of untimed warm-up.
        fn new(model: &'m QuboModel, seed: u64, instrumented: bool, warm: u64) -> Self {
            let n = model.n();
            let st = IncrementalState::new(model);
            let best = BestTracker::unbounded(n);
            let mut arm = Arm {
                last_reds: st.seg_reductions(),
                last_best: best.energy(),
                st,
                best,
                tabu: TabuList::new(n, 8),
                rng: Xorshift64Star::new(seed),
                acc: instrumented.then(ObsAccumulator::new),
                leg: (n as u64).div_ceil(10),
                secs: 0.0,
                rates: Vec::new(),
            };
            let mut warmed = 0u64;
            while warmed < warm.max(64) {
                warmed += arm.batch();
            }
            arm
        }

        fn batch(&mut self) -> u64 {
            let started = self.acc.is_some().then(Instant::now);
            let (st, best, tabu) = (&mut self.st, &mut self.best, &mut self.tabu);
            let mut done = dabs_search::greedy(st, best, tabu, u64::MAX);
            done += positive_min(st, best, tabu, &mut self.rng, self.leg);
            if let (Some(acc), Some(started)) = (self.acc.as_mut(), started) {
                let reds = st.seg_reductions();
                let improved = best.energy() < self.last_best;
                acc.on_batch(0, done, reds - self.last_reds, improved, started.elapsed());
                self.last_reds = reds;
                self.last_best = best.energy();
            }
            done.max(1)
        }

        /// Run batches until `slice` has elapsed and record its rate.
        fn run_for(&mut self, slice: Duration) {
            let t0 = Instant::now();
            let mut flips = 0u64;
            let secs = loop {
                flips += self.batch();
                let elapsed = t0.elapsed();
                if elapsed >= slice {
                    break elapsed.as_secs_f64();
                }
            };
            std::hint::black_box(self.best.energy());
            self.secs += secs;
            self.rates.push(flips as f64 / secs);
        }

        /// Median slice rate: a slice that another process preempted
        /// reads slow and falls off the end instead of dragging the arm.
        fn rate(&self) -> f64 {
            median(self.rates.clone())
        }
    }

    fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }

    /// Paired windows per instance. Both arms of a pair share a seed, so
    /// they walk the same search trajectory, and they run interleaved in
    /// short slices ordered ABBA (plain-first and instrumented-first
    /// alternate) until each has run its whole window: load from other
    /// processes then lands on both arms alike instead of on whichever
    /// window it happened to overlap. The verdict uses the median of the
    /// per-pair ratios of median slice rates, which a few disturbed slices
    /// or pairs cannot move.
    pub fn measure(mode: SuiteMode, seed: u64) -> Vec<OverheadPoint> {
        let (n, flips, _) = shape(mode);
        let (window, slice, pairs) = windows(mode);
        let warm = flips / 4;
        let window = window.as_secs_f64();
        let plan: [(&'static str, QuboModel); 2] = [
            (
                "gset.batch",
                sparse_model(n, 5 * n, 9, seed.wrapping_add(79)),
            ),
            (
                "weighted.batch",
                sparse_model(n, 12 * n, 99, seed.wrapping_add(80)),
            ),
        ];
        plan.iter()
            .map(|(name, model)| {
                let (mut plain, mut instr, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
                for pair in 0..pairs {
                    let mut p = Arm::new(model, 5 + pair as u64, false, warm);
                    let mut i = Arm::new(model, 5 + pair as u64, true, warm);
                    let mut plain_first = true;
                    while p.secs < window || i.secs < window {
                        let (first, second) = if plain_first {
                            (&mut p, &mut i)
                        } else {
                            (&mut i, &mut p)
                        };
                        first.run_for(slice);
                        second.run_for(slice);
                        plain_first = !plain_first;
                    }
                    plain.push(p.rate());
                    instr.push(i.rate());
                    ratios.push(i.rate() / p.rate());
                }
                OverheadPoint {
                    name,
                    plain_rate: median(plain),
                    instr_rate: median(instr),
                    ratio: median(ratios),
                }
            })
            .collect()
    }

    /// Contract violations across the measured pairs (empty = holds).
    pub fn violations(points: &[OverheadPoint]) -> Vec<String> {
        points
            .iter()
            .filter(|p| p.ratio < 1.0 - OBS_MAX_OVERHEAD)
            .map(|p| {
                format!(
                    "{}: instrumented arm runs at {:.1}% of plain throughput \
                     (contract: \u{2265} {:.0}%)",
                    p.name,
                    p.ratio * 100.0,
                    (1.0 - OBS_MAX_OVERHEAD) * 100.0
                )
            })
            .collect()
    }

    /// The suite entry: both arms' throughput (trajectory), the ratio per
    /// pair, the worst ratio, and the \u{2264}3% contract verdict. Like the
    /// other machine-timed entries, gates are suspended at `Test` scale.
    pub fn entry(cfg: &SuiteConfig) -> MetricSet {
        let gate_timing = cfg.mode != SuiteMode::Test;
        let points = measure(cfg.mode, cfg.seed);
        let bad = violations(&points);
        let mut out = MetricSet::new();
        let mut worst = f64::INFINITY;
        for p in &points {
            out.push(Metric::new(
                format!("{}.plain_mflips", p.name),
                p.plain_rate / 1e6,
                "Mflip/s",
                Direction::HigherIsBetter,
            ));
            out.push(Metric::new(
                format!("{}.instr_mflips", p.name),
                p.instr_rate / 1e6,
                "Mflip/s",
                Direction::HigherIsBetter,
            ));
            worst = worst.min(p.ratio);
            out.push(Metric::new(
                format!("{}.ratio", p.name),
                p.ratio,
                "ratio",
                Direction::HigherIsBetter,
            ));
        }
        let mut min_ratio = Metric::new(
            "min_throughput_ratio",
            if worst.is_finite() { worst } else { 0.0 },
            "ratio",
            Direction::HigherIsBetter,
        );
        if gate_timing {
            // Machine-relative (both arms on one box), so it gates
            // meaningfully across hosts; 10% slack absorbs runner noise
            // while the contract below pins the absolute floor.
            min_ratio = min_ratio.gated(0.1);
        }
        out.push(min_ratio);
        let mut contract = Metric::new(
            "contract_ok",
            if bad.is_empty() { 1.0 } else { 0.0 },
            "bool",
            Direction::HigherIsBetter,
        );
        if gate_timing {
            contract = contract.gated(0.0);
        }
        out.push(contract);
        for v in &bad {
            eprintln!("obs_overhead contract violation: {v}");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Server throughput
// ---------------------------------------------------------------------------

/// End-to-end jobs/s and latency percentiles against an in-process
/// `dabs-server` over real TCP — shared by the `server_throughput` bin, the
/// `dabs loadgen` flow, and the suite's `server_throughput` entry.
pub mod server_load {
    use super::*;
    use dabs_server::{
        drive_fleet, Client, JobSpec, LatencySummary, PoolLoad, ProblemSpec, Server, ServerConfig,
    };
    use std::time::Instant;

    /// One load shape.
    #[derive(Debug, Clone)]
    pub struct LoadSpec {
        pub clients: usize,
        pub jobs: usize,
        pub workers: usize,
        pub n: usize,
        pub batches: u64,
        pub seed: u64,
    }

    /// Load shape per suite mode.
    pub fn shape(mode: SuiteMode, seed: u64) -> LoadSpec {
        match mode {
            SuiteMode::Test => LoadSpec {
                clients: 2,
                jobs: 8,
                workers: 2,
                n: 16,
                batches: 40,
                seed,
            },
            SuiteMode::Smoke => LoadSpec {
                clients: 4,
                jobs: 32,
                workers: 2,
                n: 24,
                batches: 100,
                seed,
            },
            SuiteMode::Full => LoadSpec {
                clients: 8,
                jobs: 96,
                workers: 4,
                n: 32,
                batches: 200,
                seed,
            },
        }
    }

    /// Spin up an in-process server, run one warmup job end-to-end (thread
    /// spawning and first-touch costs stay out of the measured window), then
    /// drive the fleet and summarize. The server is shut down on *every*
    /// path — `Server` has no `Drop`, and a leaked worker pool would keep
    /// solving queued jobs under whatever the suite measures next.
    pub fn run(spec: &LoadSpec) -> Result<LatencySummary, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: spec.workers,
                queue_capacity: (spec.jobs * 2).max(64),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("cannot bind in-process server: {e}"))?;
        let result = drive(&server, spec);
        server.shutdown();
        result
    }

    fn drive(server: &Server, spec: &LoadSpec) -> Result<LatencySummary, String> {
        let addr = server.local_addr();
        {
            let mut c = Client::connect(addr).map_err(|e| format!("warmup connect: {e}"))?;
            let id = c
                .submit(&JobSpec {
                    problem: ProblemSpec::random(spec.n, 999),
                    seed: 999,
                    max_batches: Some(spec.batches),
                    ..JobSpec::default()
                })
                .map_err(|e| format!("warmup submit: {e}"))?;
            c.wait_result(id)
                .map_err(|e| format!("warmup result: {e}"))?;
        }

        let t0 = Instant::now();
        let (n, batches, seed) = (spec.n, spec.batches, spec.seed);
        let all = drive_fleet(&addr.to_string(), spec.clients, spec.jobs, move |c, j| {
            let job_seed = seed + (c * 10_007 + j) as u64;
            JobSpec {
                problem: ProblemSpec::random(n, job_seed),
                seed: job_seed,
                max_batches: Some(batches),
                ..JobSpec::default()
            }
        })?;
        let wall = t0.elapsed();
        LatencySummary::from_samples(all, wall).ok_or_else(|| "no jobs completed".to_string())
    }

    /// The suite entry. A failed run still emits a (failing) gated `ok`
    /// metric so the report stays schema-valid and the gate trips. As in
    /// the kernel entry, the wall-clock throughput gate is suspended at
    /// `Test` scale, where it would only measure CI box contention.
    pub fn entry(cfg: &SuiteConfig) -> MetricSet {
        let gate_timing = cfg.mode != SuiteMode::Test;
        let spec = shape(cfg.mode, cfg.seed);
        let mut out = MetricSet::new();
        match run(&spec) {
            Ok(s) => {
                out.push(
                    Metric::new("ok", 1.0, "bool", Direction::HigherIsBetter)
                        .deterministic()
                        .gated(0.0),
                );
                out.push(
                    Metric::new(
                        "jobs_done",
                        s.jobs as f64,
                        "count",
                        Direction::HigherIsBetter,
                    )
                    .deterministic()
                    .gated(0.0),
                );
                // Absolute throughput varies across hosts — wide tolerance.
                let mut jobs_per_s = Metric::new(
                    "jobs_per_s",
                    s.jobs_per_sec(),
                    "jobs/s",
                    Direction::HigherIsBetter,
                );
                if gate_timing {
                    jobs_per_s = jobs_per_s.gated(0.6);
                }
                out.push(jobs_per_s);
                out.push(Metric::new(
                    "p50_ms",
                    s.p50.as_secs_f64() * 1e3,
                    "ms",
                    Direction::LowerIsBetter,
                ));
                out.push(Metric::new(
                    "p99_ms",
                    s.p99.as_secs_f64() * 1e3,
                    "ms",
                    Direction::LowerIsBetter,
                ));
            }
            Err(e) => {
                eprintln!("server_throughput entry failed: {e}");
                out.push(
                    Metric::new("ok", 0.0, "bool", Direction::HigherIsBetter)
                        .deterministic()
                        .gated(0.0),
                );
            }
        }
        out
    }

    // -- elastic-pool load: isolation under a saturating decomposed job ----

    /// Shape of the `server_load` entry: a small-job fleet measured twice —
    /// once on an idle pool, once while one saturating decomposed job holds
    /// it — plus the saturating job itself.
    #[derive(Debug, Clone)]
    pub struct ElasticSpec {
        /// The latency-sensitive small-job fleet (measured unloaded, then
        /// loaded).
        pub fleet: LoadSpec,
        /// Instance size of the saturating job; ≥ 128 so its leading units
        /// are cube-seeded.
        pub large_n: usize,
        /// Batch budget of the saturating job — big enough to outlast both
        /// fleet passes; the scenario cancels it at the end.
        pub large_batches: u64,
        /// Decomposition width of the saturating job (`units` in the spec).
        pub large_units: u32,
    }

    /// Detected core count, 0 when unknown.
    pub fn host_cores() -> usize {
        std::thread::available_parallelism().map_or(0, |p| p.get())
    }

    /// Shape per suite mode. Worker count follows the host (clamped) so the
    /// scaling contract measures the machine it runs on; everything else is
    /// fixed per mode so trajectory points stay comparable.
    pub fn elastic_shape(mode: SuiteMode, seed: u64) -> ElasticSpec {
        let cores = host_cores();
        let (workers, clients, jobs, n, batches, large_batches) = match mode {
            SuiteMode::Test => (2, 2, 6, 16, 40, 2_000),
            SuiteMode::Smoke => (cores.clamp(2, 8), 4, 16, 24, 100, 40_000),
            SuiteMode::Full => (cores.clamp(4, 8), 8, 48, 32, 200, 200_000),
        };
        ElasticSpec {
            fleet: LoadSpec {
                clients,
                jobs,
                workers,
                n,
                batches,
                seed,
            },
            large_n: 160,
            large_batches,
            large_units: (workers as u32 * 2).max(4),
        }
    }

    /// What the elastic-load scenario measured.
    #[derive(Debug, Clone)]
    pub struct ElasticOutcome {
        pub unloaded: LatencySummary,
        pub loaded: LatencySummary,
        /// Pool gauges read after the loaded pass (the split counter).
        pub load: PoolLoad,
        /// Terminal phase of the saturating job after the closing cancel.
        pub large_phase: String,
    }

    /// Run the elastic-load scenario: unloaded fleet pass, submit the
    /// saturating low-priority decomposed job, loaded fleet pass, read the
    /// pool gauges, cancel the big job, shut down. The big job runs at
    /// priority −1 so the pool's urgency order — not luck — is what keeps
    /// the fleet's units ahead of the backlog.
    pub fn run_elastic(spec: &ElasticSpec) -> Result<ElasticOutcome, String> {
        let fleet = &spec.fleet;
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: fleet.workers,
                queue_capacity: (fleet.jobs * 2 + spec.large_units as usize).max(64),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("cannot bind in-process server: {e}"))?;
        let result = drive_elastic(&server, spec);
        server.shutdown();
        result
    }

    fn drive_elastic(server: &Server, spec: &ElasticSpec) -> Result<ElasticOutcome, String> {
        let fleet = &spec.fleet;
        let addr = server.local_addr();
        let pass = |tag: &str, seed: u64| -> Result<LatencySummary, String> {
            let t0 = Instant::now();
            let (n, batches) = (fleet.n, fleet.batches);
            let all = drive_fleet(&addr.to_string(), fleet.clients, fleet.jobs, move |c, j| {
                let job_seed = seed + (c * 10_007 + j) as u64;
                JobSpec {
                    problem: ProblemSpec::random(n, job_seed),
                    seed: job_seed,
                    max_batches: Some(batches),
                    ..JobSpec::default()
                }
            })
            .map_err(|e| format!("{tag} fleet: {e}"))?;
            LatencySummary::from_samples(all, t0.elapsed())
                .ok_or_else(|| format!("{tag} fleet completed no jobs"))
        };

        let mut control = Client::connect(addr).map_err(|e| format!("control connect: {e}"))?;
        // Warmup: one end-to-end job keeps thread-spawn and first-touch
        // costs out of both measured windows.
        let warm = control
            .submit(&JobSpec {
                problem: ProblemSpec::random(fleet.n, 999),
                seed: 999,
                max_batches: Some(fleet.batches),
                ..JobSpec::default()
            })
            .map_err(|e| format!("warmup submit: {e}"))?;
        control
            .wait_result(warm)
            .map_err(|e| format!("warmup result: {e}"))?;

        let unloaded = pass("unloaded", fleet.seed)?;

        let large = control
            .submit(&JobSpec {
                problem: ProblemSpec::random(spec.large_n, fleet.seed ^ 0x9e37),
                seed: fleet.seed ^ 0x9e37,
                max_batches: Some(spec.large_batches),
                units: Some(spec.large_units),
                priority: -1,
                ..JobSpec::default()
            })
            .map_err(|e| format!("large submit: {e}"))?;

        let loaded = pass("loaded", fleet.seed + 777_001)?;

        let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
        let load = PoolLoad::from_stats(&stats).ok_or("stats reply was not Stats")?;
        control
            .cancel(large)
            .map_err(|e| format!("large cancel: {e}"))?;
        let large_phase = control
            .wait_result(large)
            .map_err(|e| format!("large result: {e}"))?
            .phase;
        Ok(ElasticOutcome {
            unloaded,
            loaded,
            load,
            large_phase,
        })
    }

    /// The `server_load` suite entry: latency isolation and pool scaling.
    ///
    /// Contract (self-checked, reported as the gated `contract_ok` bool):
    /// the loaded small-job p99 stays within 1.5× of the unloaded p99, and
    /// unloaded throughput reaches ≥ 96 jobs/s (2× the 48 jobs/s of the
    /// fixed job-per-worker pool's BENCH_5 point). Both halves need real
    /// parallelism to mean anything, so the contract is suspended — forced
    /// to pass — at `Test` scale and on hosts with fewer than 4 cores;
    /// `gates_enforced` records which regime produced the report.
    pub fn load_entry(cfg: &SuiteConfig) -> MetricSet {
        let spec = elastic_shape(cfg.mode, cfg.seed);
        let enforce = cfg.mode != SuiteMode::Test && host_cores() >= 4;
        let mut out = MetricSet::new();
        match run_elastic(&spec) {
            Ok(o) => {
                out.push(
                    Metric::new("ok", 1.0, "bool", Direction::HigherIsBetter)
                        .deterministic()
                        .gated(0.0),
                );
                let p99_unloaded = o.unloaded.p99.as_secs_f64() * 1e3;
                let p99_loaded = o.loaded.p99.as_secs_f64() * 1e3;
                let ratio = if p99_unloaded > 0.0 {
                    p99_loaded / p99_unloaded
                } else {
                    1.0
                };
                let jobs_per_s = o.unloaded.jobs_per_sec();
                out.push(Metric::new(
                    "p99_unloaded_ms",
                    p99_unloaded,
                    "ms",
                    Direction::LowerIsBetter,
                ));
                out.push(Metric::new(
                    "p99_loaded_ms",
                    p99_loaded,
                    "ms",
                    Direction::LowerIsBetter,
                ));
                out.push(Metric::new(
                    "p99_ratio",
                    ratio,
                    "x",
                    Direction::LowerIsBetter,
                ));
                // Absolute throughput varies across hosts — wide tolerance,
                // suspended entirely at Test scale (as in server_throughput).
                let mut tput = Metric::new(
                    "jobs_per_s",
                    jobs_per_s,
                    "jobs/s",
                    Direction::HigherIsBetter,
                );
                if cfg.mode != SuiteMode::Test {
                    tput = tput.gated(0.6);
                }
                out.push(tput);
                out.push(Metric::new(
                    "splits",
                    o.load.splits as f64,
                    "count",
                    Direction::HigherIsBetter,
                ));
                let p99_ok = ratio <= 1.5;
                let tput_ok = jobs_per_s >= 96.0;
                let pass = !enforce || (p99_ok && tput_ok);
                if !pass {
                    eprintln!(
                        "server_load contract violation: p99 ratio {ratio:.2} (≤1.5 {}), \
                         {jobs_per_s:.1} jobs/s (≥96 {})",
                        if p99_ok { "ok" } else { "VIOLATED" },
                        if tput_ok { "ok" } else { "VIOLATED" },
                    );
                }
                let mut contract = Metric::new(
                    "contract_ok",
                    f64::from(pass),
                    "bool",
                    Direction::HigherIsBetter,
                );
                if cfg.mode != SuiteMode::Test {
                    contract = contract.gated(0.0);
                }
                out.push(contract);
                out.push(Metric::new(
                    "gates_enforced",
                    f64::from(enforce),
                    "bool",
                    Direction::HigherIsBetter,
                ));
            }
            Err(e) => {
                eprintln!("server_load entry failed: {e}");
                out.push(
                    Metric::new("ok", 0.0, "bool", Direction::HigherIsBetter)
                        .deterministic()
                        .gated(0.0),
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Connection scaling (event-loop serving core)
// ---------------------------------------------------------------------------

/// Connection scaling: hold a large pool of idle connections against the
/// single-threaded event loop while a smaller active set does request/
/// response traffic. Measures resident memory per held connection and the
/// active-path ping p99 — the two things that degrade first when a
/// per-connection-thread design is pushed past a few hundred sockets.
pub mod conn_scale {
    use super::*;
    use dabs_server::{Client, Server, ServerConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    /// One connection-scale shape.
    #[derive(Debug, Clone)]
    pub struct ConnSpec {
        /// Idle connections held open for the whole measurement.
        pub idle: usize,
        /// Connections doing ping round-trips while the idle pool is held.
        pub active: usize,
        /// Round-trips per active connection.
        pub pings: usize,
    }

    /// Shape per suite mode. Full is the serving target from the event-loop
    /// redesign: 10k idle + 1k active on one event-loop thread.
    pub fn shape(mode: SuiteMode) -> ConnSpec {
        match mode {
            SuiteMode::Test => ConnSpec {
                idle: 64,
                active: 8,
                pings: 20,
            },
            SuiteMode::Smoke => ConnSpec {
                idle: 512,
                active: 64,
                pings: 20,
            },
            SuiteMode::Full => ConnSpec {
                idle: 10_000,
                active: 1_000,
                pings: 10,
            },
        }
    }

    /// Soft open-file limit from `/proc/self/limits`, if readable.
    fn fd_limit() -> Option<usize> {
        let text = std::fs::read_to_string("/proc/self/limits").ok()?;
        let line = text.lines().find(|l| l.starts_with("Max open files"))?;
        line.split_whitespace().nth(3)?.parse().ok()
    }

    /// Resident set size in bytes from `/proc/self/status`, if readable.
    fn vm_rss() -> Option<u64> {
        let text = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = text.lines().find(|l| l.starts_with("VmRSS:"))?;
        let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib * 1024)
    }

    /// What one connection-scale run observed.
    pub struct ConnOutcome {
        /// Idle connections actually held (after any fd-limit clamp).
        pub idle_held: usize,
        /// RSS growth per held connection — covers *both* endpoints, since
        /// client sockets and server state live in the same process here.
        /// `None` when `/proc` is unreadable.
        pub bytes_per_conn: Option<f64>,
        pub p50: Duration,
        pub p99: Duration,
    }

    /// Spin up an in-process server on one event-loop thread, hold the idle
    /// pool, then measure ping round-trips from the active set.
    pub fn run(spec: &ConnSpec) -> Result<ConnOutcome, String> {
        // Both endpoints of every connection live in this process: a held
        // idle connection costs two fds, and an active `Client` costs three
        // (its reader/writer split clones the socket). Clamp the idle pool
        // so the pool, the active set, and everything else the process has
        // open all fit.
        let mut idle_target = spec.idle;
        if let Some(limit) = fd_limit() {
            let budget = limit.saturating_sub(3 * spec.active + 256) / 2;
            if budget < idle_target {
                eprintln!(
                    "conn_scale: clamping idle pool {idle_target} -> {budget} (fd limit {limit})"
                );
                idle_target = budget;
            }
        }

        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("cannot bind in-process server: {e}"))?;
        let result = drive(&server, idle_target, spec);
        server.shutdown();
        result
    }

    fn drive(server: &Server, idle_target: usize, spec: &ConnSpec) -> Result<ConnOutcome, String> {
        let addr = server.local_addr();

        // Warm the accept path before the baseline RSS reading so one-time
        // allocations (scratch buffers, slab) don't bill to the first conn.
        {
            let mut c = Client::connect(addr).map_err(|e| format!("warmup connect: {e}"))?;
            c.ping().map_err(|e| format!("warmup ping: {e}"))?;
        }
        let rss_before = vm_rss();

        // Hold the idle pool. One ping each proves the connection is fully
        // accepted and registered before it goes quiet.
        let mut idle = Vec::with_capacity(idle_target);
        for i in 0..idle_target {
            let mut s = TcpStream::connect(addr)
                .map_err(|e| format!("idle connect {i}/{idle_target}: {e}"))?;
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .map_err(|e| format!("idle timeout {i}: {e}"))?;
            s.write_all(b"{\"op\":\"ping\"}\n")
                .map_err(|e| format!("idle ping {i}: {e}"))?;
            let mut r = BufReader::new(s);
            let mut line = String::new();
            r.read_line(&mut line)
                .map_err(|e| format!("idle pong {i}: {e}"))?;
            idle.push(r.into_inner());
        }
        let rss_after = vm_rss();
        let bytes_per_conn = match (rss_before, rss_after) {
            (Some(b), Some(a)) if !idle.is_empty() => {
                Some(a.saturating_sub(b) as f64 / idle.len() as f64)
            }
            _ => None,
        };

        // Active traffic while the idle pool is held: sequential round-trips
        // interleaved across the active set, so every RTT is measured with
        // the full idle population registered in the poller.
        let mut actives = Vec::with_capacity(spec.active);
        for i in 0..spec.active {
            actives.push(Client::connect(addr).map_err(|e| format!("active connect {i}: {e}"))?);
        }
        let mut rtts = Vec::with_capacity(spec.active * spec.pings);
        for _ in 0..spec.pings {
            for c in &mut actives {
                let t = Instant::now();
                c.ping().map_err(|e| format!("active ping: {e}"))?;
                rtts.push(t.elapsed());
            }
        }
        rtts.sort();
        let q = |f: f64| rtts[((rtts.len() - 1) as f64 * f) as usize];
        Ok(ConnOutcome {
            idle_held: idle.len(),
            bytes_per_conn,
            p50: q(0.5),
            p99: q(0.99),
        })
    }

    /// Suite entry: `conn_scale`.
    ///
    /// Contract (enforced at Smoke/Full, recorded-only at Test scale):
    /// per-connection memory stays under 64 KiB — both endpoints in this
    /// process, so ≤32 KiB per socket — and the active-path ping p99 stays
    /// under 50 ms with the idle pool held.
    pub fn entry(cfg: &SuiteConfig) -> MetricSet {
        let spec = shape(cfg.mode);
        let enforce = cfg.mode != SuiteMode::Test;
        let mut out = MetricSet::new();
        match run(&spec) {
            Ok(o) => {
                out.push(
                    Metric::new("ok", 1.0, "bool", Direction::HigherIsBetter)
                        .deterministic()
                        .gated(0.0),
                );
                out.push(Metric::new(
                    "conns_held",
                    o.idle_held as f64,
                    "count",
                    Direction::HigherIsBetter,
                ));
                let p50 = o.p50.as_secs_f64() * 1e3;
                let p99 = o.p99.as_secs_f64() * 1e3;
                out.push(Metric::new(
                    "ping_p50_ms",
                    p50,
                    "ms",
                    Direction::LowerIsBetter,
                ));
                // Host-timing metric — wide drift tolerance, suspended at
                // Test scale (as in server_throughput).
                let mut p99_m = Metric::new("ping_p99_ms", p99, "ms", Direction::LowerIsBetter);
                if enforce {
                    p99_m = p99_m.gated(1.5);
                }
                out.push(p99_m);
                // Recorded, never baseline-gated: RSS deltas land on 4 KiB
                // page granularity, so per-conn values jitter between 0 and
                // a few hundred bytes — and a lucky 0.0 baseline makes the
                // relative tolerance (`tolerance × |baseline|`) admit
                // nothing at all. The absolute ≤ 64 KiB bound below
                // (`contract_ok`) is the gate.
                if let Some(bpc) = o.bytes_per_conn {
                    out.push(Metric::new(
                        "bytes_per_conn",
                        bpc,
                        "B",
                        Direction::LowerIsBetter,
                    ));
                }
                let mem_ok = o.bytes_per_conn.is_none_or(|b| b <= 64.0 * 1024.0);
                let p99_ok = p99 <= 50.0;
                let pass = !enforce || (mem_ok && p99_ok);
                if !pass {
                    eprintln!(
                        "conn_scale contract violation: {:.0} B/conn (≤65536 {}), \
                         ping p99 {p99:.2} ms (≤50 {})",
                        o.bytes_per_conn.unwrap_or(0.0),
                        if mem_ok { "ok" } else { "VIOLATED" },
                        if p99_ok { "ok" } else { "VIOLATED" },
                    );
                }
                let mut contract = Metric::new(
                    "contract_ok",
                    f64::from(pass),
                    "bool",
                    Direction::HigherIsBetter,
                );
                if enforce {
                    contract = contract.gated(0.0);
                }
                out.push(contract);
                out.push(Metric::new(
                    "gates_enforced",
                    f64::from(enforce),
                    "bool",
                    Direction::HigherIsBetter,
                ));
            }
            Err(e) => {
                eprintln!("conn_scale entry failed: {e}");
                out.push(
                    Metric::new("ok", 0.0, "bool", Direction::HigherIsBetter)
                        .deterministic()
                        .gated(0.0),
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Chaos soak (fault injection + self-healing runtime)
// ---------------------------------------------------------------------------

/// Chaos soak: a capped, seeded fault storm over a live server under a
/// retrying client, then heal. Unit panics drive one job into quarantine,
/// worker kills exercise the supervisor's respawn path, and WAL fsync
/// errors flip (then clear) degraded mode. Because every fault site
/// carries a cap, the storm ends deterministically and the entry's gates
/// are *invariants*, not speeds: no job lost or duplicated, the worker
/// count restored, and the runtime's gauges exactly equal to the injected
/// fault counts. Timing enters only through bounded polls (machine-
/// relative — no fixed sleeps), and like `server_load` the gates are
/// suspended at `Test` scale and on hosts with fewer than 4 cores, with
/// `gates_enforced` recording which regime produced the report.
pub mod chaos_soak {
    use super::server_load::host_cores;
    use super::*;
    use dabs_server::{
        net_obs, pool_obs, Client, FaultPlan, FaultSite, JobSpec, ProblemSpec, Server, ServerConfig,
    };
    use std::time::Instant;

    /// One soak shape.
    #[derive(Debug, Clone)]
    pub struct SoakSpec {
        /// Jobs besides the quarantine target.
        pub jobs: usize,
        pub workers: usize,
        pub n: usize,
        pub batches: u64,
        pub seed: u64,
    }

    /// Soak shape per suite mode.
    pub fn shape(mode: SuiteMode, seed: u64) -> SoakSpec {
        match mode {
            SuiteMode::Test => SoakSpec {
                jobs: 4,
                workers: 2,
                n: 16,
                batches: 100,
                seed,
            },
            SuiteMode::Smoke => SoakSpec {
                jobs: 8,
                workers: 2,
                n: 24,
                batches: 150,
                seed,
            },
            SuiteMode::Full => SoakSpec {
                jobs: 24,
                workers: 4,
                n: 32,
                batches: 200,
                seed,
            },
        }
    }

    /// What the storm left behind.
    #[derive(Debug, Clone)]
    pub struct SoakOutcome {
        /// Total jobs submitted (including the quarantine target).
        pub jobs: usize,
        /// How many reached a terminal phase.
        pub terminal: usize,
        /// Duplicate job ids handed out (must be 0).
        pub duplicates: usize,
        pub injected_panics: u64,
        pub injected_kills: u64,
        pub injected_fsync: u64,
        pub panics_delta: u64,
        pub quarantined_delta: u64,
        pub wal_errors_delta: u64,
        /// The pool's own restart gauge (per-pool, exact).
        pub worker_restarts: u64,
        pub workers_restored: bool,
        /// `health` returned to `ok` after the storm.
        pub healed: bool,
        pub elapsed: Duration,
    }

    /// Run one storm: quarantine target first (all injected panics land on
    /// it — the only live job), then the clean fleet, then heal checks.
    pub fn run_soak(spec: &SoakSpec) -> Result<SoakOutcome, String> {
        let plan = Arc::new(
            FaultPlan::parse(&format!(
                "seed={},unit_panic=1x3,worker_kill=1x2,wal_fsync=1x3",
                spec.seed.max(1)
            ))
            .map_err(|e| format!("fault plan: {e}"))?,
        );
        let dir = std::env::temp_dir().join(format!(
            "dabs-bench-chaos-{}-{}",
            std::process::id(),
            spec.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let panics0 = pool_obs().unit_panics.get();
        let quarantined0 = pool_obs().quarantined_jobs.get();
        let wal_errors0 = net_obs().wal_errors.get();
        let start = Instant::now();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: spec.workers,
                queue_capacity: (spec.jobs * 2).max(16),
                wal_dir: Some(dir.clone()),
                chaos: Some(Arc::clone(&plan)),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let result = drive_storm(&server, spec, &plan);
        let elapsed = start.elapsed();
        let worker_restarts = server.state().pool.gauges().worker_restarts;
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let (terminal, duplicates, workers_restored, healed, jobs) = result?;
        Ok(SoakOutcome {
            jobs,
            terminal,
            duplicates,
            injected_panics: plan.injected(FaultSite::UnitPanic),
            injected_kills: plan.injected(FaultSite::WorkerKill),
            injected_fsync: plan.injected(FaultSite::WalFsync),
            panics_delta: pool_obs().unit_panics.get() - panics0,
            quarantined_delta: pool_obs().quarantined_jobs.get() - quarantined0,
            wal_errors_delta: net_obs().wal_errors.get() - wal_errors0,
            worker_restarts,
            workers_restored,
            healed,
            elapsed,
        })
    }

    /// The storm body, split out so the server is shut down on every path.
    /// Returns `(terminal, duplicates, workers_restored, healed, jobs)`.
    fn drive_storm(
        server: &Server,
        spec: &SoakSpec,
        _plan: &FaultPlan,
    ) -> Result<(usize, usize, bool, bool, usize), String> {
        let addr = server.local_addr().to_string();
        let mut client = Client::builder(&addr)
            .read_timeout(Duration::from_secs(10))
            .idempotency_prefix("soak")
            .retry(10, Duration::from_millis(2), Duration::from_millis(50))
            .retry_seed(spec.seed)
            .connect()
            .map_err(|e| format!("connect: {e}"))?;
        let mut ids = Vec::new();
        // The quarantine target: alone on the pool, so every injected panic
        // is its own. Worker kills interleave here too — its units are
        // re-pushed and survive the respawns.
        let target = client
            .try_submit(&JobSpec {
                problem: ProblemSpec::random(spec.n, 9),
                max_batches: Some(400),
                units: Some(4),
                idempotency_key: Some("soak-target".into()),
                ..JobSpec::default()
            })
            .map_err(|e| format!("target submit: {e}"))?
            .job;
        ids.push(target);
        let outcome = client
            .try_wait_result(target)
            .map_err(|e| format!("target wait: {e}"))?;
        if outcome.phase != "failed" {
            return Err(format!("quarantine target ended {:?}", outcome.phase));
        }
        // The clean fleet rides out WAL degradation via retry.
        for j in 0..spec.jobs {
            let ack = client
                .try_submit(&JobSpec {
                    problem: ProblemSpec::random(spec.n, spec.seed ^ j as u64),
                    max_batches: Some(spec.batches),
                    units: Some(2),
                    idempotency_key: Some(format!("soak-{j}")),
                    ..JobSpec::default()
                })
                .map_err(|e| format!("job {j} submit: {e}"))?;
            ids.push(ack.job);
        }
        let mut terminal = 0usize;
        for &id in &ids[1..] {
            let outcome = client
                .try_wait_result(id)
                .map_err(|e| format!("job {id} wait: {e}"))?;
            terminal += usize::from(outcome.phase == "done");
        }
        terminal += usize::from(
            server
                .state()
                .registry
                .get(target)
                .is_some_and(|r| r.phase().is_terminal()),
        );
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        let duplicates = ids.len() - unique.len();
        // Bounded polls, no fixed sleeps: machine-relative by construction.
        let workers_restored = poll(Duration::from_secs(5), || {
            server.state().pool.live_workers() == spec.workers
        });
        let healed = poll(
            Duration::from_secs(5),
            || matches!(client.health(), Ok((status, _)) if status == "ok"),
        );
        Ok((terminal, duplicates, workers_restored, healed, ids.len()))
    }

    fn poll(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if ok() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    /// The `chaos_soak` suite entry. Gated invariants (suspended at `Test`
    /// scale / under 4 cores, recorded via `gates_enforced`):
    /// `no_lost_jobs` — every job terminal, no duplicate ids; and
    /// `workers_restored` — pool worker count back to configured after the
    /// kills. `gauges_exact` cross-checks runtime counters against the
    /// plan's injected totals.
    pub fn entry(cfg: &SuiteConfig) -> MetricSet {
        let spec = shape(cfg.mode, cfg.seed);
        let enforce = cfg.mode != SuiteMode::Test && host_cores() >= 4;
        let mut out = MetricSet::new();
        match run_soak(&spec) {
            Ok(o) => {
                out.push(
                    Metric::new("ok", 1.0, "bool", Direction::HigherIsBetter)
                        .deterministic()
                        .gated(0.0),
                );
                out.push(Metric::new(
                    "jobs",
                    o.jobs as f64,
                    "count",
                    Direction::HigherIsBetter,
                ));
                out.push(Metric::new(
                    "storm_ms",
                    o.elapsed.as_secs_f64() * 1e3,
                    "ms",
                    Direction::LowerIsBetter,
                ));
                out.push(Metric::new(
                    "worker_restarts",
                    o.worker_restarts as f64,
                    "count",
                    Direction::LowerIsBetter,
                ));
                let no_lost = o.terminal == o.jobs && o.duplicates == 0;
                let gauges_exact = o.panics_delta == o.injected_panics
                    && o.quarantined_delta == 1
                    && o.wal_errors_delta == o.injected_fsync
                    && o.worker_restarts == o.injected_kills;
                for (name, held) in [
                    ("no_lost_jobs", no_lost),
                    ("workers_restored", o.workers_restored),
                    ("healed", o.healed),
                    ("gauges_exact", gauges_exact),
                ] {
                    let pass = !enforce || held;
                    if !pass {
                        eprintln!("chaos_soak invariant violated: {name} ({o:?})");
                    }
                    let mut m =
                        Metric::new(name, f64::from(pass), "bool", Direction::HigherIsBetter);
                    if cfg.mode != SuiteMode::Test {
                        m = m.gated(0.0);
                    }
                    out.push(m);
                }
                out.push(Metric::new(
                    "gates_enforced",
                    f64::from(enforce),
                    "bool",
                    Direction::HigherIsBetter,
                ));
            }
            Err(e) => {
                eprintln!("chaos_soak entry failed: {e}");
                out.push(
                    Metric::new("ok", 0.0, "bool", Direction::HigherIsBetter)
                        .deterministic()
                        .gated(0.0),
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// The §VI ablation studies: arm definitions shared by the four
/// `ablation_*` bins (threaded, wall-clock budgets, full nine-instance set)
/// and the suite entries (sequential, batch budgets, one instance per
/// family, deterministic).
pub mod ablation {
    use super::*;
    use dabs_problems::{gset, qaplib, QaspInstance, Topology};
    use dabs_search::MainAlgorithm;

    /// One measurement arm: a named way to build a solver config.
    pub struct Arm {
        pub name: String,
        #[allow(clippy::type_complexity)]
        pub build: Box<dyn Fn(usize, usize, SearchParams) -> DabsConfig + Send + Sync>,
    }

    impl Arm {
        fn new(
            name: impl Into<String>,
            build: impl Fn(usize, usize, SearchParams) -> DabsConfig + Send + Sync + 'static,
        ) -> Arm {
            Arm {
                name: name.into(),
                build: Box::new(build),
            }
        }
    }

    /// Adaptive (95 % replay / 5 % explore) vs uniform selection
    /// (`explore_prob = 1.0` disables the replay path entirely).
    pub fn adaptive_arms() -> Vec<Arm> {
        vec![
            Arm::new("adaptive", |d, b, p| {
                let mut cfg = DabsConfig::dabs(d, b);
                cfg.params = p;
                cfg
            }),
            Arm::new("uniform", |d, b, p| {
                let mut cfg = DabsConfig::dabs(d, b);
                cfg.params = p;
                cfg.explore_prob = 1.0;
                cfg
            }),
        ]
    }

    /// Island ring (4 pools × 2 blocks) vs a single pool with the same
    /// total block workers (1 × 8). Ignores the plan's device/block shape —
    /// the shape *is* the ablation.
    pub fn islands_arms() -> Vec<Arm> {
        vec![
            Arm::new("islands", |_, _, p| {
                let mut cfg = DabsConfig::dabs(4, 2);
                cfg.params = p;
                cfg
            }),
            Arm::new("single", |_, _, p| {
                let mut cfg = DabsConfig::dabs(1, 8);
                cfg.params = p;
                cfg
            }),
        ]
    }

    /// Tabu tenure 8 (the paper's fixed setting) vs tenure 0.
    pub fn tabu_arms() -> Vec<Arm> {
        vec![
            Arm::new("tabu8", |d, b, p| {
                let mut cfg = DabsConfig::dabs(d, b);
                cfg.params = p;
                cfg.params.tabu_tenure = 8;
                cfg
            }),
            Arm::new("tabu0", |d, b, p| {
                let mut cfg = DabsConfig::dabs(d, b);
                cfg.params = p;
                cfg.params.tabu_tenure = 0;
                cfg
            }),
        ]
    }

    /// Full five-algorithm portfolio vs each algorithm alone.
    pub fn portfolio_arms() -> Vec<Arm> {
        let mut arms = vec![Arm::new("portfolio", |d, b, p| {
            let mut cfg = DabsConfig::dabs(d, b);
            cfg.params = p;
            cfg
        })];
        for algo in MainAlgorithm::ALL {
            arms.push(Arm::new(format!("only-{}", algo.name()), move |d, b, p| {
                let mut cfg = DabsConfig::dabs(d, b);
                cfg.params = p;
                cfg.algorithms = vec![algo];
                cfg
            }));
        }
        arms
    }

    /// Which columns an ablation table prints per arm.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ArmColumns {
        /// best energy, TTS, success probability (two-arm tables).
        Full,
        /// success probability only (the wide portfolio table).
        ProbOnly,
    }

    /// The shared bin path: threaded solver, wall-clock budgets, the full
    /// nine-instance set, reference established by the first arm.
    pub fn run_table(arms: &[Arm], plan: &RunPlan, cols: ArmColumns) -> Table {
        let mut headers = vec!["Problem".to_string(), "PotOpt E".to_string()];
        for arm in arms {
            match cols {
                ArmColumns::Full => {
                    headers.push(format!("{} best", arm.name));
                    headers.push(format!("{} TTS", arm.name));
                    headers.push(format!("{} prob", arm.name));
                }
                ArmColumns::ProbOnly => headers.push(arm.name.clone()),
            }
        }
        let mut table = Table::new(headers);
        for inst in problem_suite(plan.full, plan.seed) {
            let budget = plan.budget(inst.family);
            let configs: Vec<(String, DabsConfig)> = arms
                .iter()
                .map(|a| {
                    (
                        a.name.clone(),
                        (a.build)(plan.devices, plan.blocks, inst.params),
                    )
                })
                .collect();
            let reference = establish_reference(&inst.model, &configs[0].1, budget * 3);
            let measured = measure_arms(
                &inst.model,
                &configs,
                plan.runs,
                plan.seed,
                budget,
                reference,
            );
            let mut row = vec![inst.label.clone(), reference.to_string()];
            for (_, stats) in &measured {
                match cols {
                    ArmColumns::Full => {
                        row.push(stats.best_energy().to_string());
                        row.push(fmt_tts(stats.mean_tts()));
                        row.push(format!("{:.0}%", 100.0 * stats.success_rate()));
                    }
                    ArmColumns::ProbOnly => {
                        row.push(format!("{:.0}%", 100.0 * stats.success_rate()));
                    }
                }
            }
            table.row(row);
        }
        table
    }

    /// One small instance per problem family for the deterministic suite
    /// entries.
    fn suite_instances(mode: SuiteMode, seed: u64) -> Vec<(String, QuboModel, SearchParams)> {
        let (mc_n, qap_n, qap_pen, qasp) = match mode {
            SuiteMode::Test => (32, 5, 10_000, (2usize, 24usize, 60usize)),
            SuiteMode::Smoke => (96, 8, 60_000, (4, 120, 500)),
            SuiteMode::Full => (256, 12, 100_000, (6, 300, 1_800)),
        };
        let topo =
            Topology::pegasus_like(qasp.0, qasp.0, 8.0, seed).with_faults(qasp.1, qasp.2, seed);
        vec![
            (
                "maxcut".to_string(),
                gset::k2000_like(mc_n, seed).to_qubo(),
                SearchParams::maxcut(),
            ),
            (
                "qap".to_string(),
                qaplib::tai_like(qap_n, seed).to_qubo(qap_pen),
                SearchParams::qap_qasp(),
            ),
            (
                "qasp".to_string(),
                QaspInstance::generate(&topo, 16, seed).qubo().clone(),
                SearchParams::qap_qasp(),
            ),
        ]
    }

    /// Deterministic suite measurement: every arm, sequential, batch
    /// budgets, target = first arm's long-run energy.
    fn det_entry(cfg: &SuiteConfig, arms: &[Arm]) -> MetricSet {
        let scale = Scale::of(cfg.mode);
        let mut out = MetricSet::new();
        for (inst_key, model, params) in suite_instances(cfg.mode, cfg.seed) {
            let reference = {
                let mut ref_cfg = (arms[0].build)(4, 2, params);
                ref_cfg.seed = cfg.seed;
                let solver = DabsSolver::new(ref_cfg).expect("valid config");
                solver
                    .run_sequential(&model, Termination::batches(scale.abl_batches * 3))
                    .energy
            };
            out.push(
                Metric::new(
                    format!("{inst_key}.ref_energy"),
                    reference as f64,
                    "energy",
                    Direction::LowerIsBetter,
                )
                .deterministic()
                .gated(0.25),
            );
            for (ai, arm) in arms.iter().enumerate() {
                let mut best = i64::MAX;
                let mut reached = 0usize;
                for k in 0..scale.abl_runs as u64 {
                    let mut run_cfg = (arm.build)(4, 2, params);
                    run_cfg.seed = arm_seed(cfg.seed, ai).wrapping_add(k);
                    let solver = DabsSolver::new(run_cfg).expect("valid config");
                    let r = solver.run_sequential(
                        &model,
                        Termination::batches(scale.abl_batches).with_target(reference),
                    );
                    best = best.min(r.energy);
                    if r.reached_target {
                        reached += 1;
                    }
                }
                out.push(
                    Metric::new(
                        format!("{inst_key}.{}.best_energy", arm.name),
                        best as f64,
                        "energy",
                        Direction::LowerIsBetter,
                    )
                    .deterministic()
                    .gated(0.25),
                );
                out.push(
                    Metric::new(
                        format!("{inst_key}.{}.success_rate", arm.name),
                        reached as f64 / scale.abl_runs as f64,
                        "ratio",
                        Direction::HigherIsBetter,
                    )
                    .deterministic(),
                );
            }
        }
        out
    }

    pub fn adaptive_entry(cfg: &SuiteConfig) -> MetricSet {
        det_entry(cfg, &adaptive_arms())
    }

    pub fn islands_entry(cfg: &SuiteConfig) -> MetricSet {
        det_entry(cfg, &islands_arms())
    }

    pub fn tabu_entry(cfg: &SuiteConfig) -> MetricSet {
        det_entry(cfg, &tabu_arms())
    }

    /// The portfolio entry trims to the portfolio itself plus the first two
    /// solo algorithms in Test/Smoke mode — six sequential arms at suite
    /// scale would dominate the smoke wall-clock for no extra signal.
    pub fn portfolio_entry(cfg: &SuiteConfig) -> MetricSet {
        let mut arms = portfolio_arms();
        if cfg.mode != SuiteMode::Full {
            arms.truncate(3);
        }
        det_entry(cfg, &arms)
    }
}

// ---------------------------------------------------------------------------
// Frequency tables (Tables V/VI)
// ---------------------------------------------------------------------------

/// Shared measurement loops of the frequency tables.
pub mod frequency {
    use super::*;
    use dabs_core::FrequencyReport;
    use dabs_core::GeneticOp;
    use dabs_search::MainAlgorithm;

    /// Canonical seed-stream offsets: Table V uses `seed·10⁴ + k`,
    /// Table VI `seed·2·10⁴ + k` (distinct tables, distinct streams).
    pub const EXECUTED_STREAM: u64 = 10_000;
    pub const FIRST_FINDER_STREAM: u64 = 20_000;

    /// Aggregate executed-frequency counters over repeated runs (Table V).
    pub fn executed(inst: &BenchInstance, plan: &RunPlan) -> FrequencyReport {
        let budget = plan.budget(inst.family);
        let mut agg: Option<FrequencyReport> = None;
        for k in 0..plan.runs as u64 {
            let mut cfg = plan.dabs(inst.params);
            cfg.seed = plan.seed * EXECUTED_STREAM + k;
            let solver = DabsSolver::new(cfg).expect("valid config");
            let r = solver.run(&inst.model, Termination::time(budget));
            match &mut agg {
                Some(a) => a.merge(&r.frequencies),
                None => agg = Some(r.frequencies),
            }
        }
        agg.expect("at least one run")
    }

    /// Tally which (algorithm, operation) pair first found each run's final
    /// best (Table VI). Returns `(algo_counts, op_counts, counted_runs)`.
    pub fn first_finder(inst: &BenchInstance, plan: &RunPlan) -> ([u32; 5], [u32; 9], u32) {
        let budget = plan.budget(inst.family);
        let mut algo_counts = [0u32; 5];
        let mut op_counts = [0u32; 9];
        let mut counted = 0u32;
        for k in 0..plan.runs as u64 {
            let mut cfg = plan.dabs(inst.params);
            cfg.seed = plan.seed * FIRST_FINDER_STREAM + k;
            let solver = DabsSolver::new(cfg).expect("valid config");
            let r = solver.run(&inst.model, Termination::time(budget));
            if let Some((algo, op)) = r.first_finder {
                algo_counts[algo.index()] += 1;
                op_counts[op.index()] += 1;
                counted += 1;
            }
        }
        (algo_counts, op_counts, counted)
    }

    /// Percentage rows with the row maximum starred (the paper's boldface).
    pub fn percent_row(counts: &[f64]) -> Vec<String> {
        let max = counts.iter().cloned().fold(0.0f64, f64::max);
        counts
            .iter()
            .map(|&p| {
                if (p - max).abs() < 1e-9 && max > 0.0 {
                    format!("{p:.1}%*")
                } else {
                    format!("{p:.1}%")
                }
            })
            .collect()
    }

    /// The Table V/VI column headers (problem + 5 algorithms + 9 ops).
    pub fn table_headers() -> Vec<String> {
        let mut headers = vec!["Problem".to_string()];
        headers.extend(MainAlgorithm::ALL.iter().map(|a| a.name().to_string()));
        headers.extend(GeneticOp::DABS.iter().map(|o| o.name().to_string()));
        headers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn run_plan_has_one_set_of_defaults() {
        let p = RunPlan::from_args(&args(""));
        assert!(!p.full);
        assert_eq!((p.runs, p.seed, p.devices, p.blocks), (5, 1, 4, 2));
        assert_eq!(p.budget_override, None);
        // family budgets come from the canonical table
        assert_eq!(p.budget(Family::MaxCut), Duration::from_millis(3_000));
        assert_eq!(p.budget(Family::Qap), Duration::from_millis(4_000));
        assert_eq!(p.budget(Family::Qasp), Duration::from_millis(5_000));
    }

    #[test]
    fn budget_override_beats_family_default() {
        let p = RunPlan::from_args(&args("--budget-ms 1234"));
        assert_eq!(p.budget(Family::Qap), Duration::from_millis(1_234));
    }

    #[test]
    fn full_scale_budgets_differ() {
        let p = RunPlan::from_args(&args("--full"));
        assert_eq!(p.budget(Family::Qap), Duration::from_millis(120_000));
        assert_eq!(p.budget(Family::MaxCut), Duration::from_millis(60_000));
    }

    #[test]
    fn arm_seeds_are_disjoint_streams() {
        for base in [0u64, 1, 7] {
            let s: Vec<u64> = (0..4).map(|a| arm_seed(base, a)).collect();
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "arm seeds collide at base {base}: {s:?}");
        }
    }

    #[test]
    fn problem_suite_covers_three_families_with_three_instances_each() {
        let suite = problem_suite(false, 1);
        assert_eq!(suite.len(), 9);
        for f in [Family::MaxCut, Family::Qap, Family::Qasp] {
            assert_eq!(suite.iter().filter(|i| i.family == f).count(), 3);
        }
    }

    #[test]
    fn ablation_arms_shapes() {
        assert_eq!(ablation::adaptive_arms().len(), 2);
        assert_eq!(ablation::islands_arms().len(), 2);
        assert_eq!(ablation::tabu_arms().len(), 2);
        assert_eq!(ablation::portfolio_arms().len(), 6);
        let uniform = &ablation::adaptive_arms()[1];
        let cfg = (uniform.build)(4, 2, SearchParams::maxcut());
        assert_eq!(cfg.explore_prob, 1.0);
        let tabu0 = &ablation::tabu_arms()[1];
        assert_eq!(
            (tabu0.build)(4, 2, SearchParams::maxcut())
                .params
                .tabu_tenure,
            0
        );
    }

    #[test]
    fn kernel_sweep_points_are_ordered_and_positive() {
        let points = kernel::sweep(96, 500, 3, &[0.1, 0.9]);
        assert_eq!(points.len(), 2);
        assert!(points[0].density < points[1].density);
        for p in &points {
            assert!(p.csr_rate > 0.0 && p.dense_rate > 0.0);
            assert!(p.nnz > 0);
        }
    }

    #[test]
    fn det_reference_is_reproducible() {
        let model = dabs_problems::gset::k2000_like(24, 5).to_qubo();
        let a = ttt::det_reference(&model, SearchParams::maxcut(), 9, 60);
        let b = ttt::det_reference(&model, SearchParams::maxcut(), 9, 60);
        assert_eq!(a, b);
    }
}
