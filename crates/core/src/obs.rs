//! Solver-side observability: sampled hot-loop counters and the bridge
//! from `dabs-obs` snapshots to [`MetricSet`].
//!
//! The flip loop is scan-free-fast and must stay that way, so nothing in
//! the hot path touches a shared atomic. Instead the sequential engine
//! tallies per-batch deltas (flips and wall time per strategy, incumbent
//! updates, Δ-segment re-reductions) into a private [`ObsAccumulator`] and
//! publishes to the process-wide [`SolverObs`] only once every
//! `2^OBS_SAMPLE_SHIFT` batches — plus a final flush when the unit ends —
//! so the shared counters lag the truth by at most one sampling window.

use crate::stats::{Direction, Metric, MetricSet, N_ALGOS};
use dabs_obs::{Counter, HistSnapshot, OBS_SAMPLE_MASK};
use dabs_search::MainAlgorithm;
use std::sync::OnceLock;
use std::time::Duration;

/// Process-wide solver counters, indexed by [`MainAlgorithm::index`]
/// where per-strategy. Updated at sampling granularity by every engine in
/// the process; read by the server's `metrics` verb and the bench suite.
#[derive(Debug)]
pub struct SolverObs {
    /// Batches completed across all units.
    pub batches: Counter,
    /// Flips executed, per main algorithm.
    pub flips_by_algo: [Counter; N_ALGOS],
    /// Wall time of the batches each main algorithm ran, in nanoseconds
    /// (exported in µs as `solver.batch_us.<Algo>`). Over the matching
    /// `flips_by_algo` it is the cost per flip of that algorithm's batches,
    /// greedy descents and the Straight walk included.
    pub batch_ns_by_algo: [Counter; N_ALGOS],
    /// Engine-best (incumbent) improvements, per main algorithm — the
    /// improvement-rate signal the ROADMAP's portfolio controller reads.
    pub incumbents_by_algo: [Counter; N_ALGOS],
    /// Lazy Δ-segment re-reductions performed by the segment layer.
    pub seg_reductions: Counter,
    /// Flips executed by bulk (bit-sliced) device legs — a subset of the
    /// per-algorithm totals, split out so dashboards can tell lane-batched
    /// throughput from scalar throughput.
    pub bulk_flips: Counter,
    /// Batches that ran while an earlier batch of the same unit was not yet
    /// committed: the batches a unit's threads overlapped.
    pub overlap_batches: Counter,
    /// Time unit threads waited for an earlier fold (an Xrossover
    /// neighbour's, or their turn to commit), in nanoseconds (exported in
    /// µs as `solver.fold_wait_us`).
    pub fold_wait_ns: Counter,
}

impl SolverObs {
    fn new() -> Self {
        Self {
            batches: Counter::new(),
            flips_by_algo: std::array::from_fn(|_| Counter::new()),
            batch_ns_by_algo: std::array::from_fn(|_| Counter::new()),
            incumbents_by_algo: std::array::from_fn(|_| Counter::new()),
            seg_reductions: Counter::new(),
            bulk_flips: Counter::new(),
            overlap_batches: Counter::new(),
            fold_wait_ns: Counter::new(),
        }
    }

    /// Total flips across all strategies.
    pub fn total_flips(&self) -> u64 {
        self.flips_by_algo.iter().map(Counter::get).sum()
    }

    /// Total incumbent improvements across all strategies.
    pub fn total_incumbents(&self) -> u64 {
        self.incumbents_by_algo.iter().map(Counter::get).sum()
    }

    /// Export the counters under `solver.*` names.
    pub fn metrics_into(&self, set: &mut MetricSet) {
        let up = Direction::HigherIsBetter;
        set.push(Metric::new(
            "solver.batches",
            self.batches.get() as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "solver.flips",
            self.total_flips() as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "solver.incumbent_updates",
            self.total_incumbents() as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "solver.seg_reductions",
            self.seg_reductions.get() as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "solver.bulk_flips",
            self.bulk_flips.get() as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "solver.overlap_batches",
            self.overlap_batches.get() as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "solver.fold_wait_us",
            self.fold_wait_ns.get() as f64 / 1e3,
            "us",
            Direction::LowerIsBetter,
        ));
        for algo in MainAlgorithm::ALL {
            let i = algo.index();
            set.push(Metric::new(
                format!("solver.flips.{}", algo.name()),
                self.flips_by_algo[i].get() as f64,
                "count",
                up,
            ));
            set.push(Metric::new(
                format!("solver.batch_us.{}", algo.name()),
                self.batch_ns_by_algo[i].get() as f64 / 1e3,
                "us",
                Direction::LowerIsBetter,
            ));
            set.push(Metric::new(
                format!("solver.incumbent_updates.{}", algo.name()),
                self.incumbents_by_algo[i].get() as f64,
                "count",
                up,
            ));
        }
    }
}

/// The process-wide [`SolverObs`] singleton.
pub fn solver_obs() -> &'static SolverObs {
    static OBS: OnceLock<SolverObs> = OnceLock::new();
    OBS.get_or_init(SolverObs::new)
}

/// Per-engine tally that batches counter updates and publishes to
/// [`solver_obs`] once every `2^OBS_SAMPLE_SHIFT` batches. Dropping the
/// accumulator flushes the tail, so short units still report.
#[derive(Debug, Default)]
pub struct ObsAccumulator {
    batches: u64,
    pend_batches: u64,
    pend_flips: [u64; N_ALGOS],
    pend_batch_ns: [u64; N_ALGOS],
    pend_incumbents: [u64; N_ALGOS],
    pend_reductions: u64,
    pend_bulk_flips: u64,
    pend_overlap: u64,
    pend_fold_wait_ns: u64,
}

impl ObsAccumulator {
    /// A fresh accumulator with nothing pending.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed batch: which strategy ran, how many flips and
    /// segment re-reductions it cost, whether it improved the engine best,
    /// and its wall time. Publishes on 1-in-2^k batches only.
    #[inline]
    pub fn on_batch(
        &mut self,
        algo_index: usize,
        flips: u64,
        reductions: u64,
        improved: bool,
        elapsed: Duration,
    ) {
        self.batches += 1;
        self.pend_batches += 1;
        self.pend_flips[algo_index] += flips;
        self.pend_batch_ns[algo_index] += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.pend_reductions += reductions;
        if improved {
            self.pend_incumbents[algo_index] += 1;
        }
        if self.batches & OBS_SAMPLE_MASK == 0 {
            self.flush();
        }
    }

    /// Record that the batch just tallied by [`Self::on_batch`] ran as a
    /// bulk (bit-sliced) device leg with this many lane flips. Publishes
    /// on the same sampling cadence as `on_batch`.
    #[inline]
    pub fn on_bulk(&mut self, flips: u64) {
        self.pend_bulk_flips += flips;
    }

    /// Record how the next batch tallied by [`Self::on_batch`] met its
    /// unit's other threads: whether it ran while an earlier batch was not
    /// yet committed, and how long its thread waited for earlier folds.
    /// Publishes on the same sampling cadence as `on_batch`.
    #[inline]
    pub fn on_overlap(&mut self, overlapped: bool, waited: Duration) {
        self.pend_overlap += u64::from(overlapped);
        self.pend_fold_wait_ns += u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
    }

    /// Publish all pending tallies to the global counters.
    pub fn flush(&mut self) {
        let obs = solver_obs();
        if self.pend_batches > 0 {
            obs.batches.add(self.pend_batches);
            self.pend_batches = 0;
        }
        if self.pend_reductions > 0 {
            obs.seg_reductions.add(self.pend_reductions);
            self.pend_reductions = 0;
        }
        if self.pend_bulk_flips > 0 {
            obs.bulk_flips.add(self.pend_bulk_flips);
            self.pend_bulk_flips = 0;
        }
        if self.pend_overlap > 0 {
            obs.overlap_batches.add(self.pend_overlap);
            self.pend_overlap = 0;
        }
        if self.pend_fold_wait_ns > 0 {
            obs.fold_wait_ns.add(self.pend_fold_wait_ns);
            self.pend_fold_wait_ns = 0;
        }
        for i in 0..N_ALGOS {
            if self.pend_flips[i] > 0 {
                obs.flips_by_algo[i].add(self.pend_flips[i]);
                self.pend_flips[i] = 0;
            }
            if self.pend_batch_ns[i] > 0 {
                obs.batch_ns_by_algo[i].add(self.pend_batch_ns[i]);
                self.pend_batch_ns[i] = 0;
            }
            if self.pend_incumbents[i] > 0 {
                obs.incumbents_by_algo[i].add(self.pend_incumbents[i]);
                self.pend_incumbents[i] = 0;
            }
        }
    }
}

impl Drop for ObsAccumulator {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Export a histogram snapshot as `{prefix}.count/p50/p99/p999/max/mean`
/// metrics (values in `unit`, e.g. `"us"`). Count is higher-is-better in
/// spirit (more observations, more confidence); the latency-style
/// percentiles are lower-is-better.
pub fn push_hist(set: &mut MetricSet, prefix: &str, unit: &str, snap: &HistSnapshot) {
    set.push(Metric::new(
        format!("{prefix}.count"),
        snap.count() as f64,
        "count",
        Direction::HigherIsBetter,
    ));
    let down = Direction::LowerIsBetter;
    set.push(Metric::new(
        format!("{prefix}.p50"),
        snap.p50() as f64,
        unit,
        down,
    ));
    set.push(Metric::new(
        format!("{prefix}.p99"),
        snap.p99() as f64,
        unit,
        down,
    ));
    set.push(Metric::new(
        format!("{prefix}.p999"),
        snap.p999() as f64,
        unit,
        down,
    ));
    set.push(Metric::new(
        format!("{prefix}.max"),
        snap.max().unwrap_or(0) as f64,
        unit,
        down,
    ));
    set.push(Metric::new(
        format!("{prefix}.mean"),
        snap.mean(),
        unit,
        down,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_obs::LogHistogram;

    // Both tests assert `>=` deltas: the counters are process-global and
    // the test harness runs tests in parallel threads.

    #[test]
    fn accumulator_samples_then_flushes_tail() {
        let obs = solver_obs();
        let before = obs.batches.get();
        {
            let mut acc = ObsAccumulator::new();
            // One short of a full sampling window: only the drop-flush can
            // publish these.
            for _ in 0..OBS_SAMPLE_MASK {
                acc.on_batch(0, 10, 1, false, Duration::from_micros(3));
            }
        }
        assert!(solver_obs().batches.get() >= before + OBS_SAMPLE_MASK);
    }

    #[test]
    fn accumulator_publishes_on_window_boundary() {
        let obs = solver_obs();
        let before = obs.flips_by_algo[1].get();
        let ns_before = obs.batch_ns_by_algo[1].get();
        let mut acc = ObsAccumulator::new();
        for _ in 0..=OBS_SAMPLE_MASK {
            acc.on_batch(1, 5, 0, true, Duration::from_micros(2));
        }
        // The 2^k-th batch hit the boundary and published before any drop.
        assert!(obs.flips_by_algo[1].get() >= before + 5 * (OBS_SAMPLE_MASK + 1));
        assert!(obs.batch_ns_by_algo[1].get() >= ns_before + 2_000 * (OBS_SAMPLE_MASK + 1));
        drop(acc);
    }

    #[test]
    fn hist_bridge_exports_expected_names() {
        let h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let mut set = MetricSet::new();
        push_hist(&mut set, "pool.queue_wait", "us", &h.snapshot());
        for suffix in ["count", "p50", "p99", "p999", "max", "mean"] {
            assert!(
                set.get(&format!("pool.queue_wait.{suffix}")).is_some(),
                "missing {suffix}"
            );
        }
        assert_eq!(set.get("pool.queue_wait.count").unwrap().value, 100.0);
        assert_eq!(set.get("pool.queue_wait.max").unwrap().value, 100.0);
    }

    #[test]
    fn solver_obs_metrics_cover_all_strategies() {
        let mut set = MetricSet::new();
        solver_obs().metrics_into(&mut set);
        for algo in MainAlgorithm::ALL {
            assert!(set.get(&format!("solver.flips.{}", algo.name())).is_some());
            assert!(set
                .get(&format!("solver.batch_us.{}", algo.name()))
                .is_some());
        }
        assert!(set.get("solver.seg_reductions").is_some());
        assert!(set.get("solver.bulk_flips").is_some());
    }

    #[test]
    fn bulk_flips_flush_with_the_batch_tally() {
        let before = solver_obs().bulk_flips.get();
        {
            let mut acc = ObsAccumulator::new();
            acc.on_batch(0, 640, 0, false, Duration::ZERO);
            acc.on_bulk(640);
        }
        assert!(solver_obs().bulk_flips.get() >= before + 640);
    }
}
