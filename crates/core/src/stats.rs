//! Frequency and first-finder instrumentation (paper §VI-D, Tables V–VI).
//!
//! Table V counts how often each main algorithm / genetic operation was
//! *executed*; Table VI counts which pair *first found* the final best
//! solution of a run. The paper's observation that the two distributions
//! differ — what finds good solutions is not what finishes them — is the
//! core evidence for adaptive diversity, so both counters are first-class
//! here.

use crate::GeneticOp;
use dabs_search::MainAlgorithm;
use serde::json::Json;

/// Number of algorithm slots (5 main algorithms).
pub const N_ALGOS: usize = 5;
/// Number of operation slots (8 DABS ops + CrossMutate).
pub const N_OPS: usize = 9;

/// Execution frequencies of one run (or of several, merged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyReport {
    /// Dispatch counts indexed by [`MainAlgorithm::index`].
    pub algo_executed: Vec<u64>,
    /// Dispatch counts indexed by [`GeneticOp::index`].
    pub op_executed: Vec<u64>,
}

impl Default for FrequencyReport {
    fn default() -> Self {
        Self::new()
    }
}

impl FrequencyReport {
    /// All counts zero.
    pub fn new() -> Self {
        Self {
            algo_executed: vec![0; N_ALGOS],
            op_executed: vec![0; N_OPS],
        }
    }

    /// Count one dispatched batch with this pair.
    pub fn record_dispatch(&mut self, algo: MainAlgorithm, op: GeneticOp) {
        self.algo_executed[algo.index()] += 1;
        self.op_executed[op.index()] += 1;
    }

    /// Total batches dispatched.
    pub fn total(&self) -> u64 {
        self.algo_executed.iter().sum()
    }

    /// Percentage share of an algorithm (Table V row format).
    pub fn algo_percent(&self, algo: MainAlgorithm) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.algo_executed[algo.index()] as f64 / total as f64
    }

    /// Percentage share of an operation.
    pub fn op_percent(&self, op: GeneticOp) -> f64 {
        let total: u64 = self.op_executed.iter().sum();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.op_executed[op.index()] as f64 / total as f64
    }

    /// Merge counts from another report (used to aggregate repeated runs).
    pub fn merge(&mut self, other: &FrequencyReport) {
        for (a, b) in self.algo_executed.iter_mut().zip(&other.algo_executed) {
            *a += b;
        }
        for (a, b) in self.op_executed.iter_mut().zip(&other.op_executed) {
            *a += b;
        }
    }
}

/// Which way "better" points for a metric (regression detection needs to
/// know whether a smaller candidate value is good news or bad news).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-style metrics (flips/s, jobs/s, success rate).
    HigherIsBetter,
    /// Cost-style metrics (energy, latency, time-to-solution).
    LowerIsBetter,
}

impl Direction {
    /// Stable wire name (`"higher_is_better"` / `"lower_is_better"`).
    pub fn name(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher_is_better",
            Direction::LowerIsBetter => "lower_is_better",
        }
    }

    /// Inverse of [`Direction::name`].
    pub fn by_name(name: &str) -> Option<Direction> {
        match name {
            "higher_is_better" => Some(Direction::HigherIsBetter),
            "lower_is_better" => Some(Direction::LowerIsBetter),
            _ => None,
        }
    }
}

/// One named measurement with enough metadata to be diffed across runs.
///
/// Every metric carries a unit (schema validation rejects unitless values)
/// and a regression policy: `gate` marks it as CI-enforced, `tolerance` is
/// the relative slack (fraction of `|baseline|`) a gated metric may move in
/// the *worse* direction before a comparison counts it as a regression.
/// `deterministic` promises that two same-seed runs reproduce the value
/// bit-for-bit — the determinism test in `dabs-bench` holds metrics to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted path within its suite entry, e.g. `"k2000s.best_energy"`.
    pub name: String,
    pub value: f64,
    /// Unit label, e.g. `"energy"`, `"s"`, `"flips/s"`, `"ratio"`. Never empty.
    pub unit: String,
    pub direction: Direction,
    /// Same seed ⇒ identical value (no wall-clock on the measured path).
    pub deterministic: bool,
    /// Enforced by `compare` against a committed baseline.
    pub gate: bool,
    /// Allowed worse-direction drift as a fraction of `|baseline|`.
    pub tolerance: f64,
}

impl Metric {
    /// A recorded-but-unenforced metric (trajectory only).
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
        direction: Direction,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            direction,
            deterministic: false,
            gate: false,
            tolerance: 0.0,
        }
    }

    /// Mark as reproducible bit-for-bit under a fixed seed.
    pub fn deterministic(mut self) -> Self {
        self.deterministic = true;
        self
    }

    /// Mark as CI-gated with the given relative tolerance.
    pub fn gated(mut self, tolerance: f64) -> Self {
        self.gate = true;
        self.tolerance = tolerance;
        self
    }

    /// How much worse the candidate is than the baseline, in the metric's
    /// worse direction (positive = regressed), as an absolute value delta.
    pub fn worse_by(&self, baseline: f64, candidate: f64) -> f64 {
        match self.direction {
            Direction::HigherIsBetter => baseline - candidate,
            Direction::LowerIsBetter => candidate - baseline,
        }
    }

    /// Serialize (field names are part of the `BENCH_*.json` schema).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("value".into(), Json::Float(self.value)),
            ("unit".into(), Json::str(self.unit.clone())),
            ("direction".into(), Json::str(self.direction.name())),
            ("deterministic".into(), Json::from(self.deterministic)),
            ("gate".into(), Json::from(self.gate)),
            ("tolerance".into(), Json::Float(self.tolerance)),
        ])
    }

    /// Strict inverse of [`Metric::to_json`].
    pub fn from_json(j: &Json) -> Result<Metric, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("metric missing {k:?}"));
        let name = field("name")?
            .as_str()
            .ok_or("metric name must be a string")?
            .to_string();
        let value = field("value")?
            .as_f64()
            .ok_or_else(|| format!("metric {name:?}: value must be a number"))?;
        let unit = field("unit")?
            .as_str()
            .ok_or_else(|| format!("metric {name:?}: unit must be a string"))?
            .to_string();
        let direction = field("direction")?
            .as_str()
            .and_then(Direction::by_name)
            .ok_or_else(|| format!("metric {name:?}: bad direction"))?;
        Ok(Metric {
            deterministic: j.get_bool("deterministic").unwrap_or(false),
            gate: j.get_bool("gate").unwrap_or(false),
            tolerance: j.get("tolerance").and_then(Json::as_f64).unwrap_or(0.0),
            name,
            value,
            unit,
            direction,
        })
    }
}

/// An ordered collection of uniquely named [`Metric`]s — what one benchmark
/// scenario exports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a metric. Panics on a duplicate name: scenario code is the
    /// only caller, and a silent overwrite would corrupt the trajectory.
    pub fn push(&mut self, metric: Metric) {
        assert!(
            self.get(&metric.name).is_none(),
            "duplicate metric name {:?}",
            metric.name
        );
        self.metrics.push(metric);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(self.metrics.iter().map(Metric::to_json).collect())
    }

    pub fn from_json(j: &Json) -> Result<MetricSet, String> {
        let items = j.as_arr().ok_or("metrics must be an array")?;
        let mut set = MetricSet::new();
        for item in items {
            let m = Metric::from_json(item)?;
            if set.get(&m.name).is_some() {
                return Err(format!("duplicate metric name {:?}", m.name));
            }
            set.metrics.push(m);
        }
        Ok(set)
    }
}

impl IntoIterator for MetricSet {
    type Item = Metric;
    type IntoIter = std::vec::IntoIter<Metric>;
    fn into_iter(self) -> Self::IntoIter {
        self.metrics.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_counts_accumulate() {
        let mut r = FrequencyReport::new();
        r.record_dispatch(MainAlgorithm::MaxMin, GeneticOp::Zero);
        r.record_dispatch(MainAlgorithm::MaxMin, GeneticOp::One);
        r.record_dispatch(MainAlgorithm::CyclicMin, GeneticOp::Zero);
        assert_eq!(r.total(), 3);
        assert_eq!(r.algo_executed[MainAlgorithm::MaxMin.index()], 2);
        assert_eq!(r.op_executed[GeneticOp::Zero.index()], 2);
    }

    #[test]
    fn percentages_sum_to_100() {
        let mut r = FrequencyReport::new();
        for (i, a) in MainAlgorithm::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                r.record_dispatch(a, GeneticOp::Random);
            }
        }
        let sum: f64 = MainAlgorithm::ALL.iter().map(|&a| r.algo_percent(a)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_percentages_are_zero() {
        let r = FrequencyReport::new();
        assert_eq!(r.algo_percent(MainAlgorithm::MaxMin), 0.0);
        assert_eq!(r.op_percent(GeneticOp::Best), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut r = FrequencyReport::new();
        r.record_dispatch(MainAlgorithm::RandomMin, GeneticOp::Crossover);
        let mut r2 = FrequencyReport::new();
        r2.record_dispatch(MainAlgorithm::RandomMin, GeneticOp::Crossover);
        r2.record_dispatch(MainAlgorithm::MaxMin, GeneticOp::Best);
        r.merge(&r2);
        assert_eq!(r.total(), 3);
        assert_eq!(r.algo_executed[MainAlgorithm::RandomMin.index()], 2);
    }

    #[test]
    fn metric_round_trips_through_json() {
        let m = Metric::new(
            "k2000s.best_energy",
            -4217.0,
            "energy",
            Direction::LowerIsBetter,
        )
        .deterministic()
        .gated(0.2);
        let back = Metric::from_json(&Json::parse(&m.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn metric_set_rejects_duplicates_and_preserves_order() {
        let mut s = MetricSet::new();
        s.push(Metric::new("a", 1.0, "s", Direction::LowerIsBetter));
        s.push(Metric::new("b", 2.0, "s", Direction::LowerIsBetter));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().next().unwrap().name, "a");
        let dup = Json::parse(
            "[{\"name\":\"a\",\"value\":1.0,\"unit\":\"s\",\"direction\":\"lower_is_better\"},\
              {\"name\":\"a\",\"value\":2.0,\"unit\":\"s\",\"direction\":\"lower_is_better\"}]",
        )
        .unwrap();
        assert!(MetricSet::from_json(&dup)
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn metric_set_push_panics_on_duplicate() {
        let mut s = MetricSet::new();
        s.push(Metric::new("a", 1.0, "s", Direction::LowerIsBetter));
        s.push(Metric::new("a", 2.0, "s", Direction::LowerIsBetter));
    }

    #[test]
    fn worse_by_is_direction_aware() {
        let hi = Metric::new("rate", 10.0, "jobs/s", Direction::HigherIsBetter);
        assert!(hi.worse_by(10.0, 8.0) > 0.0, "throughput drop regresses");
        assert!(hi.worse_by(10.0, 12.0) < 0.0);
        let lo = Metric::new("e", -100.0, "energy", Direction::LowerIsBetter);
        assert!(lo.worse_by(-100.0, -90.0) > 0.0, "higher energy regresses");
        assert!(lo.worse_by(-100.0, -110.0) < 0.0);
    }

    #[test]
    fn malformed_metric_json_is_rejected() {
        for bad in [
            "{}",
            "{\"name\":\"x\",\"value\":1.0,\"unit\":\"s\"}",
            "{\"name\":\"x\",\"value\":1.0,\"unit\":\"s\",\"direction\":\"sideways\"}",
            "{\"name\":\"x\",\"value\":\"NaN\",\"unit\":\"s\",\"direction\":\"lower_is_better\"}",
        ] {
            assert!(
                Metric::from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }
}
