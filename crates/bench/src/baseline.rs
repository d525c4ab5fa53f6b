//! Baseline comparison — the regression gate over the perf trajectory.
//!
//! `suite compare` diffs a fresh [`SuiteReport`] against a committed
//! baseline (`BENCH_<pr>.json`). Only metrics the *baseline* marks `gate`
//! are enforced, each with its own relative tolerance: a candidate value
//! that moves in the metric's worse direction by more than
//! `tolerance × |baseline value|` is a regression, and a gated baseline
//! metric that disappeared from the candidate fails outright (a deleted
//! benchmark must be an explicit baseline update, never an accident).

use crate::report::SuiteReport;

/// One gated metric's comparison.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    pub entry: String,
    pub metric: String,
    pub unit: String,
    pub baseline: f64,
    pub candidate: f64,
    /// Positive = candidate is worse, in the metric's worse direction.
    pub worse_by: f64,
    /// Allowed worse-direction drift (`tolerance × |baseline|`, scaled).
    pub allowed: f64,
}

impl MetricDiff {
    fn describe(&self, verdict: &str) -> String {
        format!(
            "{verdict}: {}/{} — baseline {:.4} {u}, candidate {:.4} {u} (worse by {:.4}, allowed {:.4})",
            self.entry,
            self.metric,
            self.baseline,
            self.candidate,
            self.worse_by,
            self.allowed,
            u = self.unit,
        )
    }
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Gated metrics that moved past their tolerance in the worse direction.
    pub regressions: Vec<MetricDiff>,
    /// Gated metrics that moved past their tolerance in the *better*
    /// direction (informational — candidates for a baseline refresh).
    pub improvements: Vec<MetricDiff>,
    /// `entry/metric` paths gated in the baseline but absent from the
    /// candidate. Always a failure.
    pub missing: Vec<String>,
    /// Gated metrics checked.
    pub checked: usize,
}

impl CompareReport {
    /// True when CI should stay green.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.missing {
            out.push_str(&format!(
                "MISSING: {m} — gated in baseline, absent from candidate\n"
            ));
        }
        for d in &self.regressions {
            out.push_str(&d.describe("REGRESSION"));
            out.push('\n');
        }
        for d in &self.improvements {
            out.push_str(&d.describe("improvement"));
            out.push('\n');
        }
        out.push_str(&format!(
            "compared {} gated metrics: {} regression(s), {} improvement(s), {} missing → {}\n",
            self.checked,
            self.regressions.len(),
            self.improvements.len(),
            self.missing.len(),
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        out
    }
}

/// Compare a candidate run against a baseline.
///
/// `tolerance_scale` multiplies every per-metric tolerance (CI uses 1.0; a
/// noisy dev box can pass 2.0 without editing the baseline). Errors (as
/// opposed to regressions) mean the two reports are not comparable at all:
/// different schema, mode, or seed.
pub fn compare(
    baseline: &SuiteReport,
    candidate: &SuiteReport,
    tolerance_scale: f64,
) -> Result<CompareReport, String> {
    if baseline.schema_version != candidate.schema_version {
        return Err(format!(
            "schema mismatch: baseline v{}, candidate v{}",
            baseline.schema_version, candidate.schema_version
        ));
    }
    if baseline.mode != candidate.mode {
        return Err(format!(
            "mode mismatch: baseline ran {:?}, candidate ran {:?} — gates only make sense at equal scale",
            baseline.mode.name(),
            candidate.mode.name()
        ));
    }
    if baseline.seed != candidate.seed {
        return Err(format!(
            "seed mismatch: baseline {}, candidate {} — deterministic metrics are seed-specific",
            baseline.seed, candidate.seed
        ));
    }
    if baseline.host != candidate.host {
        eprintln!(
            "note: comparing across hosts ({}/{} {}cpu simd {} vs {}/{} {}cpu simd {}) — wall-clock metrics carry wide tolerances for this reason",
            baseline.host.os,
            baseline.host.arch,
            baseline.host.cpus,
            baseline.host.simd,
            candidate.host.os,
            candidate.host.arch,
            candidate.host.cpus,
            candidate.host.simd
        );
    }

    let mut report = CompareReport::default();
    for base_entry in &baseline.entries {
        let cand_entry = candidate.entry(&base_entry.name);
        for base_metric in base_entry.metrics.iter().filter(|m| m.gate) {
            let path = format!("{}/{}", base_entry.name, base_metric.name);
            let Some(cand_metric) = cand_entry.and_then(|e| e.metrics.get(&base_metric.name))
            else {
                report.missing.push(path);
                continue;
            };
            // A metric whose unit or direction changed under the same name
            // is a different measurement: gating its raw value against the
            // old baseline would be garbage arithmetic, so refuse outright
            // (same spirit as the mode/seed checks above).
            if cand_metric.unit != base_metric.unit {
                return Err(format!(
                    "{path}: unit changed ({:?} → {:?}) — refresh the baseline instead of comparing across units",
                    base_metric.unit, cand_metric.unit
                ));
            }
            if cand_metric.direction != base_metric.direction {
                return Err(format!(
                    "{path}: direction changed ({} → {}) — refresh the baseline",
                    base_metric.direction.name(),
                    cand_metric.direction.name()
                ));
            }
            report.checked += 1;
            let worse_by = base_metric.worse_by(base_metric.value, cand_metric.value);
            let allowed = base_metric.tolerance * base_metric.value.abs() * tolerance_scale;
            let diff = MetricDiff {
                entry: base_entry.name.clone(),
                metric: base_metric.name.clone(),
                unit: base_metric.unit.clone(),
                baseline: base_metric.value,
                candidate: cand_metric.value,
                worse_by,
                allowed,
            };
            if worse_by > allowed {
                report.regressions.push(diff);
            } else if worse_by < -allowed && worse_by < 0.0 {
                report.improvements.push(diff);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{EntryReport, HostInfo, SCHEMA_VERSION};
    use crate::suite::{Family, SuiteMode};
    use dabs_core::{Direction, Metric, MetricSet};

    fn report_with(metrics: Vec<Metric>) -> SuiteReport {
        let mut set = MetricSet::new();
        for m in metrics {
            set.push(m);
        }
        SuiteReport {
            schema_version: SCHEMA_VERSION,
            mode: SuiteMode::Smoke,
            seed: 1,
            host: HostInfo::detect(),
            wall_ms: 100,
            cpu_ms: None,
            entries: vec![EntryReport {
                name: "e".into(),
                family: Family::Kernel,
                started_ms: 0,
                wall_ms: 100,
                context: Vec::new(),
                metrics: set,
            }],
        }
    }

    fn speedup(v: f64) -> Metric {
        Metric::new("speedup", v, "ratio", Direction::HigherIsBetter).gated(0.4)
    }

    fn energy(v: f64) -> Metric {
        Metric::new("energy", v, "energy", Direction::LowerIsBetter)
            .deterministic()
            .gated(0.2)
    }

    #[test]
    fn identical_reports_pass() {
        let b = report_with(vec![speedup(3.6), energy(-1000.0)]);
        let r = compare(&b, &b.clone(), 1.0).unwrap();
        assert!(r.passed());
        assert_eq!(r.checked, 2);
        assert!(r.improvements.is_empty());
    }

    #[test]
    fn inflated_baseline_trips_the_gate() {
        // A doctored baseline claiming a 100× speedup must make any honest
        // candidate look like a regression.
        let doctored = report_with(vec![speedup(360.0)]);
        let honest = report_with(vec![speedup(3.6)]);
        let r = compare(&doctored, &honest, 1.0).unwrap();
        assert!(!r.passed());
        assert_eq!(r.regressions.len(), 1);
        assert!(r.render().contains("REGRESSION"), "{}", r.render());
    }

    #[test]
    fn tolerance_band_is_direction_aware_and_relative() {
        let base = report_with(vec![speedup(3.0), energy(-1000.0)]);
        // within tolerance both ways
        let ok = report_with(vec![speedup(2.0), energy(-850.0)]);
        assert!(compare(&base, &ok, 1.0).unwrap().passed());
        // energy regressed >20% of |baseline|
        let worse = report_with(vec![speedup(3.0), energy(-700.0)]);
        let r = compare(&base, &worse, 1.0).unwrap();
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].metric, "energy");
        // tolerance_scale loosens the band
        assert!(compare(&base, &worse, 2.0).unwrap().passed());
        // improvements are reported but never fail
        let better = report_with(vec![speedup(6.0), energy(-1300.0)]);
        let r = compare(&base, &better, 1.0).unwrap();
        assert!(r.passed());
        assert_eq!(r.improvements.len(), 2);
    }

    #[test]
    fn missing_gated_metric_fails() {
        let base = report_with(vec![speedup(3.0), energy(-1000.0)]);
        let cand = report_with(vec![speedup(3.0)]);
        let r = compare(&base, &cand, 1.0).unwrap();
        assert!(!r.passed());
        assert_eq!(r.missing, vec!["e/energy".to_string()]);
        // a whole missing entry reports every gated metric of it
        let mut no_entry = base.clone();
        no_entry.entries[0].name = "renamed".into();
        let r = compare(&base, &no_entry, 1.0).unwrap();
        assert_eq!(r.missing.len(), 2);
    }

    #[test]
    fn ungated_metrics_are_ignored() {
        let free = Metric::new("tts", 1.0, "s", Direction::LowerIsBetter);
        let base = report_with(vec![free.clone()]);
        let mut cand = report_with(vec![Metric::new(
            "tts",
            99.0,
            "s",
            Direction::LowerIsBetter,
        )]);
        assert!(compare(&base, &cand, 1.0).unwrap().passed());
        cand.entries[0].metrics = MetricSet::new();
        cand.entries[0]
            .metrics
            .push(Metric::new("other", 1.0, "s", Direction::LowerIsBetter));
        assert!(
            compare(&base, &cand, 1.0).unwrap().passed(),
            "ungated may vanish"
        );
    }

    #[test]
    fn changed_unit_or_direction_refuses_to_compare() {
        let base = report_with(vec![speedup(3.0)]);
        let mut other_unit = base.clone();
        other_unit.entries[0].metrics = MetricSet::new();
        other_unit.entries[0]
            .metrics
            .push(Metric::new("speedup", 3.0, "percent", Direction::HigherIsBetter).gated(0.4));
        assert!(compare(&base, &other_unit, 1.0)
            .unwrap_err()
            .contains("unit"));

        let mut other_dir = base.clone();
        other_dir.entries[0].metrics = MetricSet::new();
        other_dir.entries[0]
            .metrics
            .push(Metric::new("speedup", 3.0, "ratio", Direction::LowerIsBetter).gated(0.4));
        assert!(compare(&base, &other_dir, 1.0)
            .unwrap_err()
            .contains("direction"));
    }

    #[test]
    fn incomparable_reports_error() {
        let base = report_with(vec![speedup(3.0)]);
        let mut other_mode = base.clone();
        other_mode.mode = SuiteMode::Full;
        assert!(compare(&base, &other_mode, 1.0)
            .unwrap_err()
            .contains("mode"));
        let mut other_seed = base.clone();
        other_seed.seed = 2;
        assert!(compare(&base, &other_seed, 1.0)
            .unwrap_err()
            .contains("seed"));
        let mut other_schema = base.clone();
        other_schema.schema_version = 99;
        assert!(compare(&base, &other_schema, 1.0)
            .unwrap_err()
            .contains("schema"));
    }
}
