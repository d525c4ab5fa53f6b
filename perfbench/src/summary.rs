//! Turning per-job samples into reported metrics: percentiles, miss
//! accounting, energy ratio, and the result line.

use std::fmt::Write as _;

/// A percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot set it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of already sorted samples: the smallest sample
/// with at least `p`% of the samples at or below it. `p` is in (0, 100].
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Percentile `p` of `samples`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(nearest_rank(&sorted(samples), p))
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 50.0)
}

/// How one attempted job ended, as the benchmark judged it.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The job ended `done`. `verified` is whether the returned bitstring's
    /// energy, recomputed on a locally rebuilt model, equals the reported
    /// energy; `e_neg` is the sum of the model's negative coefficients.
    Done {
        energy: i64,
        e_neg: i64,
        verified: bool,
        target: Option<i64>,
    },
    /// Refused at admission.
    Rejected,
    /// Transport or protocol failure, or an error reply.
    Errored,
    /// Terminal in another phase (`failed`, `cancelled`, `expired`).
    Phase,
}

/// Counts over a run's outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tally {
    pub attempted: usize,
    /// Done, verified, and (with a target) at or below it.
    pub successes: usize,
    pub done: usize,
    /// Done jobs whose energy did not verify.
    pub unverified: usize,
    /// Verified done jobs above their target.
    pub target_misses: usize,
    /// Jobs that did not end `done` or did not verify: rejections, errors,
    /// other phases, and mismatches.
    pub failed: usize,
    ratio_sum: f64,
}

impl Tally {
    pub fn of(outcomes: &[Outcome]) -> Tally {
        let mut t = Tally {
            attempted: outcomes.len(),
            ..Tally::default()
        };
        for o in outcomes {
            match *o {
                Outcome::Done {
                    energy,
                    e_neg,
                    verified,
                    target,
                } => {
                    t.done += 1;
                    t.ratio_sum += energy_ratio(energy, e_neg);
                    if !verified {
                        t.unverified += 1;
                        t.failed += 1;
                    } else if target.is_some_and(|tgt| energy > tgt) {
                        t.target_misses += 1;
                    } else {
                        t.successes += 1;
                    }
                }
                Outcome::Rejected | Outcome::Errored | Outcome::Phase => t.failed += 1,
            }
        }
        t
    }

    /// Successes ÷ attempted; every miss of any kind counts against it.
    pub fn success_rate(&self) -> f64 {
        self.successes as f64 / self.attempted.max(1) as f64
    }

    /// Mean of `E_job / E_neg` over done jobs (0 when none finished).
    pub fn energy_ratio(&self) -> f64 {
        self.ratio_sum / self.done.max(1) as f64
    }
}

/// `E / E_neg`, where `E_neg` (the sum of every negative coefficient) is
/// the lowest energy any assignment could reach: 1 at that bound, lower
/// for worse solutions. A model with no negative coefficient has optimum
/// 0 and scores 1 there.
pub fn energy_ratio(energy: i64, e_neg: i64) -> f64 {
    if e_neg == 0 {
        return if energy == 0 { 1.0 } else { 0.0 };
    }
    energy as f64 / e_neg as f64
}

/// One reported metric with the sample count behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Human-readable table: every metric by name, unit and sample count.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<28} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// The machine-readable result: one JSON object on one line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(energy: i64, target: Option<i64>) -> Outcome {
        Outcome::Done {
            energy,
            e_neg: -100,
            verified: true,
            target,
        }
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 90.0), 90.0);
        assert_eq!(nearest_rank(&v, 90.5), 91.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 1.0), 7.0);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&odd, 50.0), 2.0);
        assert_eq!(nearest_rank(&odd, 34.0), 2.0);
        assert_eq!(nearest_rank(&odd, 33.0), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        // The median needs 20 samples.
        assert_eq!(percentile(&hundred[..19], 50.0), None);
        assert!(percentile(&hundred[..20], 50.0).is_some());
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn unsorted_input_is_sorted_before_ranking() {
        let v: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        assert_eq!(percentile(&v, 50.0), Some(19.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn every_kind_of_miss_counts_against_success() {
        let outcomes = vec![
            done(-90, None),
            done(-50, Some(-60)), // verified, above its target
            done(-60, Some(-60)), // exactly at the target
            Outcome::Done {
                energy: -95,
                e_neg: -100,
                verified: false,
                target: None,
            },
            Outcome::Rejected,
            Outcome::Errored,
            Outcome::Phase,
        ];
        let t = Tally::of(&outcomes);
        assert_eq!(t.attempted, 7);
        assert_eq!(t.successes, 2);
        assert_eq!(t.done, 4);
        assert_eq!(t.unverified, 1);
        assert_eq!(t.target_misses, 1);
        assert_eq!(t.failed, 4, "rejected, errored, other phase, unverified");
        assert!((t.success_rate() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn energy_ratio_is_the_mean_over_done_jobs() {
        assert_eq!(energy_ratio(-50, -100), 0.5);
        assert_eq!(energy_ratio(-100, -100), 1.0);
        assert_eq!(energy_ratio(0, 0), 1.0);
        assert_eq!(energy_ratio(3, 0), 0.0);
        let t = Tally::of(&[done(-100, None), done(-50, None), Outcome::Rejected]);
        assert!(
            (t.energy_ratio() - 0.75).abs() < 1e-12,
            "{}",
            t.energy_ratio()
        );
        assert_eq!(Tally::of(&[Outcome::Errored]).energy_ratio(), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_full_digits() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("latency_ms.p50", 1.2034567891, "ms", 12),
                Metric::new("setup_s", 0.5, "s", 5),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_ms.p50\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metrics_are_refused() {
        Metric::new("x", f64::NAN, "ms", 1);
    }
}
