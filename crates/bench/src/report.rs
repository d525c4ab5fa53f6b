//! The machine-readable suite report — the repo's perf trajectory format.
//!
//! Every suite run serializes to one `BENCH_*.json` document: schema
//! version, host info, seed, mode, and per-entry [`MetricSet`]s with wall
//! (and on Linux, CPU) time. The committed `BENCH_<pr>.json` files at the
//! repo root form the trajectory; `suite compare` (see [`crate::baseline`])
//! diffs a fresh run against the latest committed point and fails CI on
//! gated regressions. Schema reference: `docs/BENCHMARKS.md`.

use crate::suite::{Family, SuiteMode};
use dabs_core::MetricSet;
use serde::json::Json;

/// Bumped on any incompatible change to the JSON layout. Comparisons across
/// different schema versions are refused.
pub const SCHEMA_VERSION: i64 = 1;

/// Where a report was produced. Informational: comparisons warn on host
/// mismatch but do not fail, since the committed baseline and a CI runner
/// are rarely the same machine (which is also why wall-clock metrics carry
/// generous tolerances or no gate at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    pub os: String,
    pub arch: String,
    pub cpus: usize,
    /// Instruction-set tier the flip path ran on (`dabs_model::simd_tier`):
    /// `avx512`, `avx2` or `portable`, and `unknown` in reports written
    /// before the field existed.
    pub simd: String,
}

impl HostInfo {
    pub fn detect() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: detect_cpus(),
            simd: dabs_model::simd_tier().to_string(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("os", Json::str(self.os.clone())),
            ("arch", Json::str(self.arch.clone())),
            ("cpus", Json::from(self.cpus)),
            ("simd", Json::str(self.simd.clone())),
        ])
    }

    fn from_json(j: &Json) -> Result<HostInfo, String> {
        Ok(HostInfo {
            os: j.get_str("os").ok_or("host missing \"os\"")?.to_string(),
            arch: j
                .get_str("arch")
                .ok_or("host missing \"arch\"")?
                .to_string(),
            cpus: j.get_u64("cpus").ok_or("host missing \"cpus\"")? as usize,
            simd: j.get_str("simd").unwrap_or("unknown").to_string(),
        })
    }
}

/// One suite entry's results.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryReport {
    pub name: String,
    pub family: Family,
    /// Milliseconds since suite start when this entry began — entries run
    /// in registry order, so these are monotone (schema-validated).
    pub started_ms: u64,
    pub wall_ms: u64,
    /// Measurement context (kernel backend, segment-layer on/off, …):
    /// string key/value pairs that make trajectory points comparable across
    /// machines and code revisions. Optional in the schema — reports
    /// written before it existed parse with an empty context.
    pub context: Vec<(String, String)>,
    pub metrics: MetricSet,
}

impl EntryReport {
    fn to_json(&self) -> Json {
        let context = Json::Obj(
            self.context
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                .collect(),
        );
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("family", Json::str(self.family.name())),
            ("started_ms", Json::from(self.started_ms)),
            ("wall_ms", Json::from(self.wall_ms)),
            ("context", context),
            ("metrics", self.metrics.to_json()),
        ])
    }

    fn from_json(j: &Json) -> Result<EntryReport, String> {
        let name = j
            .get_str("name")
            .ok_or("entry missing \"name\"")?
            .to_string();
        let family = j
            .get_str("family")
            .and_then(Family::by_name)
            .ok_or_else(|| format!("entry {name:?}: bad family"))?;
        let context = match j.get("context") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| {
                            format!("entry {name:?}: context value for {k:?} not a string")
                        })
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(format!("entry {name:?}: context is not an object")),
            None => Vec::new(),
        };
        Ok(EntryReport {
            started_ms: j
                .get_u64("started_ms")
                .ok_or_else(|| format!("entry {name:?}: missing started_ms"))?,
            wall_ms: j
                .get_u64("wall_ms")
                .ok_or_else(|| format!("entry {name:?}: missing wall_ms"))?,
            metrics: MetricSet::from_json(
                j.get("metrics")
                    .ok_or_else(|| format!("entry {name:?}: missing metrics"))?,
            )
            .map_err(|e| format!("entry {name:?}: {e}"))?,
            name,
            family,
            context,
        })
    }
}

/// A complete suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    pub schema_version: i64,
    pub mode: SuiteMode,
    pub seed: u64,
    pub host: HostInfo,
    pub wall_ms: u64,
    /// Process CPU time consumed by the run (Linux only, else absent).
    pub cpu_ms: Option<u64>,
    pub entries: Vec<EntryReport>,
}

impl SuiteReport {
    /// Serialize. Multi-line, one entry per line, so `BENCH_*.json` diffs
    /// stay readable in review while the document remains strict JSON.
    pub fn to_json_string(&self) -> String {
        let header = Json::obj([
            ("schema_version", Json::from(self.schema_version)),
            ("suite", Json::str("dabs-bench")),
            ("mode", Json::str(self.mode.name())),
            ("seed", Json::from(self.seed)),
            ("host", self.host.to_json()),
            ("wall_ms", Json::from(self.wall_ms)),
            ("cpu_ms", Json::from(self.cpu_ms)),
        ]);
        let Json::Obj(pairs) = header else {
            unreachable!()
        };
        let mut out = String::from("{\n");
        for (k, v) in &pairs {
            out.push_str(&format!("\"{k}\":{v},\n"));
        }
        out.push_str("\"entries\":[\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&e.to_json().to_string());
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    /// Parse a report document (strict: unknown schema versions rejected).
    pub fn from_json_str(text: &str) -> Result<SuiteReport, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let schema_version = j
            .get_i64("schema_version")
            .ok_or("missing \"schema_version\"")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let mode = j
            .get_str("mode")
            .and_then(SuiteMode::by_name)
            .ok_or("missing or bad \"mode\"")?;
        let entries = j
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("missing \"entries\" array")?
            .iter()
            .map(EntryReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SuiteReport {
            schema_version,
            mode,
            seed: j.get_u64("seed").ok_or("missing \"seed\"")?,
            host: HostInfo::from_json(j.get("host").ok_or("missing \"host\"")?)?,
            wall_ms: j.get_u64("wall_ms").ok_or("missing \"wall_ms\"")?,
            cpu_ms: j.get_u64("cpu_ms"),
            entries,
        })
    }

    /// Schema validation: structural rules every `BENCH_*.json` must hold.
    ///
    /// * at least one entry, unique entry names
    /// * `started_ms` monotone non-decreasing across entries
    /// * every entry has at least one metric
    /// * every metric has a non-empty name and unit and a finite value
    pub fn validate(&self) -> Result<(), String> {
        if self.entries.is_empty() {
            return Err("report has no entries".into());
        }
        let mut last_start = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|p| p.name == e.name) {
                return Err(format!("duplicate entry name {:?}", e.name));
            }
            if e.started_ms < last_start {
                return Err(format!(
                    "entry {:?} starts at {}ms, before the previous entry ({}ms): timestamps must be monotone",
                    e.name, e.started_ms, last_start
                ));
            }
            last_start = e.started_ms;
            if e.metrics.is_empty() {
                return Err(format!("entry {:?} has no metrics", e.name));
            }
            for m in e.metrics.iter() {
                if m.name.is_empty() {
                    return Err(format!(
                        "entry {:?} has a metric with an empty name",
                        e.name
                    ));
                }
                if m.unit.is_empty() {
                    return Err(format!("metric {}.{} has no unit", e.name, m.name));
                }
                if !m.value.is_finite() {
                    return Err(format!("metric {}.{} is not finite", e.name, m.name));
                }
                if m.tolerance < 0.0 || !m.tolerance.is_finite() {
                    return Err(format!("metric {}.{} has a bad tolerance", e.name, m.name));
                }
            }
        }
        Ok(())
    }

    /// Validation plus coverage: every listed family must have at least one
    /// non-empty entry (the acceptance bar for an unfiltered run).
    pub fn validate_coverage(&self, required: &[Family]) -> Result<(), String> {
        self.validate()?;
        for f in required {
            if !self.entries.iter().any(|e| e.family == *f) {
                return Err(format!("no entry for required family {:?}", f.name()));
            }
        }
        Ok(())
    }

    /// Look up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&EntryReport> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Write to a file (see [`SuiteReport::to_json_string`]).
    pub fn write_file(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.to_json_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Read and parse a report file.
    pub fn read_file(path: &std::path::Path) -> Result<SuiteReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SuiteReport::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Robust CPU count: the max of `available_parallelism` (which reflects
/// cgroup/affinity limits and can report 1 in containers even on large
/// machines) and the `processor` entries in `/proc/cpuinfo`. Taking the max
/// records the hardware the box actually has — the number that makes
/// wall-clock trajectory points comparable across machines — rather than
/// whatever quota the run happened to execute under.
pub fn detect_cpus() -> usize {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    avail.max(cpuinfo).max(1)
}

/// Process CPU time (user + system) in milliseconds, from `/proc/self/stat`.
/// Assumes the conventional 100 Hz clock-tick unit (`USER_HZ`); returns
/// `None` off Linux or if the file is unreadable.
pub fn cpu_time_ms() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14/15 (utime/stime) counted after the parenthesised comm,
    // which may itself contain spaces.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_core::{Direction, Metric, MetricSet};

    fn sample() -> SuiteReport {
        let mut m = MetricSet::new();
        m.push(
            Metric::new(
                "k2000.best_energy",
                -421.0,
                "energy",
                Direction::LowerIsBetter,
            )
            .deterministic()
            .gated(0.2),
        );
        m.push(Metric::new(
            "k2000.mean_tts_s",
            0.031,
            "s",
            Direction::LowerIsBetter,
        ));
        let mut srv = MetricSet::new();
        srv.push(Metric::new("jobs_per_s", 120.0, "jobs/s", Direction::HigherIsBetter).gated(0.6));
        SuiteReport {
            schema_version: SCHEMA_VERSION,
            mode: SuiteMode::Smoke,
            seed: 1,
            host: HostInfo::detect(),
            wall_ms: 1234,
            cpu_ms: Some(2400),
            entries: vec![
                EntryReport {
                    name: "ttt_maxcut".into(),
                    family: Family::MaxCut,
                    started_ms: 0,
                    wall_ms: 900,
                    context: vec![
                        ("kernel".into(), "auto".into()),
                        ("segments".into(), "on".into()),
                    ],
                    metrics: m,
                },
                EntryReport {
                    name: "server_load".into(),
                    family: Family::Server,
                    started_ms: 900,
                    wall_ms: 300,
                    context: Vec::new(),
                    metrics: srv,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let text = r.to_json_string();
        let back = SuiteReport::from_json_str(&text).expect("parse");
        assert_eq!(back, r);
    }

    #[test]
    fn host_simd_tier_round_trips_and_defaults_when_absent() {
        let mut r = sample();
        r.host.simd = "avx2".into();
        let text = r.to_json_string();
        assert!(text.contains("\"simd\":\"avx2\""), "{text}");
        assert_eq!(SuiteReport::from_json_str(&text).expect("parse"), r);

        let old = text.replace(",\"simd\":\"avx2\"", "");
        assert!(!old.contains("simd"), "{old}");
        let back = SuiteReport::from_json_str(&old).expect("pre-simd report parses");
        assert_eq!(back.host.simd, "unknown");
        r.host.simd = "unknown".into();
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let text = sample()
            .to_json_string()
            .replace("\"schema_version\":1", "\"schema_version\":999");
        let err = SuiteReport::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn validate_accepts_sample_and_rejects_structural_breaks() {
        let r = sample();
        r.validate().expect("sample is valid");
        r.validate_coverage(&[Family::MaxCut, Family::Server])
            .expect("covered");
        assert!(r.validate_coverage(&[Family::Qap]).is_err());

        let mut empty = r.clone();
        empty.entries.clear();
        assert!(empty.validate().is_err());

        let mut no_metrics = r.clone();
        no_metrics.entries[1].metrics = MetricSet::new();
        assert!(no_metrics.validate().unwrap_err().contains("no metrics"));

        let mut backwards = r.clone();
        backwards.entries[1].started_ms = 0;
        backwards.entries[0].started_ms = 10;
        assert!(backwards.validate().unwrap_err().contains("monotone"));

        let mut dup = r.clone();
        dup.entries[1].name = dup.entries[0].name.clone();
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut unitless = r;
        let mut bad = MetricSet::new();
        bad.push(Metric::new("x", 1.0, "", Direction::LowerIsBetter));
        unitless.entries[0].metrics = bad;
        assert!(unitless.validate().unwrap_err().contains("unit"));
    }

    #[test]
    fn context_survives_round_trip_and_is_optional() {
        let r = sample();
        let back = SuiteReport::from_json_str(&r.to_json_string()).expect("parse");
        assert_eq!(
            back.entries[0].context,
            vec![
                ("kernel".to_string(), "auto".to_string()),
                ("segments".to_string(), "on".to_string()),
            ]
        );
        // Reports written before the context field existed (e.g. the
        // committed BENCH_4.json) must parse with an empty context.
        let legacy = r
            .to_json_string()
            .replace("\"context\":{\"kernel\":\"auto\",\"segments\":\"on\"},", "");
        let back = SuiteReport::from_json_str(&legacy).expect("legacy parse");
        assert!(back.entries[0].context.is_empty());
    }

    #[test]
    fn detect_cpus_is_at_least_one_and_at_least_available_parallelism() {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(detect_cpus() >= avail.max(1));
    }

    #[test]
    fn cpu_time_is_available_on_linux() {
        if cfg!(target_os = "linux") {
            let a = cpu_time_ms().expect("/proc/self/stat readable");
            // burn a little CPU and check monotonicity
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
            assert!(cpu_time_ms().expect("still readable") >= a);
        }
    }
}
