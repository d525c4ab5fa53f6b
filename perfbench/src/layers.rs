//! The traced run's per-layer timing. Before serving a job end to end, the
//! benchmark calls each layer's public entry point on the same job
//! in-process, in pipeline order, and records every call as a span that
//! shares the job's index. Spans stay in memory until the run ends.

use crate::server::status_kb;
use crate::summary::{beyond, nearest_rank, sorted, Metric, MIN_BEYOND};
use dabs_core::MetricSet;
use dabs_model::KernelKind;
use dabs_server::{execute, JobPhase, JobRegistry, JobSpec, Request, Response, Wal, WalRecord};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub job: usize,
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// What the in-process calls measured for one job.
#[derive(Debug, Clone)]
pub struct JobLayers {
    pub submit_bytes: usize,
    pub decode_us: f64,
    pub validate_us: f64,
    pub wal_admit_us: f64,
    pub wal_flush_us: f64,
    pub wal_terminal_us: f64,
    pub wal_bytes: u64,
    pub build_ms: f64,
    pub rss_mb: f64,
    /// The unit fold a 1-worker pool runs: every unit, one after another.
    pub solve_ms: f64,
    /// Units the server runs side by side for this job.
    pub parallel_units: u32,
    pub flips: u64,
    pub batches: u64,
    pub kernel: KernelKind,
    pub cert_us: f64,
    pub encode_us: f64,
}

impl JobLayers {
    /// The layers on the server's blocking path, in milliseconds: decode,
    /// admission, the admit append, model build, solve (its units run in
    /// parallel on the server), the terminal append, and encode. The WAL
    /// fsync runs on a background flusher and the server does not certify
    /// results, so neither is on the path.
    pub fn critical_path_ms(&self) -> f64 {
        (self.decode_us
            + self.validate_us
            + self.wal_admit_us
            + self.wal_terminal_us
            + self.encode_us)
            / 1e3
            + self.build_ms
            + self.solve_ms / f64::from(self.parallel_units.max(1))
    }
}

/// In-process layer timer for one traced run.
pub struct Tracer {
    origin: Instant,
    wal: Wal,
    workers: usize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// `dir` holds the traced WAL; `workers` is the server's worker count.
    pub fn new(dir: &Path, workers: usize) -> Result<Self, String> {
        let (wal, _) = Wal::open(dir).map_err(|e| format!("open traced WAL: {e}"))?;
        Ok(Self {
            origin: Instant::now(),
            wal,
            workers,
            spans: Mutex::new(Vec::new()),
        })
    }

    fn span<T>(&self, job: usize, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.lock().expect("span lock").push(Span {
            job,
            layer,
            start_us: us(start),
            end_us: us(end),
        });
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    /// Record the end-to-end client span of job `job`.
    pub fn client_span(&self, job: usize, start: Instant, end: Instant) {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.lock().expect("span lock").push(Span {
            job,
            layer: "client",
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Time every layer's entry point on `spec`, in pipeline order.
    pub fn trace_job(&self, job: usize, spec: &JobSpec) -> Result<JobLayers, String> {
        let line = Request::Submit(Box::new(spec.clone()))
            .to_json()
            .to_string();
        let (request, decode_us) = self.span(job, "protocol.decode", || Request::parse_line(&line));
        let spec = match request.map_err(|e| format!("decode: {e}"))? {
            Request::Submit(spec) => *spec,
            other => return Err(format!("submit line decoded as {other:?}")),
        };
        let (valid, validate_us) = self.span(job, "admission.validate", || spec.validate());
        valid.map_err(|e| format!("validate: {e}"))?;

        let wal_before = wal_len(&self.wal);
        let id = job as u64 + 1;
        let admit = WalRecord::Admit {
            job: id,
            spec: spec.clone(),
        };
        let ((), wal_admit_us) = self.span(job, "wal.append", || self.wal.append(&admit));
        let ((), wal_flush_us) = self.span(job, "wal.flush", || self.wal.flush());

        // A registry per job, so the model is freed with the record.
        let registry = JobRegistry::new();
        let rss_before = self_rss_kb();
        let (model, build_us) = self.span(job, "model.build", || {
            let record = registry.register(spec);
            record.model().map(|m| (record, m))
        });
        let (record, model) = model.map_err(|e| format!("model build: {e}"))?;
        let rss_mb = (self_rss_kb() - rss_before).max(0.0) / 1024.0;

        let ((), solve_us) = self.span(job, "solve", || execute(&record));
        let (phase, result, error) = record.snapshot();
        let result = match (phase, result) {
            (JobPhase::Done, Some(r)) => r,
            _ => return Err(format!("in-process solve ended {phase:?}: {error:?}")),
        };
        let (energy, cert_us) = self.span(job, "cert.energy", || model.energy(&result.best));
        if energy != result.energy {
            return Err(format!(
                "in-process solve reported energy {} but its solution has {energy}",
                result.energy
            ));
        }
        let terminal = WalRecord::Terminal {
            job: id,
            phase,
            result: Some(Box::new(result.clone())),
            error: None,
        };
        let ((), wal_terminal_us) = self.span(job, "wal.append", || self.wal.append(&terminal));
        let wal_bytes = wal_len(&self.wal) - wal_before;
        let done = Response::Done {
            job: id,
            phase: phase.name().to_string(),
            result: Some(Box::new(result.clone())),
            error: None,
        };
        let (_, encode_us) = self.span(job, "protocol.encode", || done.encode());
        Ok(JobLayers {
            submit_bytes: line.len(),
            decode_us,
            validate_us,
            wal_admit_us,
            wal_flush_us,
            wal_terminal_us,
            wal_bytes,
            build_ms: build_us / 1e3,
            rss_mb,
            solve_ms: solve_us / 1e3,
            parallel_units: record.unit_counts().0.min(self.workers as u32),
            flips: result.flips,
            batches: result.batches,
            kernel: model.kernel_kind(),
            cert_us,
            encode_us,
        })
    }

    /// Every span as one JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.lock().expect("span lock").iter() {
            let _ = writeln!(
                out,
                "{{\"job\": {}, \"layer\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.job, s.layer, s.start_us, s.end_us
            );
        }
        out
    }
}

fn wal_len(wal: &Wal) -> u64 {
    std::fs::metadata(wal.path()).map_or(0, |m| m.len())
}

fn self_rss_kb() -> f64 {
    status_kb(std::process::id(), "VmRSS:").unwrap_or(0.0)
}

/// Nearest-rank percentile for a per-layer metric. Per-layer metrics carry
/// no bound, so a percentile short of [`MIN_BEYOND`] samples is still
/// reported; the run's notes say so.
fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    nearest_rank(&sorted(samples), p)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Everything the traced run reports, plus its table notes.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// The mean traced job's latency split into the layers on the server's
/// blocking path plus the residual (event loop, hand-offs, network, the
/// client): means add up, so the parts sum to the mean latency exactly.
pub fn critical_path_shares(traced: &[(JobLayers, f64)]) -> [(&'static str, f64); 7] {
    let m = |f: &dyn Fn(&JobLayers, f64) -> f64| {
        mean(&traced.iter().map(|(l, ms)| f(l, *ms)).collect::<Vec<_>>())
    };
    [
        ("protocol.decode", m(&|l, _| l.decode_us / 1e3)),
        ("admission.validate", m(&|l, _| l.validate_us / 1e3)),
        (
            "wal.append",
            m(&|l, _| (l.wal_admit_us + l.wal_terminal_us) / 1e3),
        ),
        ("model.build", m(&|l, _| l.build_ms)),
        (
            "solve",
            m(&|l, _| l.solve_ms / f64::from(l.parallel_units.max(1))),
        ),
        ("protocol.encode", m(&|l, _| l.encode_us / 1e3)),
        ("edge.residual", m(&|l, ms| ms - l.critical_path_ms())),
    ]
}

/// Per-layer metrics of a traced run.
///
/// `traced` pairs each traced job's layers with its client latency (ms);
/// `untraced_ms` holds the untraced latencies of the same jobs, for the
/// tracing overhead; `server` is the server's `metrics` verb read once at
/// the end, and `server_jobs` the jobs that server ran in all.
pub fn report(
    traced: &[(JobLayers, f64)],
    untraced_ms: &[f64],
    server: &MetricSet,
    server_jobs: usize,
) -> LayerReport {
    let n = traced.len();
    let col =
        |f: &dyn Fn(&JobLayers) -> f64| -> Vec<f64> { traced.iter().map(|(l, _)| f(l)).collect() };
    let decode = col(&|l| l.decode_us);
    let encode = col(&|l| l.encode_us);
    let validate = col(&|l| l.validate_us);
    let appends: Vec<f64> = traced
        .iter()
        .flat_map(|(l, _)| [l.wal_admit_us, l.wal_terminal_us])
        .collect();
    let flush = col(&|l| l.wal_flush_us);
    let build = col(&|l| l.build_ms);
    let solve = col(&|l| l.solve_ms);
    let latency: Vec<f64> = traced.iter().map(|(_, ms)| *ms).collect();
    let residual: Vec<f64> = traced
        .iter()
        .map(|(l, ms)| ms - l.critical_path_ms())
        .collect();

    let mflips = |kind: Option<KernelKind>| -> f64 {
        let (flips, ms) = traced
            .iter()
            .filter(|(l, _)| kind.is_none_or(|k| l.kernel == k))
            .fold((0u64, 0.0), |(f, t), (l, _)| (f + l.flips, t + l.solve_ms));
        if ms > 0.0 {
            flips as f64 / (ms * 1e3)
        } else {
            0.0
        }
    };
    let count_of = |kind: KernelKind| traced.iter().filter(|(l, _)| l.kernel == kind).count();
    let server_metric = |name: &str| server.get(name).map_or(0.0, |m| m.value);
    let per_job = |name: &str| server_metric(name) / server_jobs.max(1) as f64;
    let traced_p50 = pct(&latency, 50.0);
    let untraced_p50 = pct(untraced_ms, 50.0);
    let overhead = if untraced_p50 > 0.0 {
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0
    } else {
        0.0
    };
    let pool_n = server_metric("pool.queue_wait.count") as usize;
    let run_n = server_metric("pool.unit_run.count") as usize;

    let metrics = vec![
        Metric::new("protocol.decode_us.p50", pct(&decode, 50.0), "us", n),
        Metric::new("protocol.decode_us.p90", pct(&decode, 90.0), "us", n),
        Metric::new("protocol.encode_us.p50", pct(&encode, 50.0), "us", n),
        Metric::new(
            "protocol.submit_bytes",
            pct(&col(&|l| l.submit_bytes as f64), 50.0),
            "bytes",
            n,
        ),
        Metric::new("admission.validate_us.p50", pct(&validate, 50.0), "us", n),
        Metric::new(
            "wal.append_us.p50",
            pct(&appends, 50.0),
            "us",
            appends.len(),
        ),
        Metric::new(
            "wal.append_us.p90",
            pct(&appends, 90.0),
            "us",
            appends.len(),
        ),
        Metric::new("wal.flush_us.p50", pct(&flush, 50.0), "us", n),
        Metric::new("wal.flush_us.p90", pct(&flush, 90.0), "us", n),
        Metric::new(
            "wal.bytes_per_job",
            mean(&col(&|l| l.wal_bytes as f64)),
            "bytes",
            n,
        ),
        Metric::new("model.build_ms.p50", pct(&build, 50.0), "ms", n),
        Metric::new("model.build_ms.p90", pct(&build, 90.0), "ms", n),
        Metric::new("model.rss_mb", pct(&col(&|l| l.rss_mb), 50.0), "MB", n),
        Metric::new("solve.ms.p50", pct(&solve, 50.0), "ms", n),
        Metric::new("solve.ms.p90", pct(&solve, 90.0), "ms", n),
        Metric::new(
            "solve.flips_per_job",
            mean(&col(&|l| l.flips as f64)),
            "flips",
            n,
        ),
        Metric::new(
            "solve.batches_per_job",
            mean(&col(&|l| l.batches as f64)),
            "batches",
            n,
        ),
        Metric::new("solve.mflips_per_s", mflips(None), "Mflip/s", n),
        Metric::new(
            "solve.mflips_per_s.dense",
            mflips(Some(KernelKind::Dense)),
            "Mflip/s",
            count_of(KernelKind::Dense),
        ),
        Metric::new(
            "solve.mflips_per_s.csr",
            mflips(Some(KernelKind::Csr)),
            "Mflip/s",
            count_of(KernelKind::Csr),
        ),
        Metric::new(
            "cert.energy_us.p50",
            pct(&col(&|l| l.cert_us), 50.0),
            "us",
            n,
        ),
        Metric::new(
            "pool.queue_wait_us.p50",
            server_metric("pool.queue_wait.p50"),
            "us",
            pool_n,
        ),
        Metric::new(
            "pool.queue_wait_us.p99",
            server_metric("pool.queue_wait.p99"),
            "us",
            pool_n,
        ),
        Metric::new(
            "pool.unit_run_us.p50",
            server_metric("pool.unit_run.p50"),
            "us",
            run_n,
        ),
        Metric::new(
            "pool.units_per_job",
            per_job("pool.units_popped"),
            "units",
            server_jobs,
        ),
        Metric::new(
            "pool.steals_per_job",
            per_job("pool.steals"),
            "count",
            server_jobs,
        ),
        Metric::new(
            "pool.splits_per_job",
            per_job("pool.splits"),
            "count",
            server_jobs,
        ),
        Metric::new("edge.residual_ms.p50", pct(&residual, 50.0), "ms", n),
        Metric::new("edge.residual_ms.p90", pct(&residual, 90.0), "ms", n),
        Metric::new(
            "net.bytes_in_per_job",
            per_job("net.bytes_in"),
            "bytes",
            server_jobs,
        ),
        Metric::new("trace.latency_ms.p50", traced_p50, "ms", n),
        Metric::new("trace.overhead_pct", overhead, "%", untraced_ms.len()),
    ];

    let mean_latency = mean(&latency);
    let shares = critical_path_shares(traced);
    let mut notes = vec![format!(
        "critical path of the mean traced job ({mean_latency:.3} ms over {n} jobs):"
    )];
    for (layer, ms) in shares {
        notes.push(format!(
            "  {layer:<20} {ms:>10.3} ms  {:>5.1}%",
            ms / mean_latency.max(f64::MIN_POSITIVE) * 100.0
        ));
    }
    let dominant = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |s| s.0);
    notes.push(format!("dominant layer: {dominant}"));
    if n == 0 || beyond(n, 90.0) < MIN_BEYOND {
        notes.push(format!(
            "note: {n} traced jobs leave fewer than {MIN_BEYOND} samples beyond each .p90"
        ));
    }
    notes.push("note: the metrics verb exports pool histograms as p50/p99, so pool.queue_wait_us reports p99".into());
    LayerReport { metrics, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers(solve_ms: f64, parallel_units: u32) -> JobLayers {
        JobLayers {
            submit_bytes: 300,
            decode_us: 20.0,
            validate_us: 1.0,
            wal_admit_us: 30.0,
            wal_flush_us: 150.0,
            wal_terminal_us: 40.0,
            wal_bytes: 900,
            build_ms: 2.0,
            rss_mb: 0.0,
            solve_ms,
            parallel_units,
            flips: 1000,
            batches: 10,
            kernel: KernelKind::Csr,
            cert_us: 5.0,
            encode_us: 9.0,
        }
    }

    #[test]
    fn critical_path_leaves_out_background_fsync_and_certification() {
        let l = layers(10.0, 1);
        assert!((l.critical_path_ms() - (0.1 + 2.0 + 10.0)).abs() < 1e-12);
        // Two units side by side halve the solve on the blocking path.
        assert!((layers(10.0, 2).critical_path_ms() - (0.1 + 2.0 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn layer_shares_and_residual_sum_to_the_mean_latency() {
        let traced = [
            (layers(10.0, 1), 13.5),
            (layers(30.0, 2), 16.0),
            (layers(1.0, 1), 2.0),
        ];
        let shares = critical_path_shares(&traced);
        let total: f64 = shares.iter().map(|s| s.1).sum();
        let mean_latency = (13.5 + 16.0 + 2.0) / 3.0;
        assert!(
            (total - mean_latency).abs() < 1e-9,
            "{total} vs {mean_latency}"
        );
        // A negative residual (the halved solve overestimated) still sums.
        let residual = shares.last().expect("residual share").1;
        assert!((residual - ((13.5 - 12.1) + (16.0 - 17.1) + (2.0 - 3.1)) / 3.0).abs() < 1e-9);
    }
}
