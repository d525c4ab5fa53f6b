//! One benchmark run: set-up, the measured window, verification, metrics.

use crate::layers::{self, JobLayers, Tracer};
use crate::server::{cpu_ms, peak_rss_mb, scratch_root, HostContext, ServerProcess};
use crate::summary::{self, median, percentile, Metric, Outcome, Tally, MIN_BEYOND};
use crate::targets::instance_set;
use crate::workload::{self, Stream, Workload};
use dabs_model::QuboModel;
use dabs_server::{Client, ClientError, JobOutcome, JobSpec, ProblemSpec};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh servers started per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Scratch space for WAL directories, inside the checkout.
const SCRATCH: &str = ".bench_scratch";
/// Where a traced run writes its spans by default, inside the checkout.
pub const SPANS: &str = ".bench_spans";
/// Share of a traced run's seconds spent untraced, for the overhead.
const UNTRACED_SHARE: f64 = 0.3;
/// `peak_rss_mb` is the server's high-water mark once the window has served
/// this many jobs, rounded up to whole blocks. The server retains every
/// finished job's model, so its memory grows with each job served: read at
/// the end of a timed window it would measure the host's speed, not the
/// memory a job costs.
const RSS_JOBS: usize = 100;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dabs: PathBuf,
    pub instances: String,
    pub smoke: bool,
    /// Directory a traced run writes its spans to.
    pub spans_dir: PathBuf,
}

pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// How the server answered one job.
enum Reply {
    Rejected(String),
    Errored(String),
    Terminal(JobOutcome),
}

/// One served job of a window.
struct Served {
    index: usize,
    latency_ms: f64,
    reply: Reply,
    layers: Option<JobLayers>,
}

struct Window {
    served: Vec<Served>,
    seconds: f64,
    /// Server `VmHWM` after the first [`RSS_JOBS`] jobs, in MB.
    peak_rss_mb: Option<f64>,
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let host = HostContext::capture();
    // Refuse an instance set without stored targets on every workload, so
    // a typo never silently runs the default set.
    let tts = instance_set(&cfg.instances)?;
    let stream = workload::stream(
        cfg.workload,
        cfg.seed,
        cfg.seconds.ceil() as u64,
        &tts,
        cfg.smoke,
    );
    let workers = cfg.workload.workers();
    let scratch = ScratchDir(scratch_root(Path::new(SCRATCH))?);

    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUP_REPEATS {
        drop(server.take());
        let t0 = Instant::now();
        let s = ServerProcess::spawn(&cfg.dabs, workers, scratch.0.join(format!("wal-{k}")))?;
        wait_healthy(&s.addr)?;
        let mut client = connect(&s.addr)?;
        match serve(&mut client, &stream.warmup) {
            Reply::Terminal(o) if o.phase == "done" => {}
            _ => return Err("the warm-up job did not finish done".into()),
        }
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let report = measure(
        &server.addr,
        server.pid(),
        &stream,
        cfg,
        &scratch.0,
        &setups,
    )?;
    drop(server);
    let mut notes = report.notes;
    notes.insert(0, host.describe());
    notes.insert(
        1,
        format!(
            "workload {} seed {} ({} s{}): {workers} worker(s), one connection, blocks of {} jobs",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            if cfg.trace { ", traced" } else { "" },
            stream.block
        ),
    );
    Ok(Report { notes, ..report })
}

/// Measure a running server at `addr` (process `pid`) on `stream`: the
/// untraced window, or with `cfg.trace` the untraced and traced windows.
/// `scratch` receives the traced WAL; `setups` are the set-up times.
pub fn measure(
    addr: &str,
    pid: u32,
    stream: &Stream,
    cfg: &Config,
    scratch: &Path,
    setups: &[f64],
) -> Result<Report, String> {
    let mut notes = Vec::new();
    Ok(if cfg.trace {
        let untraced = drive(addr, pid, stream, cfg.seconds * UNTRACED_SHARE, None)?;
        let tracer = Tracer::new(&scratch.join("traced-wal"), cfg.workload.workers())?;
        let traced = drive(
            addr,
            pid,
            stream,
            cfg.seconds * (1.0 - UNTRACED_SHARE),
            Some(&tracer),
        )?;
        let server_metrics = connect(addr)?.metrics()?;
        // The last set-up's warm-up job ran on this server too.
        let server_jobs = 1 + untraced.served.len() + traced.served.len();
        // Both windows start at job 0: compare the jobs both served.
        let common = untraced.served.len().min(traced.served.len());
        let untraced_ms: Vec<f64> = untraced.served[..common]
            .iter()
            .map(|s| s.latency_ms)
            .collect();
        let pairs: Vec<(JobLayers, f64)> = traced
            .served
            .iter()
            .filter_map(|s| s.layers.clone().map(|l| (l, s.latency_ms)))
            .collect();
        let mut outcomes = judge(stream, &untraced.served);
        outcomes.extend(judge(stream, &traced.served));
        let tally = Tally::of(&outcomes);
        let layer = layers::report(&pairs, &untraced_ms, &server_metrics, server_jobs);
        std::fs::create_dir_all(&cfg.spans_dir)
            .map_err(|e| format!("create {}: {e}", cfg.spans_dir.display()))?;
        let spans_path =
            cfg.spans_dir
                .join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        std::fs::write(&spans_path, tracer.spans_jsonl())
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        notes.extend(layer.notes);
        notes.push(format!("spans: {}", spans_path.display()));
        notes.extend(first_failure(&untraced.served).or(first_failure(&traced.served)));
        Report {
            correct: tally.unverified == 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: layer.metrics,
            notes,
        }
    } else {
        let cpu0 = cpu_ms(pid)?;
        let window = drive(addr, pid, stream, cfg.seconds, None)?;
        let cpu_ms = cpu_ms(pid)? - cpu0;
        // A window too short for RSS_JOBS (a smoke run) reads it at the end.
        let peak_rss_mb = window.peak_rss_mb.map_or_else(|| peak_rss_mb(pid), Ok)?;
        let outcomes = judge(stream, &window.served);
        let tally = Tally::of(&outcomes);
        let latency: Vec<f64> = window
            .served
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| matches!(o, Outcome::Done { .. }))
            .map(|(s, _)| s.latency_ms)
            .collect();
        // A smoke run is a seconds-long check of the whole path, not a
        // measurement: it reports whatever percentile its few jobs give.
        let p90 = match percentile(&latency, 90.0) {
            Some(p90) => p90,
            None if cfg.smoke && !latency.is_empty() => summary::nearest_rank(&summary::sorted(&latency), 90.0),
            None => {
                return Err(format!(
                    "only {} jobs finished: latency_ms.p90 needs at least {MIN_BEYOND} samples beyond it",
                    latency.len()
                ))
            }
        };
        let done = tally.done.max(1) as f64;
        let metrics = vec![
            Metric::new("setup_s", median(setups), "s", setups.len()),
            Metric::new(
                "jobs_per_s",
                tally.done as f64 / window.seconds,
                "jobs/s",
                tally.done,
            ),
            Metric::new("latency_ms.p50", median(&latency), "ms", latency.len()),
            Metric::new("latency_ms.p90", p90, "ms", latency.len()),
            Metric::new(
                "success_rate",
                tally.success_rate(),
                "ratio",
                tally.attempted,
            ),
            Metric::new("energy_ratio", tally.energy_ratio(), "ratio", tally.done),
            Metric::new("cpu_ms_per_job", cpu_ms / done, "ms", tally.done),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        ];
        notes.push(format!(
            "window {:.2} s: {} attempted, {} done, {} target misses, {} failed, {} unverified",
            window.seconds,
            tally.attempted,
            tally.done,
            tally.target_misses,
            tally.failed,
            tally.unverified
        ));
        notes.extend(first_failure(&window.served));
        if window.served.len() > stream.jobs.len() && cfg.workload == Workload::EdgeInline {
            notes.push(format!(
                "note: {} jobs reused a document: the pre-rendered pool holds {}",
                window.served.len() - stream.jobs.len(),
                stream.jobs.len()
            ));
        }
        Report {
            correct: tally.unverified == 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            notes,
        }
    })
}

/// The first job that did not end `done`, for the notes.
fn first_failure(served: &[Served]) -> Option<String> {
    served.iter().find_map(|s| match &s.reply {
        Reply::Rejected(reason) => {
            Some(format!("first failure: job {} rejected: {reason}", s.index))
        }
        Reply::Errored(reason) => Some(format!("first failure: job {} errored: {reason}", s.index)),
        Reply::Terminal(o) if o.phase != "done" => Some(format!(
            "first failure: job {} ended {}: {}",
            s.index,
            o.phase,
            o.error.as_deref().unwrap_or("no error given")
        )),
        Reply::Terminal(_) => None,
    })
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared root goes too once no other run uses it.
        let _ = std::fs::remove_dir(Path::new(SCRATCH));
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::builder(addr)
        .read_timeout(Duration::from_secs(120))
        .connect()
        .map_err(|e| format!("connect {addr}: {e}"))
}

fn wait_healthy(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = connect(addr).and_then(|mut c| c.health().map_err(|e| e.to_string()));
        match status {
            Ok((s, _)) if s == "ok" => return Ok(()),
            other if Instant::now() >= deadline => {
                return Err(format!(
                    "server at {addr} never reported health ok: {other:?}"
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn serve(client: &mut Client, spec: &JobSpec) -> Reply {
    let ack = match client.try_submit(spec) {
        Ok(ack) => ack,
        Err(ClientError::Rejected { code, reason }) => {
            return Reply::Rejected(format!("{code}: {reason}"))
        }
        Err(e) => return Reply::Errored(e.to_string()),
    };
    match client.try_wait_result(ack.job) {
        Ok(outcome) => Reply::Terminal(outcome),
        Err(e) => Reply::Errored(e.to_string()),
    }
}

/// Closed loop over `stream` on one connection: submit, wait for the
/// `done` line, then the next job. The window closes at the first block
/// boundary after `seconds`. `pid` is the server's process.
fn drive(
    addr: &str,
    pid: u32,
    stream: &Stream,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    let mut client = connect(addr)?;
    let mut served = Vec::new();
    let mut rss = None;
    let rss_after = RSS_JOBS.div_ceil(stream.block) * stream.block;
    let start = Instant::now();
    for index in 0.. {
        if index % stream.block == 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let spec = &stream.job(index).spec;
        let layers = tracer.map(|t| t.trace_job(index, spec)).transpose()?;
        let t0 = Instant::now();
        let reply = serve(&mut client, spec);
        let t1 = Instant::now();
        if let Some(t) = tracer {
            t.client_span(index, t0, t1);
        }
        // A transport or protocol error leaves the connection unusable:
        // end the window rather than fail every later job at once.
        let broken = matches!(reply, Reply::Errored(_));
        served.push(Served {
            index,
            latency_ms: t1.duration_since(t0).as_secs_f64() * 1e3,
            reply,
            layers,
        });
        if broken {
            break;
        }
        if served.len() == rss_after {
            rss = Some(peak_rss_mb(pid)?);
        }
    }
    Ok(Window {
        served,
        seconds: start.elapsed().as_secs_f64(),
        peak_rss_mb: rss,
    })
}

/// Judge every reply against a locally rebuilt model.
fn judge(stream: &Stream, served: &[Served]) -> Vec<Outcome> {
    let mut models: HashMap<String, Arc<(QuboModel, i64)>> = HashMap::new();
    served
        .iter()
        .map(|s| match &s.reply {
            Reply::Rejected(_) => Outcome::Rejected,
            Reply::Errored(_) => Outcome::Errored,
            Reply::Terminal(o) => match (&o.result, o.phase.as_str()) {
                (Some(result), "done") => {
                    let job = stream.job(s.index);
                    let Ok(model) = local_model(&mut models, &job.spec.problem) else {
                        return Outcome::Errored;
                    };
                    let (model, e_neg) = &*model;
                    let verified = result.best.len() == model.n()
                        && model.energy(&result.best) == result.energy;
                    Outcome::Done {
                        energy: result.energy,
                        e_neg: *e_neg,
                        verified,
                        target: job.target,
                    }
                }
                _ => Outcome::Phase,
            },
        })
        .collect()
}

/// The job's model rebuilt here, with `E_neg`: the sum of its negative
/// coefficients. Generator models repeat across a stream and are built
/// once; inline documents are unique and parsed each time.
fn local_model(
    cache: &mut HashMap<String, Arc<(QuboModel, i64)>>,
    problem: &ProblemSpec,
) -> Result<Arc<(QuboModel, i64)>, String> {
    let build = || -> Result<Arc<(QuboModel, i64)>, String> {
        let (model, _) = problem.build()?;
        let e_neg = model.diag_slice().iter().map(|&d| d.min(0)).sum::<i64>()
            + model
                .adjacency()
                .iter_edges()
                .map(|(_, _, w)| w.min(0))
                .sum::<i64>();
        Ok(Arc::new((model, e_neg)))
    };
    if problem.inline.is_some() {
        return build();
    }
    let key = problem.to_json().to_string();
    if let Some(m) = cache.get(&key) {
        return Ok(Arc::clone(m));
    }
    let m = build()?;
    cache.insert(key, Arc::clone(&m));
    Ok(m)
}

pub fn print(report: &Report) {
    for n in &report.notes {
        println!("{n}");
    }
    print!("{}", summary::table(&report.metrics));
    println!(
        "{}",
        summary::result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
}
