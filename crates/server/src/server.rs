//! The serving core: shared state, admission, dispatch, and the bound
//! server.
//!
//! Connection model (PR 9): one epoll-driven event-loop thread
//! (`dabs-net`, see [`crate::event_loop`]) owns every socket — accept,
//! non-blocking reads, line framing, dispatch, and write flushing. Each
//! connection's outbound is a queue of encoded lines behind a
//! [`LineSink`]; everything that wants to talk to a connection — the
//! dispatcher, a job's incumbent fan-out, a terminal notification — just
//! enqueues and wakes the loop, so slow solvers never block on slow
//! sockets and a dead connection is discovered at flush time and pruned.
//!
//! With [`ServerConfig::wal_dir`] set, admission and terminals are
//! recorded in a durable job log ([`crate::wal`]); [`Server::bind`]
//! replays it so queued/running jobs survive a crash.

use crate::admission::{RateConfig, TenantRateLimiter, DEFAULT_TENANT};
use crate::chaos::FaultPlan;
use crate::event_loop::{self, NetHandle};
use crate::job::{JobPhase, JobRegistry, Registered, WatchKind};
use crate::obs::net_obs;
use crate::pool::{AdmissionError, ElasticPool};
use crate::protocol::{ErrorCode, JobId, Request, Response, PROTOCOL_FEATURES, PROTOCOL_VERSION};
use crate::sink::LineSink;
use crate::spec::JobSpec;
use crate::wal::{Wal, WalRecord};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Runtime knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Solver worker threads (`W`): the concurrent-solve ceiling.
    pub workers: usize,
    /// Admission bound, in *units* (the slices jobs decompose into; a
    /// plain job is at least one unit).
    pub queue_capacity: usize,
    /// Directory for the durable job log; `None` (the default) serves
    /// purely in memory, exactly as before PR 9.
    pub wal_dir: Option<PathBuf>,
    /// Per-tenant admission rate limit; `None` (the default) never
    /// throttles.
    pub rate: Option<RateConfig>,
    /// Seeded fault-injection plan (`serve --chaos`); `None` (the default)
    /// injects nothing. Nothing else arms one.
    pub chaos: Option<Arc<FaultPlan>>,
    /// Keep admitting jobs while the job log is degraded (write/fsync
    /// errors): durability is declared lost instead of refusing submits
    /// with `wal_degraded`.
    pub allow_volatile: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 256,
            wal_dir: None,
            rate: None,
            chaos: None,
            allow_volatile: false,
        }
    }
}

/// Per-connection protocol context: what `hello` negotiated. In-process
/// callers use `ConnCtx::default()` — a v1 connection with no tenant.
#[derive(Debug, Clone)]
pub(crate) struct ConnCtx {
    /// Negotiated protocol version (1 until a `hello` arrives).
    pub version: u64,
    /// Tenant named by `hello`, the admission bucket for submits whose
    /// spec does not name its own.
    pub tenant: Option<String>,
}

impl Default for ConnCtx {
    fn default() -> Self {
        Self {
            version: 1,
            tenant: None,
        }
    }
}

/// A successful admission, as the typed in-process API reports it.
#[derive(Debug)]
pub(crate) struct Admitted {
    pub job: JobId,
    /// True when an idempotency key collapsed this submit onto an earlier
    /// job — `job` is then the original id and nothing new was admitted.
    pub duplicate: bool,
}

/// A refused admission: the stable code plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SubmitError {
    pub code: ErrorCode,
    pub reason: String,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.reason)
    }
}

/// State shared by every connection and worker.
pub struct ServerState {
    pub registry: Arc<JobRegistry>,
    pub pool: Arc<ElasticPool>,
    pub config: ServerConfig,
    limiter: TenantRateLimiter,
    wal: Option<Arc<Wal>>,
    shutting_down: AtomicBool,
    /// Fault plan shared with the event loop's accept/read/write hooks.
    pub(crate) chaos: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("config", &self.config)
            .field("registry", &self.registry)
            .finish()
    }
}

impl ServerState {
    /// Admission: validate, rate-limit, collapse idempotent duplicates,
    /// register, hand the record to the pool, and log the admit. On
    /// refusal the record is evicted so rejected jobs leave no trace — in
    /// the registry or the job log.
    pub(crate) fn admit(&self, spec: JobSpec, ctx: &ConnCtx) -> Result<Admitted, SubmitError> {
        if self.shutting_down.load(Ordering::Relaxed) {
            return Err(SubmitError {
                code: ErrorCode::ShuttingDown,
                reason: "server is shutting down".into(),
            });
        }
        if !self.config.allow_volatile && self.wal.as_ref().is_some_and(|w| w.is_degraded()) {
            // Declared degradation: the job log cannot currently persist
            // records, so refusing admission is the honest move. The code
            // is retryable — the flusher keeps retrying the sync and clears
            // the flag once the disk recovers.
            return Err(SubmitError {
                code: ErrorCode::WalDegraded,
                reason: "job log is degraded; retry later or start the server with \
                         --allow-volatile to accept non-durable admission"
                    .into(),
            });
        }
        let tenant = spec
            .tenant
            .as_deref()
            .or(ctx.tenant.as_deref())
            .unwrap_or(DEFAULT_TENANT);
        if !self.limiter.try_admit(tenant) {
            net_obs().rate_limited.inc();
            return Err(SubmitError {
                code: ErrorCode::RateLimited,
                reason: format!("tenant {tenant:?} is over its admission rate"),
            });
        }
        spec.validate().map_err(|reason| SubmitError {
            code: ErrorCode::BadSpec,
            reason,
        })?;
        let record = match self.registry.register_keyed(spec) {
            Registered::Duplicate(original) => {
                if original.is_quarantined() {
                    // A poison job is refused re-execution, not silently
                    // collapsed onto its (failed) original.
                    return Err(SubmitError {
                        code: ErrorCode::Quarantined,
                        reason: format!(
                            "job {} is quarantined after repeated unit panics",
                            original.id
                        ),
                    });
                }
                net_obs().duplicate_submits.inc();
                return Ok(Admitted {
                    job: original.id,
                    duplicate: true,
                });
            }
            Registered::New(record) => record,
        };
        match self.pool.submit(&record) {
            Ok(()) => {
                if let Some(wal) = &self.wal {
                    wal.append(&WalRecord::Admit {
                        job: record.id,
                        spec: record.spec.clone(),
                    });
                }
                Ok(Admitted {
                    job: record.id,
                    duplicate: false,
                })
            }
            Err(e) => {
                self.registry.evict(record.id);
                let code = match e {
                    AdmissionError::Full { .. } => ErrorCode::OverCapacity,
                    AdmissionError::PastDeadline { .. } => ErrorCode::PastDeadline,
                    AdmissionError::Closed => ErrorCode::ShuttingDown,
                    AdmissionError::Shed => ErrorCode::Shed,
                };
                Err(SubmitError {
                    code,
                    reason: e.to_string(),
                })
            }
        }
    }

    /// Full observability snapshot: solver hot-loop counters, pool
    /// scheduler counters and latency histograms, model-cache counters and
    /// build times, serving-layer and job-log
    /// counters, plus job-phase and occupancy gauges — one metric set,
    /// served by the `metrics` verb.
    pub fn metrics(&self) -> dabs_core::MetricSet {
        use dabs_core::{Direction, Metric};
        let mut set = dabs_core::MetricSet::new();
        dabs_core::solver_obs().metrics_into(&mut set);
        crate::obs::pool_obs().metrics_into(&mut set);
        crate::spec::model_cache().obs().metrics_into(&mut set);
        net_obs().metrics_into(&mut set);
        let (queued, running, finished) = self.registry.phase_counts();
        let gauges = self.pool.gauges();
        let up = Direction::HigherIsBetter;
        set.push(Metric::new("jobs.queued", queued as f64, "count", up));
        set.push(Metric::new("jobs.running", running as f64, "count", up));
        set.push(Metric::new("jobs.finished", finished as f64, "count", up));
        set.push(Metric::new(
            "pool.workers",
            gauges.workers as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "pool.unit_threads",
            gauges.unit_threads as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "pool.busy_workers",
            gauges.busy as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "pool.queued_units",
            gauges.queued_units as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "pool.live_workers",
            self.pool.live_workers() as f64,
            "count",
            up,
        ));
        set.push(Metric::new(
            "pool.brownout",
            u64::from(gauges.brownout) as f64,
            "count",
            Direction::LowerIsBetter,
        ));
        set
    }

    /// Declared health: `draining` while shutting down, `degraded` when the
    /// job log cannot persist or the pool is shedding load (with the
    /// reasons listed), `ok` otherwise. Served by the `health` verb so
    /// load balancers and retrying clients can act on the server's own
    /// judgment instead of probing for symptoms.
    pub fn health(&self) -> Response {
        let mut reasons = Vec::new();
        let status = if self.shutting_down.load(Ordering::Relaxed) {
            reasons.push("shutting_down".to_string());
            "draining"
        } else {
            if self.wal.as_ref().is_some_and(|w| w.is_degraded()) {
                reasons.push("wal_degraded".to_string());
            }
            if self.pool.gauges().brownout {
                reasons.push("brownout".to_string());
            }
            if reasons.is_empty() {
                "ok"
            } else {
                "degraded"
            }
        };
        Response::Health {
            status: status.to_string(),
            reasons,
        }
    }

    fn stats(&self) -> Response {
        let (queued, running, finished) = self.registry.phase_counts();
        let gauges = self.pool.gauges();
        Response::Stats {
            queued,
            running,
            finished,
            workers: gauges.workers,
            unit_threads: gauges.unit_threads,
            queue_capacity: self.pool.capacity() as u64,
            busy_workers: gauges.busy,
            queued_units: gauges.queued_units,
            splits: gauges.yields,
        }
    }

    /// Handle one request, pushing any responses onto the connection's
    /// outbound sink. `sink` may also be registered for future lines
    /// (result waits, subscriptions). `ctx` carries (and `hello` mutates)
    /// the connection's negotiated protocol state.
    pub(crate) fn dispatch(&self, request: Request, sink: &Arc<dyn LineSink>, ctx: &mut ConnCtx) {
        let send = |r: Response| {
            let _ = sink.send_line(r.encode());
        };
        let no_such_job = |job: JobId| Response::Error {
            job: Some(job),
            code: ErrorCode::NoSuchJob,
            reason: "no such job".into(),
        };
        match request {
            Request::Hello { version, tenant } => {
                ctx.version = version.clamp(1, PROTOCOL_VERSION);
                if tenant.is_some() {
                    ctx.tenant = tenant;
                }
                send(Response::Hello {
                    version: ctx.version,
                    features: PROTOCOL_FEATURES.iter().map(|f| f.to_string()).collect(),
                });
            }
            Request::Submit(spec) => match self.admit(*spec, ctx) {
                Ok(admitted) => send(Response::Submitted {
                    job: admitted.job,
                    duplicate: admitted.duplicate,
                }),
                Err(e) => send(Response::Rejected {
                    code: e.code,
                    reason: e.reason,
                }),
            },
            Request::Status(job) => match self.registry.get(job) {
                Some(record) => send(Response::Status {
                    job,
                    phase: record.phase().name().to_string(),
                    best: record.best_energy(),
                    age_ms: record.age().as_millis() as u64,
                }),
                None => send(no_such_job(job)),
            },
            Request::Cancel(job) => match self.registry.get(job) {
                Some(record) => {
                    let phase = record.request_cancel();
                    send(Response::CancelAck {
                        job,
                        phase: phase.name().to_string(),
                    });
                }
                None => send(no_such_job(job)),
            },
            Request::Result(job) => match self.registry.get(job) {
                // Responds now if terminal, otherwise when the job ends.
                Some(record) => record.add_watcher(Arc::clone(sink), WatchKind::ResultOnly),
                None => send(no_such_job(job)),
            },
            Request::Subscribe(job) => match self.registry.get(job) {
                Some(record) => record.add_watcher(Arc::clone(sink), WatchKind::Subscribe),
                None => send(no_such_job(job)),
            },
            Request::Stats => send(self.stats()),
            Request::Metrics => send(Response::Metrics {
                metrics: Box::new(self.metrics()),
            }),
            Request::Timeline(job) => match self.registry.get(job) {
                Some(record) => {
                    let (events, dropped) = record.timeline_snapshot();
                    send(Response::Timeline {
                        job,
                        events,
                        dropped,
                    });
                }
                None => send(no_such_job(job)),
            },
            Request::Ping => send(Response::Pong),
            Request::Health => send(self.health()),
        }
    }
}

/// A running server: event-loop thread + elastic pool over shared state.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    net: Option<NetHandle>,
}

impl Server {
    /// Bind and start serving. `addr` may use port 0 for an ephemeral port
    /// (see [`Server::local_addr`]). With a `wal_dir` configured, any
    /// existing job log is replayed first: terminal jobs re-register as
    /// history (late `result` requests and idempotency keys still
    /// resolve), and jobs that were queued or running at crash time are
    /// re-admitted before the listener accepts its first connection.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(JobRegistry::new());
        let chaos = config.chaos.clone();
        let pool = Arc::new(ElasticPool::spawn_with_chaos(
            config.workers,
            config.queue_capacity,
            chaos.clone(),
        ));

        let wal = match &config.wal_dir {
            Some(dir) => {
                let (wal, replay) = Wal::open_with_chaos(dir, chaos.clone())?;
                let wal = Arc::new(wal);
                // 1. Terminal history first, with no hook installed: these
                //    records are already in the (just-compacted) log, so
                //    their finish() must not append again.
                for t in replay.terminals {
                    let record = registry.register_with_id(t.job, t.spec);
                    if replay.quarantined.contains(&t.job) {
                        record.restore_quarantine();
                    }
                    record.finish(t.phase, t.result, t.error);
                }
                // 2. Hooks next: every terminal and quarantine from here on
                //    is logged.
                let hook_wal = Arc::clone(&wal);
                registry.set_terminal_hook(Arc::new(move |job, phase, result, error| {
                    hook_wal.append(&WalRecord::Terminal {
                        job,
                        phase,
                        result: result.cloned().map(Box::new),
                        error: error.map(String::from),
                    });
                }));
                let quarantine_wal = Arc::clone(&wal);
                registry.set_quarantine_hook(Arc::new(move |job| {
                    quarantine_wal.append(&WalRecord::Quarantine { job });
                }));
                // 3. Re-admit jobs that were live at crash time. Their
                //    admit records survived compaction; a refusal now
                //    (deadline passed while down, pool full) goes terminal
                //    through the hook, so the log stays truthful. A job
                //    quarantined before the crash stays refused: it fails
                //    terminally instead of getting another chance to kill
                //    workers.
                for (job, spec) in replay.live {
                    let record = registry.register_with_id(job, spec);
                    if replay.quarantined.contains(&job) {
                        record.restore_quarantine();
                        record.finish(
                            JobPhase::Failed,
                            None,
                            Some("job quarantined after repeated unit panics".into()),
                        );
                        continue;
                    }
                    match pool.submit(&record) {
                        Ok(()) => {}
                        Err(AdmissionError::PastDeadline { .. }) => record.finish(
                            JobPhase::Expired,
                            None,
                            Some("deadline passed before restart replay".into()),
                        ),
                        Err(e) => record.finish(JobPhase::Failed, None, Some(e.to_string())),
                    }
                }
                Some(wal)
            }
            None => None,
        };

        let state = Arc::new(ServerState {
            registry,
            pool,
            limiter: TenantRateLimiter::new(config.rate),
            wal,
            config,
            shutting_down: AtomicBool::new(false),
            chaos,
        });
        let net = event_loop::spawn(listener, Arc::clone(&state))?;
        Ok(Server {
            state,
            addr,
            net: Some(net),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for in-process embedding (benchmarks, tests).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Block forever serving connections (`dabs serve`).
    pub fn run_forever(mut self) {
        if let Some(net) = self.net.take() {
            net.join();
        }
    }

    /// Graceful stop: refuse new work, trip every live job's stop flag
    /// (running units observe it at their next batch), stop dispatch so the
    /// workers drain still-queued units in revoked mode, join the pool —
    /// at which point every job is terminal and its `done` lines are
    /// queued — then give the event loop a short flush window before
    /// closing every socket. With a WAL, all appended records are synced
    /// before return.
    pub fn shutdown(mut self) {
        self.state.shutting_down.store(true, Ordering::Relaxed);
        self.state.registry.stop_all();
        self.state.pool.close();
        self.state.pool.join();
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
        if let Some(wal) = &self.state.wal {
            wal.flush();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

/// Upper bound on one request line. Large enough for an `inline` problem
/// spec of any size this repo handles, small enough that a client streaming
/// bytes without a newline cannot grow a line buffer unboundedly and OOM
/// the server past the bounded-admission-queue guarantee.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProblemSpec;
    use std::net::TcpStream;
    use std::time::Duration;

    fn server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                queue_capacity: 8,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral")
    }

    fn job(seed: u64, batches: u64) -> JobSpec {
        JobSpec {
            problem: ProblemSpec::random(18, seed),
            seed,
            max_batches: Some(batches),
            ..JobSpec::default()
        }
    }

    #[test]
    fn in_process_submit_executes_to_done() {
        let srv = server();
        let id = srv
            .state()
            .admit(job(1, 100), &ConnCtx::default())
            .unwrap()
            .job;
        let record = srv.state().registry.get(id).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(30)));
        let (phase, result, _) = record.snapshot();
        assert_eq!(phase.name(), "done");
        assert!(result.unwrap().batches >= 100);
        srv.shutdown();
    }

    #[test]
    fn submit_validates_and_rejects() {
        let srv = server();
        let unbounded = JobSpec {
            max_batches: None,
            ..job(1, 0)
        };
        assert!(srv.state().admit(unbounded, &ConnCtx::default()).is_err());
        let past_deadline = JobSpec {
            deadline_unix_ms: Some(1),
            ..job(1, 10)
        };
        let err = srv
            .state()
            .admit(past_deadline, &ConnCtx::default())
            .unwrap_err();
        assert!(err.reason.contains("deadline"), "{err}");
        srv.shutdown();
    }

    #[test]
    fn typed_admit_carries_stable_codes() {
        let srv = server();
        let err = srv
            .state()
            .admit(
                JobSpec {
                    deadline_unix_ms: Some(1),
                    ..job(1, 10)
                },
                &ConnCtx::default(),
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::PastDeadline);
        srv.shutdown();
    }

    #[test]
    fn rejected_jobs_leave_no_registry_trace() {
        let srv = server();
        let err = srv
            .state()
            .admit(
                JobSpec {
                    deadline_unix_ms: Some(1),
                    ..job(2, 10)
                },
                &ConnCtx::default(),
            )
            .unwrap_err();
        assert!(err.reason.contains("deadline"));
        let (queued, running, terminal) = srv.state().registry.phase_counts();
        assert_eq!((queued, running, terminal), (0, 0, 0));
        srv.shutdown();
    }

    #[test]
    fn duplicate_idempotency_key_collapses_and_resolves_result() {
        let srv = server();
        let spec = JobSpec {
            idempotency_key: Some("in-proc-1".into()),
            ..job(3, 50)
        };
        let first = srv
            .state()
            .admit(spec.clone(), &ConnCtx::default())
            .unwrap();
        assert!(!first.duplicate);
        let record = srv.state().registry.get(first.job).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(30)));
        let dup = srv.state().admit(spec, &ConnCtx::default()).unwrap();
        assert!(dup.duplicate);
        assert_eq!(dup.job, first.job);
        assert!(
            matches!(record.terminal_line(), Some(Response::Done { .. })),
            "a finished duplicate resolves to the original's result"
        );
        srv.shutdown();
    }

    #[test]
    fn rate_limited_submit_gets_the_retryable_code() {
        let srv = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_capacity: 64,
                rate: Some(RateConfig {
                    rate_per_sec: 0.001,
                    burst: 1.0,
                }),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        assert!(srv.state().admit(job(1, 5), &ConnCtx::default()).is_ok());
        let err = srv
            .state()
            .admit(job(2, 5), &ConnCtx::default())
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::RateLimited);
        // A different tenant is unaffected.
        let other = ConnCtx {
            tenant: Some("other".into()),
            ..ConnCtx::default()
        };
        assert!(srv.state().admit(job(3, 5), &other).is_ok());
        srv.shutdown();
    }

    #[test]
    fn hello_negotiates_version_and_tenant() {
        let srv = server();
        let (tx, rx) = std::sync::mpsc::channel();
        let sink: Arc<dyn LineSink> = Arc::new(tx);
        let mut ctx = ConnCtx::default();
        srv.state().dispatch(
            Request::Hello {
                version: 99,
                tenant: Some("acme".into()),
            },
            &sink,
            &mut ctx,
        );
        assert_eq!(ctx.version, PROTOCOL_VERSION, "server caps the version");
        assert_eq!(ctx.tenant.as_deref(), Some("acme"));
        match Response::parse_line(&rx.try_recv().unwrap()).unwrap() {
            Response::Hello { version, features } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert!(features.iter().any(|f| f == "idempotency"), "{features:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn oversized_request_line_drops_the_connection_with_an_error() {
        use std::io::{BufRead, BufReader, Write};
        let srv = server();
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        // Flood well past the cap with no newline. The server must consume
        // (and discard) the excess before closing — unread bytes at close
        // would RST the socket and destroy the error line in flight.
        for _ in 0..3 {
            conn.write_all(&vec![b'x'; MAX_REQUEST_LINE_BYTES]).unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut lines = BufReader::new(conn).lines();
        let reply = lines.next().expect("error line before close").unwrap();
        assert!(reply.contains("exceeds"), "{reply}");
        assert!(reply.contains("line_too_long"), "{reply}");
        assert!(lines.next().is_none(), "connection must be closed");
        srv.shutdown();
    }

    #[test]
    fn oversized_line_closes_promptly_despite_live_subscription() {
        use std::io::{BufRead, BufReader, Write};
        let srv = server();
        // A job that stays alive well past the assertion window, so its
        // watcher list keeps holding this connection's sink.
        let id = srv
            .state()
            .admit(
                JobSpec {
                    time_ms: Some(10_000),
                    max_batches: None,
                    ..job(4, 0)
                },
                &ConnCtx::default(),
            )
            .unwrap()
            .job;
        let mut conn = TcpStream::connect(srv.local_addr()).unwrap();
        conn.write_all(format!("{{\"op\":\"subscribe\",\"job\":{id}}}\n").as_bytes())
            .unwrap();
        conn.write_all(&vec![b'y'; MAX_REQUEST_LINE_BYTES + 1])
            .unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let t0 = std::time::Instant::now();
        let mut saw_error = false;
        for line in BufReader::new(conn).lines() {
            let Ok(line) = line else { break };
            // Incumbent lines may legitimately precede the error.
            saw_error |= line.contains("exceeds");
        }
        assert!(saw_error, "error line never arrived");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "socket stayed open behind a live subscription: {:?}",
            t0.elapsed()
        );
        srv.shutdown();
    }

    #[test]
    fn health_reports_ok_then_draining() {
        let srv = server();
        match srv.state().health() {
            Response::Health { status, reasons } => {
                assert_eq!(status, "ok");
                assert!(reasons.is_empty(), "{reasons:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        srv.state().shutting_down.store(true, Ordering::Relaxed);
        match srv.state().health() {
            Response::Health { status, reasons } => {
                assert_eq!(status, "draining");
                assert_eq!(reasons, vec!["shutting_down".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
        srv.state().shutting_down.store(false, Ordering::Relaxed);
        srv.shutdown();
    }

    #[test]
    fn degraded_wal_refuses_submits_unless_volatile() {
        // Every fsync fails (uncapped): the WAL goes degraded at the first
        // admit and stays there, so the second admit must be refused with
        // the retryable wal_degraded code — except under --allow-volatile.
        let plan = Arc::new(FaultPlan::parse("seed=1,wal_fsync=1").unwrap());
        let dir = std::env::temp_dir().join(format!("dabs-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let srv = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                wal_dir: Some(dir.clone()),
                chaos: Some(plan),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        assert!(srv.state().admit(job(1, 20), &ConnCtx::default()).is_ok());
        let t0 = std::time::Instant::now();
        while !srv.state().wal.as_ref().unwrap().is_degraded() {
            assert!(t0.elapsed() < Duration::from_secs(10), "never degraded");
            std::thread::sleep(Duration::from_millis(5));
        }
        match srv.state().health() {
            Response::Health { status, reasons } => {
                assert_eq!(status, "degraded");
                assert!(reasons.contains(&"wal_degraded".to_string()), "{reasons:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = srv
            .state()
            .admit(job(2, 20), &ConnCtx::default())
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::WalDegraded);
        srv.shutdown();

        // Same permanently-broken disk, but volatile admission was opted
        // into: submits keep landing.
        let plan = Arc::new(FaultPlan::parse("seed=1,wal_fsync=1").unwrap());
        let volatile = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                wal_dir: Some(dir.clone()),
                chaos: Some(plan),
                allow_volatile: true,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        assert!(volatile
            .state()
            .admit(job(3, 20), &ConnCtx::default())
            .is_ok());
        let t0 = std::time::Instant::now();
        while !volatile.state().wal.as_ref().unwrap().is_degraded() {
            assert!(t0.elapsed() < Duration::from_secs(10), "never degraded");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(volatile
            .state()
            .admit(job(4, 20), &ConnCtx::default())
            .is_ok());
        volatile.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_is_prompt_even_with_queued_work() {
        let srv = server();
        // More work than the two workers finish instantly, then shut down.
        for seed in 0..6 {
            let _ = srv.state().admit(job(seed, 50), &ConnCtx::default());
        }
        let t0 = std::time::Instant::now();
        srv.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "shutdown hung: {:?}",
            t0.elapsed()
        );
    }
}
