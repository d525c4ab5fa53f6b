//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every line is one JSON object. Client→server lines are [`Request`]s
//! dispatched on their `"op"` field; server→client lines are [`Response`]s
//! dispatched on `"type"`. One connection may carry interleaved traffic —
//! a `subscribe` stream keeps emitting `incumbent` lines while other
//! request/response pairs proceed — so every response names the job it
//! belongs to. `docs/PROTOCOL.md` documents each message with examples; the
//! round-trip tests below keep that document honest.

use crate::obs::TimelineEvent;
use crate::spec::JobSpec;
use dabs_core::{MetricSet, SolveResult};
use serde::json::Json;

/// A job's identity, allocated at admission, unique per server lifetime.
/// With a durable job log (`--wal-dir`) ids also survive restarts: replay
/// re-registers jobs under their original ids and resumes allocation above
/// the highest replayed id.
pub type JobId = u64;

/// The protocol version this server speaks. Version 1 is the PR 2 wire
/// format (no `hello`, no error codes); version 2 adds the `hello`
/// handshake, machine-readable `code` fields on `rejected`/`error` lines,
/// and idempotent submit. v2 is a strict superset: v1 clients that never
/// send `hello` keep working unchanged.
pub const PROTOCOL_VERSION: u64 = 2;

/// Feature tags advertised in the `hello` response, so clients can detect
/// capabilities without version arithmetic.
pub const PROTOCOL_FEATURES: &[&str] = &["error_codes", "idempotency", "tenants", "wal", "health"];

/// Stable machine-readable reason classes carried by every `rejected` and
/// `error` line (protocol v2). The human `msg`/`reason` text may change
/// between releases; these strings never do — clients branch on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    BadJson,
    /// The request was structurally invalid (missing fields, bad types).
    BadRequest,
    /// The submitted job spec failed validation.
    BadSpec,
    /// A request line exceeded the per-line byte cap; the connection closes.
    LineTooLong,
    /// The request line was not UTF-8; the connection closes.
    NotUtf8,
    /// Unknown `op` — likely a newer client against an older server.
    UnknownOp,
    /// The named job id is unknown (or evicted past the retention window).
    NoSuchJob,
    /// The admission queue is at capacity; retry with backoff.
    OverCapacity,
    /// The tenant's admission token bucket is empty; retry after a pause.
    RateLimited,
    /// The job's absolute deadline already passed at admission.
    PastDeadline,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The durable job log is failing writes or fsyncs: the server is in
    /// declared degraded mode and refuses durable admissions (unless it
    /// runs `--allow-volatile`). Retryable — the WAL heals itself when
    /// syncs start succeeding again.
    WalDegraded,
    /// The job's units panicked repeatedly and the job is quarantined:
    /// it will never be re-executed, on this server or after a restart.
    Quarantined,
    /// Brownout: the pool shed load to keep latency bounded and this
    /// admission was turned away. Retryable once pressure drains.
    Shed,
    /// Unexpected server-side failure.
    Internal,
    /// Forward compatibility: a code this build does not know.
    Other(String),
}

impl ErrorCode {
    /// The stable wire string.
    pub fn as_str(&self) -> &str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::BadSpec => "bad_spec",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::NotUtf8 => "not_utf8",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::NoSuchJob => "no_such_job",
            ErrorCode::OverCapacity => "over_capacity",
            ErrorCode::RateLimited => "rate_limited",
            ErrorCode::PastDeadline => "past_deadline",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::WalDegraded => "wal_degraded",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::Shed => "shed",
            ErrorCode::Internal => "internal",
            ErrorCode::Other(s) => s,
        }
    }

    /// Inverse of [`ErrorCode::as_str`]; unknown strings survive as
    /// [`ErrorCode::Other`] so a newer server's codes pass through older
    /// clients intact.
    pub fn from_wire(s: &str) -> ErrorCode {
        match s {
            "bad_json" => ErrorCode::BadJson,
            "bad_request" => ErrorCode::BadRequest,
            "bad_spec" => ErrorCode::BadSpec,
            "line_too_long" => ErrorCode::LineTooLong,
            "not_utf8" => ErrorCode::NotUtf8,
            "unknown_op" => ErrorCode::UnknownOp,
            "no_such_job" => ErrorCode::NoSuchJob,
            "over_capacity" => ErrorCode::OverCapacity,
            "rate_limited" => ErrorCode::RateLimited,
            "past_deadline" => ErrorCode::PastDeadline,
            "shutting_down" => ErrorCode::ShuttingDown,
            "wal_degraded" => ErrorCode::WalDegraded,
            "quarantined" => ErrorCode::Quarantined,
            "shed" => ErrorCode::Shed,
            "internal" => ErrorCode::Internal,
            other => ErrorCode::Other(other.to_string()),
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request that could not be parsed, with the code the error line must
/// carry. What [`Request::parse_line`] returns on failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    pub code: ErrorCode,
    pub reason: String,
}

impl ProtocolError {
    fn new(code: ErrorCode, reason: impl Into<String>) -> Self {
        Self {
            code,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.reason)
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Protocol v2 version negotiation. Optional: a connection that never
    /// sends `hello` is treated as a v1 client. `tenant` names the admission
    /// bucket for every later submit on this connection that does not carry
    /// its own.
    Hello {
        /// Highest protocol version the client speaks.
        version: u64,
        tenant: Option<String>,
    },
    /// Admit a new job.
    Submit(Box<JobSpec>),
    /// Snapshot a job's phase and best-so-far energy.
    Status(JobId),
    /// Trip the job's stop flag (honored between batches).
    Cancel(JobId),
    /// Reply with the job's final result once it is terminal (responds
    /// immediately if it already is).
    Result(JobId),
    /// Stream `incumbent` lines for the job until it is terminal, then a
    /// final `done` line.
    Subscribe(JobId),
    /// Runtime counters (queue depth, worker count, jobs by phase).
    Stats,
    /// Full observability snapshot: solver counters, pool counters, and
    /// latency histograms, as a metric set.
    Metrics,
    /// The job's event timeline (admission, unit starts/ends with queue
    /// waits, incumbents, terminal transition).
    Timeline(JobId),
    /// Declared health: `ok | degraded | draining` plus the reasons — the
    /// probe a load balancer or retry loop polls before routing traffic.
    Health,
    /// Liveness probe.
    Ping,
}

impl Request {
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { version, tenant } => Json::obj([
                ("op", Json::str("hello")),
                ("version", (*version).into()),
                ("tenant", tenant.clone().map(Json::str).into()),
            ]),
            Request::Submit(spec) => {
                Json::obj([("op", Json::str("submit")), ("job", spec.to_json())])
            }
            Request::Status(id) => Json::obj([("op", Json::str("status")), ("job", (*id).into())]),
            Request::Cancel(id) => Json::obj([("op", Json::str("cancel")), ("job", (*id).into())]),
            Request::Result(id) => Json::obj([("op", Json::str("result")), ("job", (*id).into())]),
            Request::Subscribe(id) => {
                Json::obj([("op", Json::str("subscribe")), ("job", (*id).into())])
            }
            Request::Stats => Json::obj([("op", Json::str("stats"))]),
            Request::Metrics => Json::obj([("op", Json::str("metrics"))]),
            Request::Timeline(id) => {
                Json::obj([("op", Json::str("timeline")), ("job", (*id).into())])
            }
            Request::Health => Json::obj([("op", Json::str("health"))]),
            Request::Ping => Json::obj([("op", Json::str("ping"))]),
        }
    }

    pub fn from_json(j: &Json) -> Result<Self, ProtocolError> {
        let op = j.get_str("op").ok_or_else(|| {
            ProtocolError::new(ErrorCode::BadRequest, "request needs an \"op\" field")
        })?;
        let job = || {
            j.get_u64("job").ok_or_else(|| {
                ProtocolError::new(ErrorCode::BadRequest, format!("{op:?} needs a \"job\" id"))
            })
        };
        match op {
            "hello" => Ok(Request::Hello {
                version: j.get_u64("version").unwrap_or(1),
                tenant: j.get_str("tenant").map(String::from),
            }),
            "submit" => {
                let spec_json = j.get("job").ok_or_else(|| {
                    ProtocolError::new(ErrorCode::BadRequest, "submit needs a \"job\" spec")
                })?;
                let spec = JobSpec::from_json(spec_json)
                    .map_err(|e| ProtocolError::new(ErrorCode::BadSpec, e))?;
                Ok(Request::Submit(Box::new(spec)))
            }
            "status" => Ok(Request::Status(job()?)),
            "cancel" => Ok(Request::Cancel(job()?)),
            "result" => Ok(Request::Result(job()?)),
            "subscribe" => Ok(Request::Subscribe(job()?)),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "timeline" => Ok(Request::Timeline(job()?)),
            "health" => Ok(Request::Health),
            "ping" => Ok(Request::Ping),
            other => Err(ProtocolError::new(
                ErrorCode::UnknownOp,
                format!("unknown op {other:?}"),
            )),
        }
    }

    /// Parse one protocol line.
    pub fn parse_line(line: &str) -> Result<Self, ProtocolError> {
        let j = Json::parse(line)
            .map_err(|e| ProtocolError::new(ErrorCode::BadJson, format!("bad JSON: {e}")))?;
        Self::from_json(&j)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Version-negotiation reply (protocol v2). `version` is the highest
    /// version both sides speak.
    Hello {
        version: u64,
        features: Vec<String>,
    },
    /// Job admitted and queued. `duplicate` is true when the submit carried
    /// an idempotency key already seen within the retention window — `job`
    /// is then the *original* job's id, and no second job was admitted.
    Submitted {
        job: JobId,
        duplicate: bool,
    },
    /// Job refused at admission (queue full, past deadline, invalid spec).
    Rejected {
        code: ErrorCode,
        reason: String,
    },
    /// Request-level failure (unknown job, malformed line, …).
    Error {
        job: Option<JobId>,
        code: ErrorCode,
        reason: String,
    },
    /// Point-in-time job snapshot.
    Status {
        job: JobId,
        phase: String,
        best: Option<i64>,
        /// Milliseconds since the job was submitted.
        age_ms: u64,
    },
    /// Cancellation acknowledged; `phase` is the job's phase *after* the
    /// cancel took effect on the registry (a queued job is already
    /// `cancelled`; a running one still `running` until its next batch
    /// boundary).
    CancelAck {
        job: JobId,
        phase: String,
    },
    /// A new global-best incumbent of a subscribed job.
    Incumbent {
        job: JobId,
        energy: i64,
        /// Milliseconds from job start to this incumbent.
        at_ms: u64,
    },
    /// Terminal notification: the job finished, was cancelled, expired, or
    /// failed. `result` is present for finished and cancelled-while-running
    /// jobs (best found so far).
    Done {
        job: JobId,
        phase: String,
        result: Option<Box<SolveResult>>,
        error: Option<String>,
    },
    /// Runtime counters. `queued`/`running`/`finished` count *jobs*;
    /// the pool gauges count *units* (the slices jobs decompose into) and
    /// pool activity since startup.
    Stats {
        queued: u64,
        running: u64,
        finished: u64,
        workers: u64,
        /// Threads each running unit may use.
        unit_threads: u64,
        queue_capacity: u64,
        /// Workers currently executing a unit.
        busy_workers: u64,
        /// Units waiting in the pool's queue.
        queued_units: u64,
        /// Continuation units created by priority yields (lifetime total).
        splits: u64,
    },
    /// Full observability snapshot (`metrics` request).
    Metrics {
        metrics: Box<MetricSet>,
    },
    /// A job's event timeline (`timeline` request). `dropped` counts
    /// events lost to the record's bounded log.
    Timeline {
        job: JobId,
        events: Vec<TimelineEvent>,
        dropped: u64,
    },
    /// Declared health (`health` request). `status` is one of
    /// `ok | degraded | draining`; `reasons` lists the active degradations
    /// (`wal_errors`, `brownout`, …), empty when `ok`.
    Health {
        status: String,
        reasons: Vec<String>,
    },
    Pong,
}

impl Response {
    pub fn to_json(&self) -> Json {
        match self {
            Response::Hello { version, features } => Json::obj([
                ("type", Json::str("hello")),
                ("ok", Json::Bool(true)),
                ("version", (*version).into()),
                (
                    "features",
                    Json::Arr(features.iter().map(|f| Json::str(f.clone())).collect()),
                ),
            ]),
            Response::Submitted { job, duplicate } => Json::obj([
                ("type", Json::str("submitted")),
                ("ok", Json::Bool(true)),
                ("job", (*job).into()),
                ("duplicate", Json::Bool(*duplicate)),
            ]),
            Response::Rejected { code, reason } => Json::obj([
                ("type", Json::str("rejected")),
                ("ok", Json::Bool(false)),
                ("code", Json::str(code.as_str())),
                ("reason", Json::str(reason.clone())),
            ]),
            Response::Error { job, code, reason } => Json::obj([
                ("type", Json::str("error")),
                ("ok", Json::Bool(false)),
                ("job", (*job).into()),
                ("code", Json::str(code.as_str())),
                ("reason", Json::str(reason.clone())),
            ]),
            Response::Status {
                job,
                phase,
                best,
                age_ms,
            } => Json::obj([
                ("type", Json::str("status")),
                ("ok", Json::Bool(true)),
                ("job", (*job).into()),
                ("phase", Json::str(phase.clone())),
                ("best", (*best).into()),
                ("age_ms", (*age_ms).into()),
            ]),
            Response::CancelAck { job, phase } => Json::obj([
                ("type", Json::str("cancelled")),
                ("ok", Json::Bool(true)),
                ("job", (*job).into()),
                ("phase", Json::str(phase.clone())),
            ]),
            Response::Incumbent { job, energy, at_ms } => Json::obj([
                ("type", Json::str("incumbent")),
                ("ok", Json::Bool(true)),
                ("job", (*job).into()),
                ("energy", (*energy).into()),
                ("at_ms", (*at_ms).into()),
            ]),
            Response::Done {
                job,
                phase,
                result,
                error,
            } => Json::obj([
                ("type", Json::str("done")),
                ("ok", Json::Bool(true)),
                ("job", (*job).into()),
                ("phase", Json::str(phase.clone())),
                (
                    "result",
                    result.as_ref().map(|r| r.to_json()).unwrap_or(Json::Null),
                ),
                ("error", error.as_ref().map(|e| Json::str(e.clone())).into()),
            ]),
            Response::Stats {
                queued,
                running,
                finished,
                workers,
                unit_threads,
                queue_capacity,
                busy_workers,
                queued_units,
                splits,
            } => Json::obj([
                ("type", Json::str("stats")),
                ("ok", Json::Bool(true)),
                ("queued", (*queued).into()),
                ("running", (*running).into()),
                ("finished", (*finished).into()),
                ("workers", (*workers).into()),
                ("unit_threads", (*unit_threads).into()),
                ("queue_capacity", (*queue_capacity).into()),
                ("busy_workers", (*busy_workers).into()),
                ("queued_units", (*queued_units).into()),
                ("splits", (*splits).into()),
            ]),
            Response::Metrics { metrics } => Json::obj([
                ("type", Json::str("metrics")),
                ("ok", Json::Bool(true)),
                ("metrics", metrics.to_json()),
            ]),
            Response::Timeline {
                job,
                events,
                dropped,
            } => Json::obj([
                ("type", Json::str("timeline")),
                ("ok", Json::Bool(true)),
                ("job", (*job).into()),
                (
                    "events",
                    Json::Arr(events.iter().map(TimelineEvent::to_json).collect()),
                ),
                ("dropped", (*dropped).into()),
            ]),
            Response::Health { status, reasons } => Json::obj([
                ("type", Json::str("health")),
                ("ok", Json::Bool(status == "ok")),
                ("status", Json::str(status.clone())),
                (
                    "reasons",
                    Json::Arr(reasons.iter().map(|r| Json::str(r.clone())).collect()),
                ),
            ]),
            Response::Pong => Json::obj([("type", Json::str("pong")), ("ok", Json::Bool(true))]),
        }
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let ty = j.get_str("type").ok_or("response needs a \"type\" field")?;
        let job = || {
            j.get_u64("job")
                .ok_or_else(|| format!("{ty:?} needs a \"job\" id"))
        };
        let phase = || {
            j.get_str("phase")
                .map(String::from)
                .ok_or_else(|| format!("{ty:?} needs a \"phase\""))
        };
        // Absent `code` (a v1 server) maps to `internal`: the client still
        // sees the human-readable reason, just no machine-readable class.
        let code = || ErrorCode::from_wire(j.get_str("code").unwrap_or("internal"));
        match ty {
            "hello" => Ok(Response::Hello {
                version: j.get_u64("version").unwrap_or(1),
                features: j
                    .get("features")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_str)
                            .map(String::from)
                            .collect()
                    })
                    .unwrap_or_default(),
            }),
            "submitted" => Ok(Response::Submitted {
                job: job()?,
                duplicate: j.get_bool("duplicate").unwrap_or(false),
            }),
            "rejected" => Ok(Response::Rejected {
                code: code(),
                reason: j.get_str("reason").unwrap_or_default().to_string(),
            }),
            "error" => Ok(Response::Error {
                job: j.get_u64("job"),
                code: code(),
                reason: j.get_str("reason").unwrap_or_default().to_string(),
            }),
            "status" => Ok(Response::Status {
                job: job()?,
                phase: phase()?,
                best: j.get_i64("best"),
                age_ms: j.get_u64("age_ms").unwrap_or(0),
            }),
            "cancelled" => Ok(Response::CancelAck {
                job: job()?,
                phase: phase()?,
            }),
            "incumbent" => Ok(Response::Incumbent {
                job: job()?,
                energy: j.get_i64("energy").ok_or("incumbent needs an \"energy\"")?,
                at_ms: j.get_u64("at_ms").unwrap_or(0),
            }),
            "done" => {
                let result = match j.get("result") {
                    None | Some(Json::Null) => None,
                    Some(r) => Some(Box::new(SolveResult::from_json(r)?)),
                };
                Ok(Response::Done {
                    job: job()?,
                    phase: phase()?,
                    result,
                    error: j.get_str("error").map(String::from),
                })
            }
            "stats" => Ok(Response::Stats {
                queued: j.get_u64("queued").unwrap_or(0),
                running: j.get_u64("running").unwrap_or(0),
                finished: j.get_u64("finished").unwrap_or(0),
                workers: j.get_u64("workers").unwrap_or(0),
                unit_threads: j.get_u64("unit_threads").unwrap_or(0),
                queue_capacity: j.get_u64("queue_capacity").unwrap_or(0),
                busy_workers: j.get_u64("busy_workers").unwrap_or(0),
                queued_units: j.get_u64("queued_units").unwrap_or(0),
                splits: j.get_u64("splits").unwrap_or(0),
            }),
            "metrics" => {
                let m = j.get("metrics").ok_or("metrics needs a \"metrics\" set")?;
                Ok(Response::Metrics {
                    metrics: Box::new(MetricSet::from_json(m)?),
                })
            }
            "timeline" => {
                let events = j
                    .get("events")
                    .and_then(Json::as_arr)
                    .ok_or("timeline needs an \"events\" array")?
                    .iter()
                    .map(TimelineEvent::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Timeline {
                    job: job()?,
                    events,
                    dropped: j.get_u64("dropped").unwrap_or(0),
                })
            }
            "health" => Ok(Response::Health {
                status: j
                    .get_str("status")
                    .ok_or("health needs a \"status\"")?
                    .to_string(),
                reasons: j
                    .get("reasons")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_str)
                            .map(String::from)
                            .collect()
                    })
                    .unwrap_or_default(),
            }),
            "pong" => Ok(Response::Pong),
            other => Err(format!("unknown response type {other:?}")),
        }
    }

    /// Parse one protocol line.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let j = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        Self::from_json(&j)
    }

    /// Encode as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProblemSpec;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello {
                version: 2,
                tenant: Some("acme".into()),
            },
            Request::Hello {
                version: 1,
                tenant: None,
            },
            Request::Submit(Box::new(JobSpec {
                problem: ProblemSpec::random(16, 2),
                max_batches: Some(100),
                priority: -3,
                ..JobSpec::default()
            })),
            Request::Status(7),
            Request::Cancel(8),
            Request::Result(9),
            Request::Subscribe(10),
            Request::Stats,
            Request::Metrics,
            Request::Timeline(11),
            Request::Health,
            Request::Ping,
        ];
        for r in reqs {
            let line = r.to_json().to_string();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Hello {
                version: 2,
                features: PROTOCOL_FEATURES.iter().map(|f| f.to_string()).collect(),
            },
            Response::Submitted {
                job: 1,
                duplicate: false,
            },
            Response::Submitted {
                job: 1,
                duplicate: true,
            },
            Response::Rejected {
                code: ErrorCode::OverCapacity,
                reason: "queue full".into(),
            },
            Response::Error {
                job: Some(4),
                code: ErrorCode::NoSuchJob,
                reason: "no such job".into(),
            },
            Response::Error {
                job: None,
                code: ErrorCode::BadJson,
                reason: "bad JSON".into(),
            },
            Response::Error {
                job: None,
                code: ErrorCode::Other("from_the_future".into()),
                reason: "novel failure".into(),
            },
            Response::Status {
                job: 2,
                phase: "running".into(),
                best: Some(-31),
                age_ms: 12,
            },
            Response::CancelAck {
                job: 2,
                phase: "cancelled".into(),
            },
            Response::Incumbent {
                job: 2,
                energy: -40,
                at_ms: 3,
            },
            Response::Stats {
                queued: 1,
                running: 2,
                finished: 3,
                workers: 4,
                unit_threads: 1,
                queue_capacity: 64,
                busy_workers: 3,
                queued_units: 9,
                splits: 5,
            },
            Response::Metrics {
                metrics: Box::new({
                    let mut set = dabs_core::MetricSet::new();
                    set.push(dabs_core::Metric::new(
                        "pool.yields",
                        17.0,
                        "count",
                        dabs_core::Direction::HigherIsBetter,
                    ));
                    set
                }),
            },
            Response::Timeline {
                job: 3,
                events: vec![
                    crate::obs::TimelineEvent {
                        at_us: 0,
                        kind: crate::obs::TimelineKind::Admitted,
                    },
                    crate::obs::TimelineEvent {
                        at_us: 40,
                        kind: crate::obs::TimelineKind::UnitStart {
                            unit: 1,
                            worker: 2,
                            queue_wait_us: 40,
                        },
                    },
                    crate::obs::TimelineEvent {
                        at_us: 90,
                        kind: crate::obs::TimelineKind::Terminal {
                            phase: "done".into(),
                        },
                    },
                ],
                dropped: 1,
            },
            Response::Health {
                status: "ok".into(),
                reasons: vec![],
            },
            Response::Health {
                status: "degraded".into(),
                reasons: vec!["wal_errors".into(), "brownout".into()],
            },
            Response::Pong,
        ];
        for r in resps {
            let line = r.encode();
            assert_eq!(Response::parse_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn done_with_result_round_trips() {
        let spec = JobSpec {
            problem: ProblemSpec::random(12, 5),
            max_batches: Some(30),
            ..JobSpec::default()
        };
        let (model, _) = spec.problem.build().unwrap();
        let result = spec
            .build_solver()
            .unwrap()
            .run_sequential(&model, spec.termination());
        let r = Response::Done {
            job: 11,
            phase: "done".into(),
            result: Some(Box::new(result.clone())),
            error: None,
        };
        match Response::parse_line(&r.encode()).unwrap() {
            Response::Done {
                job,
                phase,
                result: Some(back),
                error: None,
            } => {
                assert_eq!(job, 11);
                assert_eq!(phase, "done");
                assert_eq!(back.energy, result.energy);
                assert_eq!(back.best, result.best);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_carry_stable_codes() {
        let code = |line: &str| Request::parse_line(line).unwrap_err().code;
        assert_eq!(code("not json"), ErrorCode::BadJson);
        assert_eq!(code("{}"), ErrorCode::BadRequest);
        assert_eq!(
            code("{\"op\":\"status\"}"),
            ErrorCode::BadRequest,
            "no job id"
        );
        assert_eq!(code("{\"op\":\"warp\"}"), ErrorCode::UnknownOp);
        assert_eq!(
            code(
                "{\"op\":\"submit\",\"job\":{\"problem\":{\"kind\":\"random\",\"kernel\":\"warp\"}}}"
            ),
            ErrorCode::BadSpec
        );
        assert_eq!(
            code("{\"op\":\"submit\"}"),
            ErrorCode::BadRequest,
            "no spec"
        );
        assert!(Response::parse_line("{\"type\":\"warp\"}").is_err());
    }

    #[test]
    fn v1_lines_without_v2_fields_still_parse() {
        // A v1 server's lines carry no code/duplicate fields; a v2 client
        // must still accept them with sensible defaults.
        match Response::parse_line("{\"type\":\"submitted\",\"ok\":true,\"job\":9}").unwrap() {
            Response::Submitted { job, duplicate } => {
                assert_eq!(job, 9);
                assert!(!duplicate);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Response::parse_line("{\"type\":\"rejected\",\"ok\":false,\"reason\":\"full\"}")
            .unwrap()
        {
            Response::Rejected { code, reason } => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(reason, "full");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A v1 server has no `hello` verb and answers it with `unknown_op`;
        // `Client`'s handshake then fails with `ClientError::Protocol`, since
        // the client needs a v2 server. This server parses the hello line.
        assert_eq!(
            Request::parse_line("{\"op\":\"hello\",\"version\":2}").unwrap(),
            Request::Hello {
                version: 2,
                tenant: None
            }
        );
    }

    #[test]
    fn error_codes_round_trip_and_pass_through_unknowns() {
        for code in [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::BadSpec,
            ErrorCode::LineTooLong,
            ErrorCode::NotUtf8,
            ErrorCode::UnknownOp,
            ErrorCode::NoSuchJob,
            ErrorCode::OverCapacity,
            ErrorCode::RateLimited,
            ErrorCode::PastDeadline,
            ErrorCode::ShuttingDown,
            ErrorCode::WalDegraded,
            ErrorCode::Quarantined,
            ErrorCode::Shed,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), code);
        }
        assert_eq!(
            ErrorCode::from_wire("subspace_anomaly"),
            ErrorCode::Other("subspace_anomaly".into())
        );
    }
}
