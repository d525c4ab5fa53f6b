//! `dabs-server` — a multi-tenant solve-job runtime for the DABS engine.
//!
//! The paper's architecture is a long-lived search engine: pools, islands,
//! adaptive operator selection. This crate adds the layer that turns it from
//! a one-shot CLI process into a service:
//!
//! * **Elastic pool** ([`ElasticPool`]) — `W` long-lived solver workers
//!   over one unit queue: jobs decompose at admission into *units* (slices
//!   of the batch budget, cube-seeded starts for large instances; the
//!   `units` field sets the width), an idle worker pops the most urgent
//!   queued unit, and a running unit yields its remainder to a strictly
//!   higher-priority unit when no worker is free.
//!   Admission is bounded and unit-granular; jobs with already-passed
//!   deadlines are refused at the door and re-checked at dequeue.
//! * **Job lifecycle** ([`JobRecord`]) — per-job [`StopFlag`] cancellation
//!   (honored between batches), incumbent broadcast between units of the
//!   same job, streamed incumbents to subscribers, and terminal
//!   notifications for waiting clients; a job's terminal phase is the fold
//!   of its unit outcomes. Jobs that repeat a generator spec share one
//!   model from a process-wide model cache; a finished job holds none.
//! * **Line protocol** ([`Request`]/[`Response`]) — newline-delimited JSON
//!   over plain TCP: `hello`, `submit`, `status`, `cancel`, `result`,
//!   `subscribe`, `stats`, `metrics`, `timeline`, `health`, `ping`. See
//!   `docs/PROTOCOL.md` for the wire reference.
//! * **Reference client** ([`Client`]) — the blocking client that sends
//!   `hello` and returns typed [`ClientError`]s; `dabs loadgen`, the bench
//!   suite, perfbench and the integration tests all use it.
//!
//! ```no_run
//! use dabs_server::{Client, JobSpec, ProblemSpec, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::builder(server.local_addr()).connect().unwrap();
//! let ack = client
//!     .try_submit(&JobSpec {
//!         problem: ProblemSpec::random(64, 7),
//!         max_batches: Some(1_000),
//!         ..JobSpec::default()
//!     })
//!     .unwrap();
//! let outcome = client.try_wait_result(ack.job).unwrap();
//! println!("energy {}", outcome.result.unwrap().energy);
//! server.shutdown();
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod admission;
mod chaos;
mod client;
mod event_loop;
mod job;
mod metrics;
mod obs;
mod pool;
mod protocol;
mod server;
mod sink;
mod spec;
mod wal;

pub use admission::{RateConfig, TenantRateLimiter};
pub use chaos::{chaos_hit, FaultPlan, FaultSite};
pub use client::{Client, ClientBuilder, ClientError, JobOutcome, SubmitAck};
pub use dabs_core::StopFlag;
pub use job::{
    JobPhase, JobRecord, JobRegistry, QuarantineHook, Registered, TerminalHook, WatchKind,
    QUARANTINE_PANIC_THRESHOLD,
};
pub use metrics::{drive_fleet, percentile, LatencySummary, PoolLoad};
pub use obs::{
    net_obs, pool_obs, timeline_to_chrome, NetObs, PoolObs, TimelineEvent, TimelineKind,
};
pub use pool::{execute, AdmissionError, ElasticPool, PoolGauges, MIN_UNIT_BATCHES};
pub use protocol::{
    ErrorCode, JobId, ProtocolError, Request, Response, PROTOCOL_FEATURES, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerState};
pub use sink::LineSink;
pub use spec::{
    now_unix_ms, JobSpec, ProblemSpec, MAX_DEVICES, MAX_PROBLEM_N, MAX_QAP_SIZE, MAX_UNITS_PER_JOB,
    MODEL_CACHE_BUDGET,
};
pub use wal::{ReplayedTerminal, Wal, WalRecord, WalReplay};
