//! A small blocking client for the line protocol.
//!
//! One `Client` wraps one TCP connection. The protocol allows interleaved
//! streams on a single connection, but this client keeps a discipline that
//! makes blocking reads deterministic: request/response methods consume
//! exactly the lines their request produces, and the `try_wait_result`,
//! `subscribe` and `timeline` loops skip unrelated traffic by job id.
//! `dabs loadgen`, `dabs timeline`/`trace`, the bench suite, perfbench and
//! the integration tests all drive the server through this type — it is
//! the reference client implementation.
//!
//! Every client is opened by [`Client::builder`]: it performs the `hello`
//! handshake (version + optional tenant), surfaces failures as typed
//! [`ClientError`]s carrying the server's stable [`ErrorCode`], and can
//! stamp submits with generated idempotency keys so retrying a submit over
//! a fresh connection cannot double-run the job. The server still serves
//! connections that never send `hello` (protocol v1); this client always
//! sends it.
//!
//! With [`ClientBuilder::retry`] configured, `try_submit` and
//! `try_wait_result` ride out transient failures on their own: transport
//! errors reconnect (re-running the `hello` handshake), retryable
//! rejections (`over_capacity`, `rate_limited`, `shed`, `wal_degraded`)
//! back off exponentially with deterministic seeded jitter, and the
//! idempotency key generated for the first attempt is reused verbatim so a
//! replayed submit can never double-run the job.

use crate::chaos::splitmix64;
use crate::protocol::{ErrorCode, JobId, Request, Response, PROTOCOL_VERSION};
use crate::spec::JobSpec;
use dabs_core::SolveResult;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Exponential-backoff retry configuration. See [`ClientBuilder::retry`].
#[derive(Debug, Clone, Copy)]
struct RetryPolicy {
    max: u32,
    base: Duration,
    cap: Duration,
}

/// Blocking protocol client over one connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Protocol version settled by `hello`.
    negotiated: u64,
    /// Monotonic suffix for generated idempotency keys.
    key_seq: u64,
    /// SplitMix64 state for deterministic backoff jitter.
    jitter_state: u64,
    /// What the builder configured; re-dialing after a transport failure
    /// replays its handshake.
    config: ClientBuilder,
}

/// A job's terminal outcome as seen by a client.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub job: JobId,
    /// `done`, `cancelled`, `expired`, or `failed`.
    pub phase: String,
    pub result: Option<SolveResult>,
    pub error: Option<String>,
}

impl JobOutcome {
    /// The outcome a `done` line reports for `job`; `None` for any other
    /// line.
    fn from_done(response: Response, job: JobId) -> Option<Self> {
        match response {
            Response::Done {
                job: id,
                phase,
                result,
                error,
            } if id == job => Some(Self {
                job,
                phase,
                result: result.map(|b| *b),
                error,
            }),
            _ => None,
        }
    }
}

/// What `try_submit` learned: the job id and whether the server matched an
/// earlier submit with the same idempotency key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitAck {
    pub job: JobId,
    /// `true` when this submit collapsed onto an existing job — the id is
    /// the *original* job's.
    pub duplicate: bool,
}

/// Typed client errors. The `code` on `Rejected`/`Server` is the server's
/// stable machine-readable error code — match on it instead of parsing
/// reason strings.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, send, receive).
    Io(std::io::Error),
    /// The server refused an admission (`submit`): retryable iff the code
    /// says so (`over_capacity`, `rate_limited`).
    Rejected { code: ErrorCode, reason: String },
    /// The server answered with an error response to a non-submit request.
    Server { code: ErrorCode, reason: String },
    /// The server said something this client cannot interpret — wrong
    /// response for the request, unparseable line, or closed connection.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Rejected { code, reason } => write!(f, "rejected ({code}): {reason}"),
            Self::Server { code, reason } => write!(f, "server error ({code}): {reason}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Lets `?` carry a client error out of a function that reports errors as
/// strings (the CLI commands, the bench drivers).
impl From<ClientError> for String {
    fn from(e: ClientError) -> Self {
        e.to_string()
    }
}

impl ClientError {
    /// `true` when backing off and retrying the same request may succeed:
    /// any transport failure (the connection can be re-dialed), or a
    /// rejection whose code names a transient server condition. Protocol
    /// confusion and hard rejections (bad spec, unknown job, quarantined)
    /// are never retryable.
    pub fn is_retryable(&self) -> bool {
        match self {
            Self::Io(_) => true,
            Self::Rejected { code, .. } => matches!(
                code,
                ErrorCode::OverCapacity
                    | ErrorCode::RateLimited
                    | ErrorCode::Shed
                    | ErrorCode::WalDegraded
            ),
            _ => false,
        }
    }
}

/// The error for a line a request did not expect: the server's own error
/// line, or anything else as a protocol error.
fn unexpected(response: Response) -> ClientError {
    match response {
        Response::Error { code, reason, .. } => ClientError::Server { code, reason },
        other => ClientError::Protocol(format!("unexpected response {other:?}")),
    }
}

/// Configures and opens a [`Client`]. See [`Client::builder`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    read_timeout: Option<Duration>,
    tenant: Option<String>,
    idempotency_prefix: Option<String>,
    retry: Option<RetryPolicy>,
    retry_seed: u64,
}

impl ClientBuilder {
    /// Read timeout applied to every receive on the connection.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Tenant this connection's submits are accounted to (rate limiting).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Stamp every keyless `try_submit` with a generated idempotency key
    /// `"{prefix}-{seq}"`, making submit retries at-least-once safe.
    pub fn idempotency_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.idempotency_prefix = Some(prefix.into());
        self
    }

    /// Retry `try_submit`/`try_wait_result` up to `max` extra attempts.
    /// Attempt `n` sleeps `min(cap, base * 2^n)` scaled by a deterministic
    /// jitter factor in `[0.5, 1.0)` (seeded — see
    /// [`ClientBuilder::retry_seed`]); transport errors additionally
    /// re-dial the server and replay the `hello` handshake before the next
    /// attempt. Only [`ClientError::is_retryable`] failures are retried.
    pub fn retry(mut self, max: u32, base: Duration, cap: Duration) -> Self {
        self.retry = Some(RetryPolicy { max, base, cap });
        self
    }

    /// Seed for the backoff jitter stream; two clients with the same seed
    /// sleep identical schedules. Defaults to 1.
    pub fn retry_seed(mut self, seed: u64) -> Self {
        self.retry_seed = seed;
        self
    }

    /// Connect and perform the `hello` handshake.
    pub fn connect(self) -> Result<Client, ClientError> {
        let (reader, writer, negotiated) = dial(&self)?;
        Ok(Client {
            reader,
            writer,
            negotiated,
            key_seq: 0,
            jitter_state: splitmix64(self.retry_seed),
            config: self,
        })
    }
}

/// Dial + handshake, shared by first connect and retry reconnects.
fn dial(cfg: &ClientBuilder) -> Result<(BufReader<TcpStream>, TcpStream, u64), ClientError> {
    let stream = TcpStream::connect(cfg.addr.as_str())?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(cfg.read_timeout)?;
    let writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        tenant: cfg.tenant.clone(),
    };
    send_on(&writer, &hello)?;
    match recv_on(&mut reader)? {
        Response::Hello { version, .. } => Ok((reader, writer, version)),
        other => Err(ClientError::Protocol(format!(
            "expected hello, got {other:?}"
        ))),
    }
}

fn send_on(mut writer: &TcpStream, request: &Request) -> Result<(), ClientError> {
    let line = request.to_json().to_string();
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    Ok(())
}

fn recv_on(reader: &mut BufReader<TcpStream>) -> Result<Response, ClientError> {
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            return Response::parse_line(trimmed).map_err(ClientError::Protocol);
        }
    }
}

impl Client {
    /// Start a client configuration for `addr` (anything that prints as
    /// `host:port`).
    pub fn builder(addr: impl ToString) -> ClientBuilder {
        ClientBuilder {
            addr: addr.to_string(),
            read_timeout: None,
            tenant: None,
            idempotency_prefix: None,
            retry: None,
            retry_seed: 1,
        }
    }

    /// The protocol version settled with the server by `hello`.
    pub fn protocol_version(&self) -> u64 {
        self.negotiated
    }

    /// Send one request line.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        send_on(&self.writer, request)
    }

    /// Receive one response line.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        recv_on(&mut self.reader)
    }

    fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Read lines until `take` accepts one. An error line about `job`, or
    /// about no job at all, ends the wait; other jobs' traffic on a shared
    /// connection is skipped.
    fn read_until<T>(
        &mut self,
        job: JobId,
        mut take: impl FnMut(Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        loop {
            match self.recv()? {
                Response::Error {
                    job: id,
                    code,
                    reason,
                } if id.is_none_or(|id| id == job) => {
                    return Err(ClientError::Server { code, reason })
                }
                other => {
                    if let Some(t) = take(other) {
                        return Ok(t);
                    }
                }
            }
        }
    }

    /// Sleep the backoff for retry `attempt` (0-based): `min(cap, base*2^n)`
    /// scaled by deterministic jitter in `[0.5, 1.0)`.
    fn backoff(&mut self, attempt: u32) {
        let Some(p) = self.config.retry else { return };
        let exp = p.base.saturating_mul(1u32 << attempt.min(16));
        let draw = splitmix64(self.jitter_state);
        self.jitter_state = draw;
        let frac = 0.5 + ((draw >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
        let delay = exp.min(p.cap).mul_f64(frac);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Re-dial and replay the handshake after a transport failure. Keeps
    /// the idempotency key sequence — a replayed submit reuses its key.
    fn redial(&mut self) -> Result<(), ClientError> {
        let (reader, writer, negotiated) = dial(&self.config)?;
        self.reader = reader;
        self.writer = writer;
        self.negotiated = negotiated;
        Ok(())
    }

    /// Run one attempt plus up to `retry.max` retries of `op`, backing off
    /// between attempts and re-dialing after transport failures.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let max = self.config.retry.map_or(0, |p| p.max);
        let mut attempt = 0u32;
        loop {
            match op(self) {
                Err(e) if e.is_retryable() && attempt < max => {
                    self.backoff(attempt);
                    if matches!(e, ClientError::Io(_)) {
                        // A failed re-dial is itself retryable: the stale
                        // socket stays installed and the next attempt fails
                        // fast with Io, landing back here.
                        let _ = self.redial();
                    }
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Submit a job, with duplicate detection. When the builder configured
    /// an idempotency prefix and the spec carries no key, a generated key
    /// is attached so a retry of this submit (even over a new connection
    /// with the same prefix sequence) lands on the same job.
    ///
    /// With [`ClientBuilder::retry`] configured, retryable failures back
    /// off and resubmit automatically — always with the *same* key, so the
    /// server collapses any replay onto the original job.
    pub fn try_submit(&mut self, spec: &JobSpec) -> Result<SubmitAck, ClientError> {
        let mut spec = spec.clone();
        if spec.idempotency_key.is_none() {
            if let Some(prefix) = &self.config.idempotency_prefix {
                spec.idempotency_key = Some(format!("{prefix}-{}", self.key_seq));
                self.key_seq += 1;
            }
        }
        let request = Request::Submit(Box::new(spec));
        self.with_retry(|c| match c.request(&request)? {
            Response::Submitted { job, duplicate } => Ok(SubmitAck { job, duplicate }),
            Response::Rejected { code, reason } => Err(ClientError::Rejected { code, reason }),
            other => Err(unexpected(other)),
        })
    }

    /// Snapshot a job's phase and best energy.
    pub fn status(&mut self, job: JobId) -> Result<(String, Option<i64>), ClientError> {
        match self.request(&Request::Status(job))? {
            Response::Status { phase, best, .. } => Ok((phase, best)),
            other => Err(unexpected(other)),
        }
    }

    /// Cancel a job; returns its phase after the cancel registered.
    pub fn cancel(&mut self, job: JobId) -> Result<String, ClientError> {
        match self.request(&Request::Cancel(job))? {
            Response::CancelAck { phase, .. } => Ok(phase),
            other => Err(unexpected(other)),
        }
    }

    /// Subscribe to a job's incumbent stream. Returns the `(energy, at_ms)`
    /// sequence observed and the terminal outcome.
    pub fn subscribe(&mut self, job: JobId) -> Result<(Vec<(i64, u64)>, JobOutcome), ClientError> {
        self.send(&Request::Subscribe(job))?;
        let mut incumbents = Vec::new();
        let outcome = self.read_until(job, |r| match r {
            Response::Incumbent {
                job: id,
                energy,
                at_ms,
            } if id == job => {
                incumbents.push((energy, at_ms));
                None
            }
            other => JobOutcome::from_done(other, job),
        })?;
        Ok((incumbents, outcome))
    }

    /// Block until the job is terminal and return its outcome. Skips
    /// interleaved lines that belong to other jobs on this connection.
    /// With [`ClientBuilder::retry`] configured, a connection lost mid-wait
    /// is re-dialed and the `result` request re-issued — results are
    /// replayed for terminal jobs, so the retry converges.
    pub fn try_wait_result(&mut self, job: JobId) -> Result<JobOutcome, ClientError> {
        self.with_retry(|c| {
            c.send(&Request::Result(job))?;
            c.read_until(job, |r| JobOutcome::from_done(r, job))
        })
    }

    /// Server health: `("ok" | "degraded" | "draining", reasons)`.
    pub fn health(&mut self) -> Result<(String, Vec<String>), ClientError> {
        match self.request(&Request::Health)? {
            Response::Health { status, reasons } => Ok((status, reasons)),
            other => Err(unexpected(other)),
        }
    }

    /// Runtime counters.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Stats)
    }

    /// Full observability snapshot (solver + pool counters, histograms).
    pub fn metrics(&mut self) -> Result<dabs_core::MetricSet, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { metrics } => Ok(*metrics),
            other => Err(unexpected(other)),
        }
    }

    /// A job's event timeline and the count of events its bounded log
    /// dropped.
    pub fn timeline(
        &mut self,
        job: JobId,
    ) -> Result<(Vec<crate::obs::TimelineEvent>, u64), ClientError> {
        self.send(&Request::Timeline(job))?;
        self.read_until(job, |r| match r {
            Response::Timeline {
                job: id,
                events,
                dropped,
            } if id == job => Some((events, dropped)),
            _ => None,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}
