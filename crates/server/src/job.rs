//! Job lifecycle: records, phases, watchers, and the registry.
//!
//! A [`JobRecord`] is the runtime's view of one admitted job. It owns the
//! job's [`StopFlag`] (the cancellation hook threaded into the solver's
//! `Termination`), its phase machine, and its *watchers* — per-connection
//! line sinks that receive incumbent updates (`subscribe`) and the terminal
//! `done` notification (`result` and `subscribe` both). Watchers hold a
//! [`LineSink`] — the event loop's per-connection outbound queue, or a
//! plain channel for in-process embedding — so publishing is a non-blocking
//! enqueue; a watcher whose connection died is pruned on the next send.

use crate::obs::{TimelineEvent, TimelineKind};
use crate::protocol::{JobId, Response};
use crate::sink::LineSink;
use crate::spec::{model_cache, now_unix_ms, JobSpec};
use dabs_core::{SolveResult, StopFlag, UnitOutcome};
use dabs_model::{QuboModel, Solution};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Called once per job, at its terminal transition, with the final phase,
/// result, and error. The durable job log hangs off this: the server
/// installs a hook that appends a `terminal` record, so replay knows which
/// admitted jobs need re-running. Runs before watcher fan-out (log first,
/// tell clients second) and must not block for long — it executes on
/// whatever thread drove the transition.
pub type TerminalHook =
    Arc<dyn Fn(JobId, JobPhase, Option<&SolveResult>, Option<&str>) + Send + Sync>;

/// Called once per job when it is quarantined (its units panicked at or
/// beyond [`QUARANTINE_PANIC_THRESHOLD`]). The server installs a hook that
/// appends a durable `quarantine` record so the mark survives restart.
pub type QuarantineHook = Arc<dyn Fn(JobId) + Send + Sync>;

/// How many unit panics a single job is allowed before it is quarantined —
/// refused further execution as a poison job rather than allowed to keep
/// killing workers.
pub const QUARANTINE_PANIC_THRESHOLD: u32 = 3;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Completed normally.
    Done,
    /// Stopped by a client `cancel` (possibly with a partial result).
    Cancelled,
    /// Deadline passed while the job was still queued (or during worker
    /// setup, before any batch ran).
    Expired,
    /// The spec failed to build or the solver rejected it.
    Failed,
}

impl JobPhase {
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Expired => "expired",
            JobPhase::Failed => "failed",
        }
    }

    /// Inverse of [`JobPhase::name`] (WAL replay parses stored phases).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "queued" => JobPhase::Queued,
            "running" => JobPhase::Running,
            "done" => JobPhase::Done,
            "cancelled" => JobPhase::Cancelled,
            "expired" => JobPhase::Expired,
            "failed" => JobPhase::Failed,
            _ => return None,
        })
    }

    /// Terminal phases never transition again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobPhase::Queued | JobPhase::Running)
    }
}

/// Mutable job state guarded by the record's lock.
#[derive(Debug)]
struct JobState {
    phase: JobPhase,
    result: Option<SolveResult>,
    error: Option<String>,
}

/// What a watcher wants to hear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchKind {
    /// Only the terminal `done` line (`result` requests).
    ResultOnly,
    /// Every incumbent plus the terminal line (`subscribe` requests).
    Subscribe,
}

struct Watcher {
    sink: Arc<dyn LineSink>,
    kind: WatchKind,
}

/// How one unit of a decomposed job ended (the per-unit analogue of the
/// job-level terminal phase; the fold over all units decides the latter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitEnd {
    /// Ran to its own termination: budget slice exhausted, target reached,
    /// or time window closed.
    Completed,
    /// Cut short by the job's stop flag — client cancel, server shutdown,
    /// or a sibling unit reaching the target.
    Interrupted,
    /// Never executed: revoked while queued (cancel or shutdown drain).
    Revoked,
    /// Model/solver construction failed.
    Failed,
}

/// Aggregation state for a job decomposed into units. `total` can grow
/// while units run (a priority yield's continuation); the fold fires when
/// `finished` catches up to it.
#[derive(Debug, Default)]
struct UnitBook {
    total: u32,
    started: u32,
    finished: u32,
    /// Units genuinely cut short or revoked (not ones that completed their
    /// slice before noticing the flag).
    cut_short: u32,
    failed: Option<String>,
    merged: Option<UnitOutcome>,
}

/// Cap on retained timeline events per job. Past it, new events only move
/// the drop counter — a runaway incumbent stream cannot grow a record
/// unboundedly.
const TIMELINE_CAP: usize = 512;

/// Bounded per-job event log. Timestamps are computed *inside* the log's
/// lock (see [`JobRecord::push_timeline`]), so the stored sequence is
/// monotone by construction.
#[derive(Debug, Default)]
struct TimelineLog {
    events: Vec<TimelineEvent>,
    dropped: u64,
}

/// Where a job's model is: not asked for yet, fetched or built (or its
/// build error), or released at the terminal transition.
#[derive(Debug)]
enum ModelSlot {
    Pending,
    Ready(Result<Arc<QuboModel>, String>),
    Released,
}

/// One admitted job.
pub struct JobRecord {
    pub id: JobId,
    pub spec: JobSpec,
    /// The external-cancellation hook passed into the solver.
    pub stop: Arc<StopFlag>,
    submitted_at: Instant,
    cancel_requested: AtomicBool,
    /// Best energy seen so far (`i64::MAX` = none yet); updated by the
    /// worker's incumbent observer.
    best: AtomicI64,
    state: Mutex<JobState>,
    terminal_cv: Condvar,
    watchers: Mutex<Vec<Watcher>>,
    /// Best `(solution, energy)` seen by any unit so far; the warm-start
    /// source for incumbent broadcast between units of the same job.
    incumbent: Mutex<Option<(Solution, i64)>>,
    units: Mutex<UnitBook>,
    timeline: Mutex<TimelineLog>,
    /// The model shared by every unit of the job (see [`JobRecord::model`]).
    model: Mutex<ModelSlot>,
    /// When the job's first unit began executing — the origin of the job's
    /// wall-clock window, shared by all units so `time_ms` bounds the job,
    /// not each unit.
    first_unit_start: OnceLock<Instant>,
    /// Installed at registration when the registry has one; fires once at
    /// the terminal transition (see [`TerminalHook`]).
    terminal_hook: OnceLock<TerminalHook>,
    /// Units of this job that panicked under supervision.
    panics: AtomicU32,
    /// Poison mark: once set, the pool refuses to execute any further unit
    /// of this job.
    quarantined: AtomicBool,
    /// Installed at registration when the registry has one; fires once at
    /// the quarantine transition (see [`QuarantineHook`]).
    quarantine_hook: OnceLock<QuarantineHook>,
}

impl JobRecord {
    fn new(id: JobId, spec: JobSpec) -> Self {
        Self {
            id,
            spec,
            stop: Arc::new(StopFlag::new()),
            submitted_at: Instant::now(),
            cancel_requested: AtomicBool::new(false),
            best: AtomicI64::new(i64::MAX),
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                result: None,
                error: None,
            }),
            terminal_cv: Condvar::new(),
            watchers: Mutex::new(Vec::new()),
            incumbent: Mutex::new(None),
            units: Mutex::new(UnitBook::default()),
            timeline: Mutex::new(TimelineLog::default()),
            model: Mutex::new(ModelSlot::Pending),
            first_unit_start: OnceLock::new(),
            terminal_hook: OnceLock::new(),
            panics: AtomicU32::new(0),
            quarantined: AtomicBool::new(false),
            quarantine_hook: OnceLock::new(),
        }
    }

    /// Append one timeline event, stamped with the job's age *under the
    /// log's lock* — two racing pushes therefore cannot record out-of-order
    /// timestamps. Past `TIMELINE_CAP` events, only the drop counter
    /// moves.
    pub fn push_timeline(&self, kind: TimelineKind) {
        let mut log = self.timeline.lock().expect("timeline lock");
        if log.events.len() >= TIMELINE_CAP {
            log.dropped += 1;
            return;
        }
        let at_us = self.submitted_at.elapsed().as_micros() as u64;
        log.events.push(TimelineEvent { at_us, kind });
    }

    /// Copy of the job's timeline so far, plus how many events were dropped
    /// at the cap.
    pub fn timeline_snapshot(&self) -> (Vec<TimelineEvent>, u64) {
        let log = self.timeline.lock().expect("timeline lock");
        (log.events.clone(), log.dropped)
    }

    pub fn phase(&self) -> JobPhase {
        self.state.lock().expect("job state lock").phase
    }

    pub fn best_energy(&self) -> Option<i64> {
        let e = self.best.load(Ordering::Relaxed);
        (e != i64::MAX).then_some(e)
    }

    pub fn age(&self) -> Duration {
        self.submitted_at.elapsed()
    }

    pub fn cancel_requested(&self) -> bool {
        self.cancel_requested.load(Ordering::Relaxed)
    }

    /// Client cancellation: trip the stop flag; a still-queued job goes
    /// terminal immediately (the worker will skip it), a running one stops
    /// at its next batch boundary. Returns the phase after the call.
    pub fn request_cancel(self: &Arc<Self>) -> JobPhase {
        self.cancel_requested.store(true, Ordering::Relaxed);
        self.stop.stop();
        {
            // The Queued check and the Cancelled transition must share one
            // lock acquisition: releasing between them would let a worker
            // claim (or even complete) the job in the window, and a late
            // `finish(Cancelled, None)` would then erase the real outcome.
            let mut st = self.state.lock().expect("job state lock");
            if st.phase != JobPhase::Queued {
                return st.phase;
            }
            st.phase = JobPhase::Cancelled;
        }
        self.notify_terminal();
        JobPhase::Cancelled
    }

    /// Worker-side incumbent delivery: stores the solution (later units of
    /// this job warm-start from it), records the energy, and fans the line
    /// out to subscribers. With many units publishing concurrently, each
    /// unit's observer stream is only *locally* improving, so the store lock
    /// both filters non-improvements and serializes the fan-out — every
    /// subscriber still sees a strictly improving sequence.
    pub fn offer_incumbent(&self, solution: &Solution, energy: i64, found_at: Duration) {
        let mut inc = self.incumbent.lock().expect("incumbent lock");
        if inc.as_ref().is_some_and(|(_, e)| energy >= *e) {
            return;
        }
        *inc = Some((solution.clone(), energy));
        self.best.fetch_min(energy, Ordering::Relaxed);
        self.push_timeline(TimelineKind::Incumbent { energy });
        let line = Response::Incumbent {
            job: self.id,
            energy,
            at_ms: found_at.as_millis() as u64,
        }
        .encode();
        let mut ws = self.watchers.lock().expect("watchers lock");
        ws.retain(|w| w.kind != WatchKind::Subscribe || w.sink.send_line(line.clone()));
    }

    /// Snapshot of the job-wide best `(solution, energy)` — what a freshly
    /// dispatched unit warm-starts from. `None` until a unit has offered an
    /// incumbent.
    pub fn incumbent(&self) -> Option<(Solution, i64)> {
        self.incumbent.lock().expect("incumbent lock").clone()
    }

    /// The job's model, shared by every unit. The first unit to ask takes
    /// it from the process-wide model cache, which builds only on a miss
    /// or for an inline document; later units wait for that unit and
    /// share its result, so a job builds at most once, for a model or an
    /// error. The terminal transition releases the record's handle, and
    /// asking after it is an error.
    pub fn model(&self) -> Result<Arc<QuboModel>, String> {
        let mut slot = self.model_slot();
        match &*slot {
            ModelSlot::Ready(built) => built.clone(),
            ModelSlot::Released => Err("the job is terminal and released its model".into()),
            ModelSlot::Pending => {
                let built = model_cache().get_or_build(&self.spec.problem);
                *slot = ModelSlot::Ready(built.clone());
                built
            }
        }
    }

    /// Whether the record holds a model now. A terminal record never does.
    pub fn holds_model(&self) -> bool {
        matches!(*self.model_slot(), ModelSlot::Ready(Ok(_)))
    }

    /// The slot survives a panicking build: the lock is taken through a
    /// poison, and the slot is still `Pending`, so the next unit retries.
    fn model_slot(&self) -> MutexGuard<'_, ModelSlot> {
        self.model.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The origin of the job's shared wall-clock window: set when the first
    /// unit begins executing, read by every later unit.
    pub fn unit_clock(&self) -> Instant {
        *self.first_unit_start.get_or_init(Instant::now)
    }

    /// Declare how many units the job was decomposed into. Called once at
    /// admission, before any unit is queued.
    pub fn plan_units(&self, total: u32) {
        {
            let mut book = self.units.lock().expect("units lock");
            debug_assert_eq!(book.total, 0, "units planned twice");
            book.total = total.max(1);
        }
        self.push_timeline(TimelineKind::Admitted);
    }

    /// Priority yield: a running unit hands the rest of its budget to a new
    /// queued continuation unit. Returns `false` (and registers nothing) if
    /// the job is already terminal.
    pub fn add_continuation_unit(&self) -> bool {
        let st = self.state.lock().expect("job state lock");
        if st.phase.is_terminal() {
            return false;
        }
        let mut book = self.units.lock().expect("units lock");
        book.total += 1;
        true
    }

    /// `(total, started, finished)` unit counts.
    pub fn unit_counts(&self) -> (u32, u32, u32) {
        let book = self.units.lock().expect("units lock");
        (book.total, book.started, book.finished)
    }

    /// Worker claim of one unit. The first claim moves the job
    /// `Queued → Running`. Returns the unit's 1-based start ordinal, or
    /// `None` when the job is already terminal (cancelled/expired while its
    /// units sat in queues) — the caller must then drop the unit without
    /// executing or accounting it.
    pub fn begin_unit(&self) -> Option<u32> {
        let mut st = self.state.lock().expect("job state lock");
        match st.phase {
            JobPhase::Queued => st.phase = JobPhase::Running,
            JobPhase::Running => {}
            _ => return None,
        }
        let mut book = self.units.lock().expect("units lock");
        book.started += 1;
        Some(book.started)
    }

    /// Stale-deadline dequeue (checked when a unit is *popped*, not only at
    /// admission): if the deadline has passed and no unit of this job has
    /// ever started, the whole job goes `Expired` now, without burning pool
    /// time. The started-check and the transition share the state lock so a
    /// concurrent `begin_unit` cannot slip in between.
    pub fn expire_if_unstarted(self: &Arc<Self>, reason: &str) -> bool {
        {
            let mut st = self.state.lock().expect("job state lock");
            if st.phase.is_terminal() {
                return false;
            }
            let book = self.units.lock().expect("units lock");
            if book.started > 0 {
                return false;
            }
            drop(book);
            st.phase = JobPhase::Expired;
            st.error = Some(reason.to_string());
        }
        self.notify_terminal();
        true
    }

    /// Account one finished unit and, when it is the job's last, fold the
    /// unit outcomes into the job's terminal phase:
    ///
    /// - any unit failed → `Failed` (first error wins);
    /// - the merged result reached the target → `Done` — sibling units
    ///   tripped by the success's stop broadcast are not interruptions;
    /// - deadline passed with zero batches executed → `Expired` (the
    ///   deadline closed during setup, before any work happened);
    /// - at least one unit genuinely cut short (interrupted mid-run or
    ///   revoked unexecuted — both only arise from cancel, shutdown, or a
    ///   sibling's stop broadcast, and the broadcast case is already `Done`
    ///   above) → `Cancelled`, with the merged best-so-far attached;
    /// - otherwise → `Done`.
    ///
    /// This is PR 2's `classify` lifted over a fold: per-unit completion is
    /// judged by the scheduler against the termination each unit actually
    /// executed under, and the job completes iff its units did.
    pub fn finish_unit(
        self: &Arc<Self>,
        end: UnitEnd,
        outcome: Option<UnitOutcome>,
        error: Option<String>,
    ) {
        let fold = {
            let mut book = self.units.lock().expect("units lock");
            debug_assert!(book.finished < book.total, "more unit ends than units");
            book.finished += 1;
            match end {
                UnitEnd::Completed => {}
                UnitEnd::Interrupted | UnitEnd::Revoked => book.cut_short += 1,
                UnitEnd::Failed => {
                    if book.failed.is_none() {
                        book.failed = error.clone().or_else(|| Some("unit failed".into()));
                    }
                }
            }
            if let Some(o) = outcome {
                book.merged = Some(match book.merged.take() {
                    Some(m) => m.merge(o),
                    None => o,
                });
            }
            if book.finished == book.total {
                Some((book.merged.clone(), book.failed.clone(), book.cut_short))
            } else {
                None
            }
        };
        let Some((merged, failed, cut_short)) = fold else {
            return;
        };
        let reached = merged.as_ref().is_some_and(|m| m.result.reached_target);
        let batches = merged.as_ref().map_or(0, |m| m.result.batches);
        let deadline_passed = self
            .spec
            .deadline_unix_ms
            .is_some_and(|d| now_unix_ms() >= d);
        if failed.is_some() {
            self.finish(JobPhase::Failed, merged.map(|m| m.result), failed);
        } else if reached {
            self.finish(JobPhase::Done, merged.map(|m| m.result), None);
        } else if deadline_passed && batches == 0 {
            self.finish(
                JobPhase::Expired,
                None,
                Some("deadline passed during setup".into()),
            );
        } else if cut_short > 0 {
            self.finish(JobPhase::Cancelled, merged.map(|m| m.result), None);
        } else {
            self.finish(JobPhase::Done, merged.map(|m| m.result), None);
        }
    }

    /// Transition to a terminal phase, wake synchronous waiters, and notify
    /// every watcher with the terminal `done` line. Idempotent: only the
    /// first terminal transition wins (a cancel racing a natural completion
    /// keeps the completion's result).
    pub fn finish(
        self: &Arc<Self>,
        phase: JobPhase,
        result: Option<SolveResult>,
        error: Option<String>,
    ) {
        debug_assert!(phase.is_terminal());
        {
            let mut st = self.state.lock().expect("job state lock");
            if st.phase.is_terminal() {
                return;
            }
            st.phase = phase;
            if let Some(r) = &result {
                self.best.fetch_min(r.energy, Ordering::Relaxed);
            }
            st.result = result;
            st.error = error;
        }
        self.notify_terminal();
    }

    /// Release the record's model, wake synchronous waiters, fire the
    /// terminal hook (durable log first), then send the terminal `done`
    /// line to every watcher. Call exactly once, after the terminal
    /// transition. Every terminal path comes through here: the unit fold,
    /// cancel while queued, expiry, shedding, and the shutdown drain.
    fn notify_terminal(&self) {
        // Before anyone hears of the end, so a client holding the `done`
        // line never sees the record pin memory. A cached model lives on in
        // the cache; an uncached one is freed once the running units drop
        // their own handles.
        *self.model_slot() = ModelSlot::Released;
        let (phase, result, error) = self.snapshot();
        self.push_timeline(TimelineKind::Terminal {
            phase: phase.name().to_string(),
        });
        self.terminal_cv.notify_all();
        if let Some(hook) = self.terminal_hook.get() {
            hook(self.id, phase, result.as_ref(), error.as_deref());
        }
        let line = Response::Done {
            job: self.id,
            phase: phase.name().to_string(),
            result: result.map(Box::new),
            error,
        }
        .encode();
        let mut ws = self.watchers.lock().expect("watchers lock");
        for w in ws.drain(..) {
            let _ = w.sink.send_line(line.clone());
        }
    }

    /// The terminal `done` response, or `None` while the job is live.
    pub fn terminal_line(&self) -> Option<Response> {
        let st = self.state.lock().expect("job state lock");
        st.phase.is_terminal().then(|| Response::Done {
            job: self.id,
            phase: st.phase.name().to_string(),
            result: st.result.clone().map(Box::new),
            error: st.error.clone(),
        })
    }

    /// Attach a line sink. If the job is already terminal the sink gets the
    /// `done` line immediately and is not registered. A fresh subscriber to
    /// a live job first receives the current best (if any) so its stream
    /// starts from the job's present state.
    pub fn add_watcher(&self, sink: Arc<dyn LineSink>, kind: WatchKind) {
        // Hold the watcher lock across the terminal check so a concurrent
        // finish() cannot slip between the check and the registration.
        let mut ws = self.watchers.lock().expect("watchers lock");
        if let Some(line) = self.terminal_line() {
            let _ = sink.send_line(line.encode());
            return;
        }
        if kind == WatchKind::Subscribe {
            if let Some(best) = self.best_energy() {
                let snapshot = Response::Incumbent {
                    job: self.id,
                    energy: best,
                    at_ms: self.age().as_millis() as u64,
                }
                .encode();
                let _ = sink.send_line(snapshot);
            }
        }
        ws.push(Watcher { sink, kind });
    }

    /// Block until the job is terminal (in-process convenience for tests
    /// and embedded servers). Returns `false` on timeout.
    pub fn wait_terminal(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("job state lock");
        while !st.phase.is_terminal() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .terminal_cv
                .wait_timeout(st, deadline - now)
                .expect("job state lock");
            st = guard;
        }
        true
    }

    /// Snapshot `(phase, result, error)` for the status/result paths.
    pub fn snapshot(&self) -> (JobPhase, Option<SolveResult>, Option<String>) {
        let st = self.state.lock().expect("job state lock");
        (st.phase, st.result.clone(), st.error.clone())
    }

    /// Record one panicked unit; returns the cumulative panic count (the
    /// pool compares it against [`QUARANTINE_PANIC_THRESHOLD`]).
    pub fn note_panic(&self) -> u32 {
        self.panics.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// How many of this job's units have panicked so far.
    pub fn panic_count(&self) -> u32 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Whether the job carries the poison mark.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Quarantine the job. Idempotent: only the first call fires the
    /// durable-record hook, and returns `true` so the caller can account
    /// the transition exactly once.
    pub fn quarantine(&self) -> bool {
        if self.quarantined.swap(true, Ordering::Relaxed) {
            return false;
        }
        if let Some(hook) = self.quarantine_hook.get() {
            hook(self.id);
        }
        true
    }

    /// Re-apply a quarantine mark learned from WAL replay, without firing
    /// the hook (the mark is already durable).
    pub fn restore_quarantine(&self) {
        self.quarantined.store(true, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for JobRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRecord")
            .field("id", &self.id)
            .field("phase", &self.phase())
            .field("best", &self.best_energy())
            .finish()
    }
}

/// How many *terminal* jobs the registry keeps around by default so late
/// `status`/`result` requests still find them. Live (queued/running) jobs
/// are never evicted.
const DEFAULT_TERMINAL_RETENTION: usize = 1024;

/// All jobs the server has admitted, by id.
///
/// Bounded: terminal records beyond the retention window are evicted
/// (oldest id first) on admission, so a long-lived server's memory tracks
/// its *live* load, not its lifetime job count. Evicted jobs still count in
/// [`JobRegistry::phase_counts`]' finished total.
pub struct JobRegistry {
    next_id: AtomicU64,
    jobs: Mutex<HashMap<JobId, Arc<JobRecord>>>,
    /// Idempotency key → original job id, for submits that carry one.
    /// Entries live exactly as long as their job stays in the retention
    /// window (pruning and eviction clean both maps together).
    keys: Mutex<HashMap<String, JobId>>,
    terminal_retention: usize,
    evicted_terminal: AtomicU64,
    hook: Mutex<Option<TerminalHook>>,
    quarantine_hook: Mutex<Option<QuarantineHook>>,
}

impl std::fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (queued, running, finished) = self.phase_counts();
        f.debug_struct("JobRegistry")
            .field("queued", &queued)
            .field("running", &running)
            .field("finished", &finished)
            .finish()
    }
}

/// Outcome of a keyed registration: a fresh record, or the record the same
/// idempotency key already admitted.
pub enum Registered {
    New(Arc<JobRecord>),
    Duplicate(Arc<JobRecord>),
}

impl Default for JobRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl JobRegistry {
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_TERMINAL_RETENTION)
    }

    /// Registry keeping at most `terminal_retention` finished jobs.
    pub fn with_retention(terminal_retention: usize) -> Self {
        Self {
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(HashMap::new()),
            keys: Mutex::new(HashMap::new()),
            terminal_retention: terminal_retention.max(1),
            evicted_terminal: AtomicU64::new(0),
            hook: Mutex::new(None),
            quarantine_hook: Mutex::new(None),
        }
    }

    /// Install the terminal hook copied into every record registered from
    /// now on (the WAL's `terminal` appender). Records registered *before*
    /// — replayed already-terminal jobs — never fire it.
    pub fn set_terminal_hook(&self, hook: TerminalHook) {
        *self.hook.lock().expect("hook lock") = Some(hook);
    }

    /// Install the quarantine hook copied into every record registered from
    /// now on (the WAL's `quarantine` appender).
    pub fn set_quarantine_hook(&self, hook: QuarantineHook) {
        *self.quarantine_hook.lock().expect("hook lock") = Some(hook);
    }

    /// Allocate an id and register a fresh record. Any idempotency key on
    /// the spec is indexed but *not* checked — use
    /// [`JobRegistry::register_keyed`] for collapse-on-duplicate semantics.
    pub fn register(&self, spec: JobSpec) -> Arc<JobRecord> {
        let mut keys = self.keys.lock().expect("keys lock");
        let key = spec.idempotency_key.clone();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = self.insert_locked(id, spec, &mut keys);
        if let Some(k) = key {
            keys.insert(k, id);
        }
        record
    }

    /// Register honoring the spec's idempotency key: if the key already
    /// names a retained job, no new job is created and the original record
    /// comes back as [`Registered::Duplicate`]. The check and the insert
    /// share the key-index lock, so two racing submits with the same key
    /// cannot both admit.
    pub fn register_keyed(&self, spec: JobSpec) -> Registered {
        let mut keys = self.keys.lock().expect("keys lock");
        if let Some(k) = &spec.idempotency_key {
            if let Some(&id) = keys.get(k) {
                if let Some(existing) = self.get(id) {
                    return Registered::Duplicate(existing);
                }
                // The job fell out of the retention window before its key
                // was cleaned; treat the key as fresh.
                keys.remove(k);
            }
        }
        let key = spec.idempotency_key.clone();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = self.insert_locked(id, spec, &mut keys);
        if let Some(k) = key {
            keys.insert(k, id);
        }
        Registered::New(record)
    }

    /// Register under a fixed id (WAL replay): the record keeps its
    /// pre-crash identity, its idempotency key is re-indexed, and fresh-id
    /// allocation resumes above every replayed id.
    pub fn register_with_id(&self, id: JobId, spec: JobSpec) -> Arc<JobRecord> {
        let mut keys = self.keys.lock().expect("keys lock");
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        let key = spec.idempotency_key.clone();
        let record = self.insert_locked(id, spec, &mut keys);
        if let Some(k) = key {
            keys.insert(k, id);
        }
        record
    }

    /// Insert one record. `keys` is the already-held key index: lock order
    /// is keys → jobs, and pruning cleans both maps in one critical
    /// section, so an evicted job's key can never resurrect it.
    fn insert_locked(
        &self,
        id: JobId,
        spec: JobSpec,
        keys: &mut HashMap<String, JobId>,
    ) -> Arc<JobRecord> {
        let record = Arc::new(JobRecord::new(id, spec));
        if let Some(hook) = self.hook.lock().expect("hook lock").clone() {
            let _ = record.terminal_hook.set(hook);
        }
        if let Some(hook) = self.quarantine_hook.lock().expect("hook lock").clone() {
            let _ = record.quarantine_hook.set(hook);
        }
        let mut jobs = self.jobs.lock().expect("registry lock");
        jobs.insert(id, Arc::clone(&record));
        // Amortized prune: only scan once the map could plausibly hold more
        // terminal records than the retention window.
        if jobs.len() > self.terminal_retention * 2 {
            let mut terminal: Vec<JobId> = jobs
                .values()
                .filter(|r| r.phase().is_terminal())
                .map(|r| r.id)
                .collect();
            if terminal.len() > self.terminal_retention {
                terminal.sort_unstable();
                let excess = terminal.len() - self.terminal_retention;
                let evicted: HashSet<JobId> = terminal.into_iter().take(excess).collect();
                for old in &evicted {
                    jobs.remove(old);
                }
                keys.retain(|_, id| !evicted.contains(id));
                self.evicted_terminal
                    .fetch_add(excess as u64, Ordering::Relaxed);
            }
        }
        record
    }

    /// Drop a record that failed admission after registration, along with
    /// its idempotency key (a refused submit must not poison retries).
    pub fn evict(&self, id: JobId) {
        let mut keys = self.keys.lock().expect("keys lock");
        self.jobs.lock().expect("registry lock").remove(&id);
        keys.retain(|_, kid| *kid != id);
    }

    pub fn get(&self, id: JobId) -> Option<Arc<JobRecord>> {
        self.jobs.lock().expect("registry lock").get(&id).cloned()
    }

    /// `(queued, running, terminal)` counts. The terminal count includes
    /// jobs already evicted from the retention window.
    pub fn phase_counts(&self) -> (u64, u64, u64) {
        let jobs = self.jobs.lock().expect("registry lock");
        let mut counts = (0, 0, self.evicted_terminal.load(Ordering::Relaxed));
        for record in jobs.values() {
            match record.phase() {
                JobPhase::Queued => counts.0 += 1,
                JobPhase::Running => counts.1 += 1,
                _ => counts.2 += 1,
            }
        }
        counts
    }

    /// Trip every live job's stop flag (server shutdown).
    pub fn stop_all(&self) {
        let jobs = self.jobs.lock().expect("registry lock");
        for record in jobs.values() {
            record.stop.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::execute;
    use crate::spec::ProblemSpec;
    use std::sync::mpsc::channel;

    fn record() -> Arc<JobRecord> {
        JobRegistry::new().register(JobSpec {
            max_batches: Some(10),
            ..JobSpec::default()
        })
    }

    /// Plan the job as one unit and claim it the way a pool worker does;
    /// `false` when the job was already terminal.
    fn claim(r: &Arc<JobRecord>) -> bool {
        r.plan_units(1);
        r.begin_unit().is_some()
    }

    /// Claim the job's one unit and fold it as completed with no outcome:
    /// the job ends `done`.
    fn complete(r: &Arc<JobRecord>) {
        assert!(claim(r), "job {} was not claimable", r.id);
        r.finish_unit(UnitEnd::Completed, None, None);
    }

    fn offer(r: &JobRecord, energy: i64, at_ms: u64) {
        r.offer_incumbent(&Solution::zeros(4), energy, Duration::from_millis(at_ms));
    }

    #[test]
    fn cancel_while_queued_is_immediately_terminal() {
        let r = record();
        assert_eq!(r.phase(), JobPhase::Queued);
        assert_eq!(r.request_cancel(), JobPhase::Cancelled);
        assert!(r.stop.is_stopped());
        assert!(!claim(&r), "worker must skip a cancelled job");
        assert!(r.wait_terminal(Duration::from_millis(10)));
    }

    #[test]
    fn cancel_vs_worker_claim_race_never_erases_an_outcome() {
        // A cancel thread and a worker thread race on fresh records;
        // whichever transition wins, the loser must observe it and stand
        // down: a claimed job ends Done with its result, an unclaimed one
        // ends Cancelled. (A lock released between request_cancel's Queued
        // check and its transition used to let a late Cancelled/None stamp
        // erase a completed run's result.)
        let spec = JobSpec {
            max_batches: Some(5),
            ..JobSpec::default()
        };
        let (model, _) = spec.problem.build().unwrap();
        let result = spec
            .build_solver()
            .unwrap()
            .run_sequential(&model, spec.termination());
        let reg = JobRegistry::new();
        for _ in 0..200 {
            let r = reg.register(spec.clone());
            r.plan_units(1);
            let worker = {
                let r = Arc::clone(&r);
                let result = result.clone();
                std::thread::spawn(move || {
                    if r.begin_unit().is_some() {
                        let outcome = UnitOutcome {
                            result,
                            found: true,
                        };
                        r.finish_unit(UnitEnd::Completed, Some(outcome), None);
                        true
                    } else {
                        false
                    }
                })
            };
            let canceller = {
                let r = Arc::clone(&r);
                std::thread::spawn(move || r.request_cancel())
            };
            let claimed = worker.join().unwrap();
            let _ = canceller.join().unwrap();
            let (phase, result, _) = r.snapshot();
            if claimed {
                assert_eq!(phase, JobPhase::Done);
                assert!(result.is_some(), "claimed job lost its result");
            } else {
                assert_eq!(phase, JobPhase::Cancelled);
            }
        }
    }

    #[test]
    fn finish_is_idempotent_first_wins() {
        let r = record();
        complete(&r);
        r.finish(JobPhase::Failed, None, Some("late".into()));
        let (phase, _, error) = r.snapshot();
        assert_eq!(phase, JobPhase::Done);
        assert!(error.is_none());
    }

    #[test]
    fn watcher_on_terminal_job_gets_done_line_immediately() {
        let r = record();
        complete(&r);
        let (tx, rx) = channel();
        r.add_watcher(Arc::new(tx), WatchKind::ResultOnly);
        let line = rx.try_recv().expect("immediate done line");
        assert!(line.contains("\"done\""), "{line}");
    }

    #[test]
    fn subscriber_gets_snapshot_then_incumbents_then_done() {
        let r = record();
        assert!(claim(&r));
        offer(&r, -5, 1);
        let (tx, rx) = channel();
        r.add_watcher(Arc::new(tx), WatchKind::Subscribe);
        // snapshot of the pre-subscription best
        let snap = Response::parse_line(&rx.try_recv().unwrap()).unwrap();
        assert!(matches!(snap, Response::Incumbent { energy: -5, .. }));
        offer(&r, -9, 2);
        let inc = Response::parse_line(&rx.try_recv().unwrap()).unwrap();
        assert!(matches!(inc, Response::Incumbent { energy: -9, .. }));
        r.finish_unit(UnitEnd::Completed, None, None);
        let done = Response::parse_line(&rx.try_recv().unwrap()).unwrap();
        assert!(matches!(done, Response::Done { .. }));
    }

    #[test]
    fn result_only_watcher_skips_incumbents() {
        let r = record();
        assert!(claim(&r));
        let (tx, rx) = channel();
        r.add_watcher(Arc::new(tx), WatchKind::ResultOnly);
        offer(&r, -3, 1);
        assert!(rx.try_recv().is_err(), "no incumbent for result watchers");
        // A unit cut short by a cancel folds the job `cancelled`.
        r.finish_unit(UnitEnd::Interrupted, None, None);
        let line = rx.try_recv().unwrap();
        assert!(line.contains("cancelled"), "{line}");
    }

    #[test]
    fn terminal_jobs_are_evicted_beyond_retention() {
        let reg = JobRegistry::with_retention(4);
        let mut ids = Vec::new();
        for _ in 0..30 {
            let r = reg.register(JobSpec {
                max_batches: Some(1),
                ..JobSpec::default()
            });
            complete(&r);
            ids.push(r.id);
        }
        // Live map stays bounded; the finished total does not lose jobs.
        let live: Vec<bool> = ids.iter().map(|&id| reg.get(id).is_some()).collect();
        assert!(live.iter().filter(|&&l| l).count() <= 9, "{live:?}");
        let (_, _, finished) = reg.phase_counts();
        assert_eq!(finished, 30);
        // The newest terminal job is always still resolvable.
        assert!(reg.get(*ids.last().unwrap()).is_some());
    }

    #[test]
    fn live_jobs_are_never_evicted() {
        let reg = JobRegistry::with_retention(2);
        let keep: Vec<_> = (0..20)
            .map(|_| {
                reg.register(JobSpec {
                    max_batches: Some(1),
                    ..JobSpec::default()
                })
            })
            .collect();
        for r in &keep {
            assert!(reg.get(r.id).is_some(), "queued job {} evicted", r.id);
        }
    }

    #[test]
    fn timeline_records_lifecycle_in_monotone_order() {
        let r = record();
        r.plan_units(1);
        let unit = r.begin_unit().expect("claimable");
        r.push_timeline(TimelineKind::UnitStart {
            unit,
            worker: 0,
            queue_wait_us: 5,
        });
        offer(&r, -7, 1);
        offer(&r, -3, 2); // non-improvement: no event
        r.finish_unit(UnitEnd::Completed, None, None);
        let (events, dropped) = r.timeline_snapshot();
        assert_eq!(dropped, 0);
        let kinds: Vec<&TimelineKind> = events.iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], TimelineKind::Admitted));
        assert!(matches!(kinds[1], TimelineKind::UnitStart { .. }));
        assert!(matches!(kinds[2], TimelineKind::Incumbent { energy: -7 }));
        assert!(matches!(kinds[3], TimelineKind::Terminal { .. }));
        assert_eq!(kinds.len(), 4, "non-improving incumbent must not log");
        assert!(
            events.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "timestamps must be monotone: {events:?}"
        );
    }

    #[test]
    fn timeline_is_bounded_and_counts_drops() {
        let r = record();
        for i in 0..600u32 {
            r.push_timeline(TimelineKind::UnitStart {
                unit: i,
                worker: 0,
                queue_wait_us: 0,
            });
        }
        let (events, dropped) = r.timeline_snapshot();
        assert_eq!(events.len(), 512);
        assert_eq!(dropped, 88);
    }

    #[test]
    fn registry_counts_and_eviction() {
        let reg = JobRegistry::new();
        let a = reg.register(JobSpec {
            max_batches: Some(1),
            ..JobSpec::default()
        });
        let b = reg.register(JobSpec {
            max_batches: Some(1),
            ..JobSpec::default()
        });
        assert_ne!(a.id, b.id);
        assert_eq!(reg.phase_counts(), (2, 0, 0));
        complete(&b);
        assert_eq!(reg.phase_counts(), (1, 0, 1));
        reg.evict(a.id);
        assert!(reg.get(a.id).is_none());
        assert_eq!(reg.phase_counts(), (0, 0, 1));
    }

    fn keyed_spec(key: &str) -> JobSpec {
        JobSpec {
            max_batches: Some(1),
            idempotency_key: Some(key.into()),
            ..JobSpec::default()
        }
    }

    #[test]
    fn duplicate_idempotency_key_returns_original_record() {
        let reg = JobRegistry::new();
        let first = match reg.register_keyed(keyed_spec("req-1")) {
            Registered::New(r) => r,
            Registered::Duplicate(_) => panic!("fresh key must be new"),
        };
        // Same key collapses — even after the job went terminal.
        complete(&first);
        match reg.register_keyed(keyed_spec("req-1")) {
            Registered::Duplicate(r) => assert_eq!(r.id, first.id),
            Registered::New(_) => panic!("duplicate key must not re-admit"),
        }
        // A different key admits normally.
        match reg.register_keyed(keyed_spec("req-2")) {
            Registered::New(r) => assert_ne!(r.id, first.id),
            Registered::Duplicate(_) => panic!("distinct key collapsed"),
        }
        // No key: always new, never collapses.
        let anon = JobSpec {
            max_batches: Some(1),
            ..JobSpec::default()
        };
        assert!(matches!(
            reg.register_keyed(anon.clone()),
            Registered::New(_)
        ));
        assert!(matches!(reg.register_keyed(anon), Registered::New(_)));
    }

    #[test]
    fn evicted_key_frees_the_idempotency_slot() {
        let reg = JobRegistry::new();
        let first = match reg.register_keyed(keyed_spec("req-9")) {
            Registered::New(r) => r,
            Registered::Duplicate(_) => panic!("fresh"),
        };
        reg.evict(first.id);
        match reg.register_keyed(keyed_spec("req-9")) {
            Registered::New(r) => assert_ne!(r.id, first.id),
            Registered::Duplicate(_) => panic!("evicted job's key must not pin"),
        }
    }

    #[test]
    fn register_with_id_pins_identity_and_bumps_allocation() {
        let reg = JobRegistry::new();
        let replayed = reg.register_with_id(41, keyed_spec("crash-req"));
        assert_eq!(replayed.id, 41);
        // Fresh allocation resumes above the replayed id.
        let fresh = reg.register(JobSpec::default());
        assert_eq!(fresh.id, 42);
        // The replayed job's idempotency key is re-indexed.
        match reg.register_keyed(keyed_spec("crash-req")) {
            Registered::Duplicate(r) => assert_eq!(r.id, 41),
            Registered::New(_) => panic!("replayed key lost"),
        }
    }

    #[test]
    fn jobs_with_one_generator_spec_share_one_model() {
        let reg = JobRegistry::new();
        // A problem seed no other test uses, so no other job shares it.
        let problem = ProblemSpec::random(40, 0x5EED_CAFE);
        let job = |seed| JobSpec {
            problem: problem.clone(),
            seed,
            max_batches: Some(1),
            ..JobSpec::default()
        };
        let (a, b) = (reg.register(job(1)), reg.register(job(2)));
        let (ma, mb) = (a.model().unwrap(), b.model().unwrap());
        assert!(Arc::ptr_eq(&ma, &mb), "one model for one generator spec");
        assert_eq!(*ma, problem.build().unwrap().0, "equal to a fresh build");
        assert!(Arc::ptr_eq(&a.model().unwrap(), &ma), "one fetch per job");
        assert!(a.holds_model() && b.holds_model());
    }

    fn inline_record(reg: &JobRegistry, lanes: Option<u32>) -> Arc<JobRecord> {
        let mut b = dabs_model::QuboBuilder::new(6);
        b.add_linear(0, -2)
            .add_quadratic(0, 3, 4)
            .add_quadratic(2, 5, -3);
        reg.register(JobSpec {
            problem: ProblemSpec::inline_text(dabs_model::io::write_qubo(&b.build().unwrap())),
            max_batches: Some(5),
            lanes,
            ..JobSpec::default()
        })
    }

    /// Build the record's model, keep only a `Weak` to it, drive the record
    /// terminal, and check the model is gone.
    fn assert_released(r: &Arc<JobRecord>, drive: impl FnOnce(&Arc<JobRecord>), phase: JobPhase) {
        let weak = Arc::downgrade(&r.model().unwrap());
        assert!(weak.upgrade().is_some(), "the live record holds its model");
        drive(r);
        assert_eq!(r.phase(), phase);
        assert!(weak.upgrade().is_none(), "{phase:?} record kept its model");
        assert!(!r.holds_model());
        assert!(r.model().is_err(), "a terminal record builds nothing");
    }

    #[test]
    fn every_terminal_path_releases_the_model() {
        let reg = JobRegistry::new();
        assert_released(&inline_record(&reg, None), execute, JobPhase::Done);
        assert_released(
            &inline_record(&reg, None),
            |r| {
                r.request_cancel();
            },
            JobPhase::Cancelled,
        );
        // An invalid lane width passes no admission, but in-process it
        // builds the model and then fails at solver construction.
        assert_released(&inline_record(&reg, Some(96)), execute, JobPhase::Failed);
        assert_released(
            &inline_record(&reg, None),
            |r| {
                r.expire_if_unstarted("deadline passed while queued");
            },
            JobPhase::Expired,
        );
    }

    type SeenTerminals = Arc<Mutex<Vec<(JobId, JobPhase, Option<String>)>>>;

    #[test]
    fn terminal_hook_fires_once_with_final_state() {
        let reg = JobRegistry::new();
        let seen: SeenTerminals = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        reg.set_terminal_hook(Arc::new(move |id, phase, _result, error| {
            sink.lock()
                .unwrap()
                .push((id, phase, error.map(String::from)));
        }));
        let r = reg.register(JobSpec {
            max_batches: Some(1),
            ..JobSpec::default()
        });
        assert!(claim(&r));
        r.finish_unit(UnitEnd::Failed, None, Some("boom".into()));
        r.finish(JobPhase::Done, None, None); // late duplicate: no second fire
        let events = seen.lock().unwrap();
        assert_eq!(
            *events,
            vec![(r.id, JobPhase::Failed, Some("boom".to_string()))]
        );
    }

    #[test]
    fn quarantine_is_sticky_and_fires_hook_once() {
        let reg = JobRegistry::new();
        let seen: Arc<Mutex<Vec<JobId>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        reg.set_quarantine_hook(Arc::new(move |id| {
            sink.lock().unwrap().push(id);
        }));
        let r = reg.register(JobSpec {
            max_batches: Some(1),
            ..JobSpec::default()
        });
        assert!(!r.is_quarantined());
        assert_eq!(r.note_panic(), 1);
        assert_eq!(r.note_panic(), 2);
        assert_eq!(r.panic_count(), 2);
        assert!(r.quarantine(), "first quarantine call wins");
        assert!(!r.quarantine(), "second call is a no-op");
        assert!(r.is_quarantined());
        assert_eq!(*seen.lock().unwrap(), vec![r.id]);
    }

    #[test]
    fn restore_quarantine_marks_without_firing_hook() {
        let reg = JobRegistry::new();
        let seen: Arc<Mutex<Vec<JobId>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        reg.set_quarantine_hook(Arc::new(move |id| {
            sink.lock().unwrap().push(id);
        }));
        let r = reg.register_with_id(7, JobSpec::default());
        r.restore_quarantine();
        assert!(r.is_quarantined());
        assert!(seen.lock().unwrap().is_empty(), "replay must not re-append");
    }
}
